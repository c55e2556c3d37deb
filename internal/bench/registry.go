package bench

import (
	"fmt"
	"sort"
)

// Experiment is a runnable table/figure reproduction.
type Experiment struct {
	// ID is the command-line name (e.g. "table5", "fig9").
	ID string
	// Paper is the table/figure reference in the paper.
	Paper string
	// Description summarizes what it reproduces.
	Description string
	// Run produces the result table.
	Run func(Options) (*Table, error)
}

// Experiments returns the registry of all reproductions, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table2", Paper: "Table 2", Description: "parameter defaults by corpus properties", Run: Table2},
		{ID: "table3", Paper: "Table 3", Description: "dataset and DAG statistics", Run: Table3},
		{ID: "table4", Paper: "Table 4", Description: "metric-evaluation case study", Run: Table4},
		{ID: "table5", Paper: "Table 5", Description: "% improvement across corpus setups and methods", Run: Table5},
		{ID: "fig3", Paper: "Figure 3", Description: "simulated user study", Run: Fig3},
		{ID: "fig4", Paper: "Figure 4", Description: "% improvement distributions", Run: Fig4},
		{ID: "fig5", Paper: "Figure 5", Description: "intent-threshold sweeps", Run: Fig5},
		{ID: "fig6", Paper: "Figure 6", Description: "seq and beam-size ablations", Run: Fig6},
		{ID: "fig7", Paper: "Figure 7", Description: "runtime breakdown", Run: Fig7},
		{ID: "fig9", Paper: "Figure 9", Description: "target-leakage detection", Run: Fig9},
		{ID: "ablate", Paper: "(extra)", Description: "framework-component ablation (DESIGN.md)", Run: Ablate},
		{ID: "batch", Paper: "(extra)", Description: "concurrent batch engine vs sequential standardization", Run: Batch},
		{ID: "serve", Paper: "(extra)", Description: "HTTP standardization service vs direct library calls", Run: Serve},
		{ID: "route", Paper: "(extra)", Description: "lsrouter-fronted cluster vs a single directly-addressed replica", Run: Route},
		{ID: "curate", Paper: "(extra)", Description: "corpus-registry lifecycle: cold curation vs warm load vs incremental apply", Run: Curate},
		{ID: "regress", Paper: "(extra)", Description: "perf-regression replay of batch+serve+route+curate as one ledger report", Run: Regress},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}
