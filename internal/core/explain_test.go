package core

import (
	"math"
	"strings"
	"testing"

	"lucidscript/internal/dag"
	"lucidscript/internal/frame"
	"lucidscript/internal/intent"
	"lucidscript/internal/script"
)

func TestExplainResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 8
	cfg.Constraint.Tau = 0.5
	st := newStandardizer(t, cfg)
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) == 0 {
		t.Skip("no transformations applied in this configuration")
	}
	exps := st.ExplainResult(res)
	if len(exps) != len(res.Applied) {
		t.Fatalf("explanations = %d, applied = %d", len(exps), len(res.Applied))
	}
	// The deltas must telescope to the overall RE change.
	total := 0.0
	for _, e := range exps {
		total += e.REDelta
		if e.CorpusFrequency < 0 || e.CorpusFrequency > 1 {
			t.Fatalf("frequency out of range: %+v", e)
		}
		if e.Rationale == "" {
			t.Fatalf("empty rationale: %+v", e)
		}
		if !strings.Contains(e.String(), "corpus frequency") {
			t.Fatalf("String() = %q", e.String())
		}
	}
	if math.Abs(total-(res.REAfter-res.REBefore)) > 1e-9 {
		t.Fatalf("deltas sum to %v, want %v", total, res.REAfter-res.REBefore)
	}
}

func TestExplainEmptyResult(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	if exps := st.ExplainResult(&Result{}); exps != nil {
		t.Fatalf("explanations for empty result: %v", exps)
	}
}

func TestRationaleShapes(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	cases := map[string]string{
		"df = df.fillna(df.mean())":         "imputation",
		"df = pd.get_dummies(df)":           "encoding",
		`y = df["Outcome"]`:                 "target split",
		`df = df[df["SkinThickness"] < 80]`: "filter",
		"import numpy as np":                "import",
		`df = df.drop("Outcome", axis=1)`:   "pruning",
	}
	for src, want := range cases {
		stmt := mustStmt(t, src)
		tr := Transformation{Type: TransformAdd, Atom: newLine(stmt)}
		got := st.rationale(tr)
		if !strings.Contains(got, want) {
			t.Errorf("rationale(%q) = %q, want mention of %q", src, got, want)
		}
	}
	// Delete of an unseen atom gets the out-of-the-ordinary rationale.
	del := Transformation{Type: TransformDelete, Atom: newLine(mustStmt(t, `df["leak"] = df["Outcome"] * 3`))}
	if got := st.rationale(del); !strings.Contains(got, "out-of-the-ordinary") {
		t.Fatalf("delete rationale = %q", got)
	}
}

func TestParetoFrontier(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 6
	st := newStandardizer(t, cfg)
	taus := []float64{0.2, 0.5, 0.9, 1.0}
	pts, err := st.ParetoFrontier(script.MustParse(userScript), taus)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(taus) {
		t.Fatalf("points = %d", len(pts))
	}
	// Jaccard measure: improvement non-increasing as τ tightens.
	for i := 1; i < len(pts); i++ {
		if pts[i].ImprovementPct > pts[i-1].ImprovementPct+1e-9 {
			t.Fatalf("frontier not monotone: %+v", pts)
		}
	}
	for i, p := range pts {
		if p.Tau != taus[i] {
			t.Fatalf("tau mismatch: %+v", pts)
		}
	}
}

func TestStandardizeGridSeqPrefixExactness(t *testing.T) {
	// A grid run at seqs {2, 6} must give for seq=2 exactly what a plain
	// seq=2 run gives (the beam trajectory is budget-oblivious).
	cfg := DefaultConfig()
	cfg.SeqLength = 6
	cfg.Constraint.Tau = 0.5
	st := newStandardizer(t, cfg)
	su := script.MustParse(userScript)
	grid, err := st.StandardizeGrid(su, []int{2, 6}, []intent.Constraint{cfg.Constraint})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.SeqLength = 2
	st2 := newStandardizer(t, cfg2)
	solo, err := st2.Standardize(su)
	if err != nil {
		t.Fatal(err)
	}
	if grid[0][0].Output.Source() != solo.Output.Source() {
		t.Fatalf("grid seq=2 differs from solo seq=2:\n%s\nvs\n%s",
			grid[0][0].Output.Source(), solo.Output.Source())
	}
	if grid[1][0].ImprovementPct < grid[0][0].ImprovementPct-1e-9 {
		t.Fatal("longer budget must not hurt")
	}
}

func TestNewWeightedChangesDistribution(t *testing.T) {
	sources := mapSources(t)
	rare := script.MustParse("import pandas as pd\ndf = pd.read_csv(\"diabetes.csv\")\ndf = df.dropna()\n")
	common := script.MustParse("import pandas as pd\ndf = pd.read_csv(\"diabetes.csv\")\ndf = df.fillna(df.mean())\n")
	corpus := []*script.Script{rare, common}
	plain := New(corpus, sources, DefaultConfig())
	weighted := FromCorpus(CurateWeighted(corpus, []int{10, 1}, sources), DefaultConfig())
	// Under the weighted corpus, the "rare" script's steps dominate, so its
	// RE must be lower there than under the unweighted corpus.
	g := script.MustParse(rare.Source())
	if weighted.Corpus.Vocab.RE(buildG(g)) >= plain.Corpus.Vocab.RE(buildG(g)) {
		t.Fatal("weighting should pull the distribution toward heavy scripts")
	}
	if weighted.Corpus.Vocab.NumScripts != 11 {
		t.Fatalf("weighted NumScripts = %d", weighted.Corpus.Vocab.NumScripts)
	}
}

// Helpers bridging test shorthand to the dag package.
func newLine(st script.Stmt) dag.LineInfo { return dag.NewLineInfo(st) }

func buildG(s *script.Script) *dag.Graph { return dag.Build(s) }

func mapSources(t *testing.T) map[string]*frame.Frame {
	t.Helper()
	return map[string]*frame.Frame{"diabetes.csv": diabetesFrame(t, 80)}
}
