package serveexp

import (
	"fmt"

	"lucidscript/internal/bench"
)

// Regress replays the batch, serve, route, and curate (10k corpus only)
// experiments back to back on the current build and returns the union of
// their ledger records — the report `lsbench -exp regress -json` writes and
// cmd/benchgate gates against the committed BENCH_ledger.json. It lives
// here rather than in bench because the serve and route legs need the
// facade; cmd/lsbench wires it in via bench.RegressRunner.
func Regress(opts bench.Options) (*bench.Table, error) {
	legs := []struct {
		name string
		run  func(bench.Options) (*bench.Table, error)
	}{
		{"batch", bench.Batch},
		{"serve", Run},
		{"route", Route},
		{"curate", func(o bench.Options) (*bench.Table, error) { return bench.CurateSizes(o, []int{10_000}) }},
	}
	t := &bench.Table{
		Title:  "Regress replay (one row per ledger record; gate it with benchgate)",
		Header: []string{"experiment", "case", "metric", "value"},
	}
	for _, leg := range legs {
		opts.Logf("regress: replaying %s experiment", leg.name)
		lt, err := leg.run(opts)
		if err != nil {
			return nil, fmt.Errorf("bench: regress %s leg: %w", leg.name, err)
		}
		for _, r := range lt.Records {
			t.Rows = append(t.Rows, []string{r.Experiment, r.Case, r.Metric, bench.FormatValue(r.Value, r.Unit)})
		}
		t.Records = append(t.Records, lt.Records...)
	}
	return t, nil
}
