// Command lsbench regenerates the tables and figures of the paper's
// evaluation against the synthetic competitions.
//
// Usage:
//
//	lsbench -exp table5            # one experiment
//	lsbench -exp all               # everything, in paper order
//	lsbench -list                  # list experiments
//	lsbench -exp fig6 -scripts 10 -rowscale 0.05 -seed 7
//	lsbench -exp regress -batch-workers 1 -json report.json   # then: benchgate -report report.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lucidscript/internal/bench"
	"lucidscript/internal/bench/serveexp"
	"lucidscript/internal/interp"
	"lucidscript/internal/obs"
)

func main() {
	// The serve and regress experiments live in their own package because
	// they depend on the facade (see bench.ServeRunner); link them into the
	// registry here.
	bench.ServeRunner = serveexp.Run
	bench.RouteRunner = serveexp.Route
	bench.RegressRunner = serveexp.Regress
	var (
		exp         = flag.String("exp", "all", "experiment id (e.g. table5, fig9) or 'all'")
		list        = flag.Bool("list", false, "list experiments and exit")
		seed        = flag.Int64("seed", 1, "random seed")
		rowScale    = flag.Float64("rowscale", 0.02, "fraction of each competition's full tuple count")
		minRows     = flag.Int("minrows", 240, "minimum rows per dataset")
		scripts     = flag.Int("scripts", 6, "input scripts per dataset (leave-one-out cap)")
		seq         = flag.Int("seq", 0, "override sequence length (0 = default 16)")
		beam        = flag.Int("beam", 0, "override beam size (0 = default 3)")
		datasets    = flag.String("datasets", "", "comma-separated dataset subset (default all six)")
		execCache   = flag.String("execcache", "on", "execution-prefix cache: on or off")
		maxCells    = flag.Int("max-cells", 0, "cap rows*cols of any value a candidate materializes (0 = governor off; setting this or -max-steps enables default budgets for the rest)")
		maxSteps    = flag.Int("max-steps", 0, "cap statements per candidate execution (0 = governor off)")
		batchWork   = flag.Int("batch-workers", 0, "worker pool size for the batch experiment (0 = GOMAXPROCS)")
		jsonPath    = flag.String("json", "", "also write the perf-ledger records of every experiment run (batch, serve, route, curate, regress) to this JSON file")
		quiet       = flag.Bool("q", false, "suppress progress output")
		trace       = flag.Bool("trace", false, "stream structured search events to stderr")
		metricsDump = flag.Bool("metrics-dump", false, "print cumulative search counters in Prometheus text format to stderr on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %-9s %s\n", e.ID, e.Paper, e.Description)
		}
		return
	}

	if *execCache != "on" && *execCache != "off" {
		fmt.Fprintf(os.Stderr, "lsbench: -execcache must be on or off, got %q\n", *execCache)
		os.Exit(2)
	}
	opts := bench.Options{
		Seed:              *seed,
		RowScale:          *rowScale,
		MinRows:           *minRows,
		ScriptsPerDataset: *scripts,
		SeqLength:         *seq,
		BeamSize:          *beam,
		DisableExecCache:  *execCache == "off",
		BatchWorkers:      *batchWork,
	}
	if *maxCells > 0 || *maxSteps > 0 {
		limits := interp.DefaultLimits()
		if *maxCells > 0 {
			limits.MaxCells = *maxCells
		}
		if *maxSteps > 0 {
			limits.MaxSteps = *maxSteps
		}
		opts.Limits = limits
	}
	if *datasets != "" {
		opts.Datasets = strings.Split(*datasets, ",")
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	if *trace {
		opts.Tracer = obs.NewWriterTracer(os.Stderr)
	}
	var metrics *obs.Metrics
	if *metricsDump {
		metrics = obs.NewMetrics()
		opts.Metrics = metrics
	}

	var ids []string
	if *exp == "all" {
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}
	var records []bench.Record
	for _, id := range ids {
		e, err := bench.Lookup(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		start := time.Now()
		t, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("\n%s\n", t.Render())
		fmt.Printf("[%s completed in %s]\n", e.ID, time.Since(start).Round(time.Millisecond))
		records = append(records, t.Records...)
	}
	if *jsonPath != "" {
		if err := bench.WriteLedger(*jsonPath, records); err != nil {
			fmt.Fprintln(os.Stderr, "lsbench:", err)
			os.Exit(1)
		}
		opts.Logf("%d ledger records written to %s", len(records), *jsonPath)
	}
	if metrics != nil {
		if err := metrics.WritePrometheus(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "lsbench: metrics dump:", err)
		}
	}
}
