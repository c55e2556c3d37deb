// Command benchgate is the perf-regression gate: it compares a perf-ledger
// report produced by `lsbench -json` against the committed
// BENCH_ledger.json and exits non-zero on regression.
//
// Usage:
//
//	lsbench -exp regress -batch-workers 1 -json report.json
//	benchgate -report report.json
//	benchgate -report report.json -baseline BENCH_ledger.json
//
// Every record whose output was not byte-identical fails, as does a
// floored record (a registry speedup contract) below its floor. Every
// other record is a wall clock joined to its baseline record; wall clocks
// across machines are noisy, so current/baseline ratios above 1.5 are
// printed but tolerated and ratios above 3.0 exit 1. Exit status 2 means
// the report or the ledger could not be read. Refresh the ledger on the
// reference machine when the code gets legitimately faster or slower by
// rerunning the lsbench command with -json BENCH_ledger.json.
package main

import (
	"flag"
	"fmt"
	"os"

	"lucidscript/internal/bench"
)

func main() {
	var (
		report   = flag.String("report", "", "perf-ledger report JSON (from lsbench -exp regress -json)")
		baseline = flag.String("baseline", "BENCH_ledger.json", "committed perf-ledger baseline")
	)
	flag.Parse()
	if *report == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -report is required")
		flag.Usage()
		os.Exit(2)
	}
	current, err := bench.LoadLedger(*report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	base, err := bench.LoadLedger(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	findings := bench.Gate(current, base)
	fmt.Println(bench.GateTable(findings).Render())
	fails, _, line := bench.GateSummary(findings)
	fmt.Println(line)
	if fails > 0 {
		os.Exit(1)
	}
}
