// Command perfbench is LucidScript's benchmark: it runs one seeded
// workload through the public API, checks every output, and prints every
// metric with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones; with -trace 1 a separate traced run
// adds the per-layer ones. See README.md.
//
//	perfbench -workload search-small -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	// problems lists the correctness failures, for the report.
	problems []string
	// outputsSHA digests every checked output, so two commits can be
	// compared for byte identity.
	outputsSHA string
	e2e        map[string]float64
	layer      map[string]float64
	notes      []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// dir is this run's scratch directory for generated inputs, registries
	// and data dirs; it is removed when the run ends.
	dir string
	// spansPath, when set, receives the traced run's spans.
	spansPath string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"search-small":  func(c config) (*result, error) { return runBatch(searchSmall, c) },
	"frames-large":  func(c config) (*result, error) { return runBatch(framesLarge, c) },
	"model-intent":  func(c config) (*result, error) { return runBatch(modelIntent, c) },
	"served-routed": runServed,
}

// The end-to-end metrics every workload reports, in print order, and
// their units.
var (
	e2eNames = []string{"setup_s", "jobs_per_s", "job_ms_p50", "job_ms_tail", "improvement_pct_mean", "heap_peak_mb"}
	e2eUnits = map[string]string{
		"setup_s": "s", "jobs_per_s": "jobs/s", "job_ms_p50": "ms", "job_ms_tail": "ms",
		"improvement_pct_mean": "%", "heap_peak_mb": "MB",
	}
)

func main() {
	var (
		workload   = flag.String("workload", "", "workload to run: search-small, frames-large, model-intent or served-routed")
		seed       = flag.Int64("seed", 1, "input-generation seed")
		seconds    = flag.Int("seconds", 15, "measured window, in seconds")
		trace      = flag.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics instead of the end-to-end ones")
		workDir    = flag.String("workdir", ".bench_build/work", "directory for generated inputs (a per-run subdirectory is removed at exit)")
		spans      = flag.String("spans", "", "file to write the traced run's spans to, one JSON object per line (default: none)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mkdirAll(*workDir), *workload+"-")
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir, spansPath: *spans}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	res, err := run(cfg)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", dir, rmErr)
	}
	if err != nil {
		fatal(err)
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fatal(err)
		}
	}
	if !report(os.Stdout, *workload, cfg, res) {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// report prints the human-readable lines and, last, the JSON result line.
// It returns whether every output was correct.
func report(w *os.File, workload string, cfg config, res *result) bool {
	set, names, units := res.e2e, e2eNames, e2eUnits
	if cfg.trace {
		set, names, units = res.layer, layerNames, layerUnits
	}
	out := make(map[string]metric, len(names))
	for _, n := range names {
		// A layer this workload does not exercise reports zero.
		out[n] = metric{set[n], units[n]}
	}
	correct := res.failed == 0 && res.attempted > 0
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\n", workload, cfg.seed, int(cfg.seconds.Seconds()), cfg.trace)
	for _, n := range res.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14s %s\n", n, strconv.FormatFloat(out[n].Value, 'f', -1, 64), out[n].Unit)
	}
	fmt.Fprintf(w, "outputs_sha256 %s\n", res.outputsSHA)
	fmt.Fprintf(w, "attempted %d failed %d fail_ratio %g\n", res.attempted, res.failed, ratio(res.failed, res.attempted))
	for _, p := range res.problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(line))
	return correct
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler polls the live heap from runtime/metrics until stopped and
// keeps the peak. It reads the heap marked live by the latest GC, not the
// heap in use at the instant of the sample: the latter includes garbage
// not yet collected and swings with GC timing from run to run.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak live heap in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters snapshots the allocation and GC CPU counters.
type runtimeCounters struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// runtimeLayer reports allocation per job and the GC share of CPU between
// two snapshots.
func runtimeLayer(res *result, before, after runtimeCounters, jobs int) {
	res.layer["runtime.alloc_mb_per_job"] = (after.allocBytes - before.allocBytes) / (1 << 20) / float64(max(jobs, 1))
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		res.layer["runtime.gc_cpu_pct"] = 100 * (after.gcCPU - before.gcCPU) / cpu
	}
}

// writeSpans writes the traced run's spans when -spans names a file.
func writeSpans(cfg config, rec *recorder) error {
	if cfg.spansPath == "" || rec == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(cfg.spansPath), 0o755); err != nil {
		return err
	}
	return rec.writeJSON(cfg.spansPath)
}
