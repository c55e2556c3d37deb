package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/registry"
)

// curateRun is one corpus size's registry lifecycle. Cold curation
// (parse + lemmatize + fold + publish) is the price the registry exists to
// amortize; warm load re-opens the published snapshot without touching the
// per-script section, and apply re-curates a small churn incrementally.
// Cold curation runs once; every other leg is the best of curateReps.
type curateRun struct {
	// Corpus labels the synthetic corpus ("gen-10k"), the ledger case.
	Corpus string
	// Scripts is the corpus membership size.
	Scripts int
	// Churn is how many scripts the apply leg added plus removed (~1%).
	Churn int
	// ColdCurateMS curates the full corpus from source and publishes v1.
	ColdCurateMS float64
	// WarmLoadMS re-opens the published registry ready to standardize
	// (vocabulary loaded, per-script section untouched).
	WarmLoadMS float64
	// FullLoadMS is the one-time lazy load of the per-script section a
	// warm-opened registry pays before its first mutation (membership
	// decode, stats reconstruction, cross-section consistency check).
	FullLoadMS float64
	// ApplyMS applies the churn to a loaded registry and publishes the new
	// version — the steady-state incremental re-curation cost.
	ApplyMS float64
	// RebuildMS curates the post-churn membership from scratch, the cost
	// Apply replaces.
	RebuildMS float64
	// WarmSpeedup is ColdCurateMS / WarmLoadMS.
	WarmSpeedup float64
	// ApplySpeedup is RebuildMS / ApplyMS.
	ApplySpeedup float64
	// Identical reports that the applied registry's canonical state matched
	// the from-scratch rebuild byte for byte.
	Identical bool
}

// The registry's pinned performance contract (see DESIGN.md §10): a warm
// boot must beat cold curation by at least warmSpeedupFloor, and a ~1%
// churn applied incrementally must beat a from-scratch rebuild by at least
// applySpeedupFloor. The speedups are machine-independent, so they reach
// the ledger as floored records that gate without a baseline.
const (
	warmSpeedupFloor  = 5.0
	applySpeedupFloor = 10.0
)

// curateReps is how many times each timed leg after cold curation runs;
// the best rep is recorded, as the batch and serve experiments do.
const curateReps = 3

// records returns the run's ledger records: four wall clocks and the two
// floored speedups.
func (r curateRun) records() []Record {
	recs := []Record{
		MSRecord("curate", r.Corpus, "cold_curate_ms", r.ColdCurateMS),
		MSRecord("curate", r.Corpus, "warm_load_ms", r.WarmLoadMS),
		MSRecord("curate", r.Corpus, "full_load_ms", r.FullLoadMS),
		MSRecord("curate", r.Corpus, "apply_ms", r.ApplyMS),
		{Experiment: "curate", Case: r.Corpus, Metric: "warm_speedup", Unit: "x", Value: r.WarmSpeedup, Floor: warmSpeedupFloor},
		{Experiment: "curate", Case: r.Corpus, Metric: "apply_speedup", Unit: "x", Value: r.ApplySpeedup, Floor: applySpeedupFloor},
	}
	for i := range recs {
		recs[i].Identical = r.Identical
	}
	return recs
}

// curateSizes are the corpus sizes the standalone experiment sweeps; the
// regress replay runs only the first (smallest) to keep CI wall-clock sane.
var curateSizes = []int{10_000, 100_000}

// Curate measures the corpus-registry lifecycle — cold curation, warm
// snapshot load, and incremental re-curation under ~1% churn — over
// seeded synthetic corpora of 10^4..10^5 scripts.
func Curate(opts Options) (*Table, error) {
	return CurateSizes(opts, curateSizes)
}

// CurateSizes runs the curate experiment over the given corpus sizes. The
// regress experiment reuses it with the smallest size only.
func CurateSizes(opts Options, sizes []int) (*Table, error) {
	opts = opts.withDefaults()
	var runs []curateRun
	for _, n := range sizes {
		run, err := curateOne(opts, n)
		if err != nil {
			return nil, fmt.Errorf("bench: curate %d scripts: %w", n, err)
		}
		runs = append(runs, run)
	}
	return curateTable(runs), nil
}

func curateOne(opts Options, n int) (curateRun, error) {
	churn := n / 200 // 0.5% removed + 0.5% added = 1% total churn
	if churn == 0 {
		churn = 1
	}
	comp, err := corpusgen.Get("Titanic")
	if err != nil {
		return curateRun{}, err
	}
	opts.Logf("curate: generating %d scripts (seed %d)", n+churn, opts.Seed)
	// Generate churn extra scripts past the corpus: the per-script streams
	// make the first n a stable prefix, so the tail is the add set.
	generated, err := comp.GenerateScaled(corpusgen.ScaleConfig{Seed: opts.Seed, NumScripts: n + churn})
	if err != nil {
		return curateRun{}, err
	}
	members := make([]registry.Script, n)
	for i, g := range generated[:n] {
		members[i] = registry.Script{ID: comp.ScaledID(i), Source: g.Script.Source()}
	}
	adds := make([]registry.Script, churn)
	for i, g := range generated[n:] {
		adds[i] = registry.Script{ID: comp.ScaledID(n + i), Source: g.Script.Source()}
	}
	// Remove churn members evenly spread across the corpus.
	removes := make([]registry.Script, churn)
	for i := range removes {
		removes[i] = members[(i*n)/churn]
	}
	removed := make(map[string]bool, churn)
	for _, r := range removes {
		removed[r.ID] = true
	}

	rec := curateRun{Corpus: fmt.Sprintf("gen-%dk", n/1000), Scripts: n, Churn: 2 * churn}
	best := func(dst *float64, rep int, d time.Duration) {
		if v := ms(d); rep == 0 || v < *dst {
			*dst = v
		}
	}

	coldDir, err := os.MkdirTemp("", "lsbench-curate-cold-")
	if err != nil {
		return curateRun{}, err
	}
	defer os.RemoveAll(coldDir)
	opts.Logf("curate: cold-curating %d scripts", n)
	start := time.Now()
	if _, err := registry.Create(coldDir, members); err != nil {
		return curateRun{}, err
	}
	rec.ColdCurateMS = ms(time.Since(start))

	var applied *registry.Registry
	for rep := 0; rep < curateReps; rep++ {
		opts.Logf("curate: rep %d: warm load, per-script load, %d-script churn apply", rep+1, 2*churn)
		warm, legs, err := warmApply(coldDir, adds, removes)
		if err != nil {
			return curateRun{}, err
		}
		best(&rec.WarmLoadMS, rep, legs[0])
		best(&rec.FullLoadMS, rep, legs[1])
		best(&rec.ApplyMS, rep, legs[2])
		applied = warm
	}

	// The post-churn membership in the registry's canonical order:
	// survivors in insertion order, then the adds.
	mutated := make([]registry.Script, 0, n)
	for _, m := range members {
		if !removed[m.ID] {
			mutated = append(mutated, m)
		}
	}
	mutated = append(mutated, adds...)

	var rebuilt *registry.Registry
	for rep := 0; rep < curateReps; rep++ {
		dir, err := os.MkdirTemp("", "lsbench-curate-rebuild-")
		if err != nil {
			return curateRun{}, err
		}
		runtime.GC()
		opts.Logf("curate: rep %d: rebuilding the post-churn corpus from scratch", rep+1)
		start = time.Now()
		rebuilt, err = registry.Create(dir, mutated)
		d := time.Since(start)
		os.RemoveAll(dir) // Create leaves the registry fully loaded in memory
		if err != nil {
			return curateRun{}, err
		}
		best(&rec.RebuildMS, rep, d)
	}

	appliedState, err := applied.StateBytes()
	if err != nil {
		return curateRun{}, err
	}
	rebuiltState, err := rebuilt.StateBytes()
	if err != nil {
		return curateRun{}, err
	}
	rec.Identical = bytes.Equal(appliedState, rebuiltState)
	if rec.WarmLoadMS > 0 {
		rec.WarmSpeedup = rec.ColdCurateMS / rec.WarmLoadMS
	}
	if rec.ApplyMS > 0 {
		rec.ApplySpeedup = rec.RebuildMS / rec.ApplyMS
	}
	opts.Logf("curate: %s cold %.0fms, warm %.0fms (%.1fx), full load %.0fms, apply %.0fms vs rebuild %.0fms (%.1fx), identical=%v",
		rec.Corpus, rec.ColdCurateMS, rec.WarmLoadMS, rec.WarmSpeedup,
		rec.FullLoadMS, rec.ApplyMS, rec.RebuildMS, rec.ApplySpeedup, rec.Identical)
	return rec, nil
}

// warmApply times one rep of the warm legs on a fresh copy of the
// registry published in coldDir — a copy because Publish moves the
// directory it was opened from on to the next version. It returns the
// applied registry, fully loaded in memory, and the warm-load, full-load,
// and apply durations.
func warmApply(coldDir string, adds, removes []registry.Script) (*registry.Registry, [3]time.Duration, error) {
	var legs [3]time.Duration
	dir, err := os.MkdirTemp("", "lsbench-curate-warm-")
	if err != nil {
		return nil, legs, err
	}
	defer os.RemoveAll(dir)
	if err := copyFiles(coldDir, dir); err != nil {
		return nil, legs, err
	}
	runtime.GC()
	start := time.Now()
	warm, err := registry.Open(dir)
	if err != nil {
		return nil, legs, err
	}
	_ = warm.Vocab() // the load a standardization needs is now complete
	legs[0] = time.Since(start)

	start = time.Now()
	if _, err := warm.Members(); err != nil {
		return nil, legs, err
	}
	legs[1] = time.Since(start)

	start = time.Now()
	if err := warm.Apply(adds, removes); err != nil {
		return nil, legs, err
	}
	if _, err := warm.Publish(); err != nil {
		return nil, legs, err
	}
	legs[2] = time.Since(start)
	return warm, legs, nil
}

// copyFiles copies the files of src into dst.
func copyFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

func curateTable(runs []curateRun) *Table {
	t := &Table{
		Title: "Corpus-registry lifecycle at scale (cold curate vs warm load vs incremental apply)",
		Header: []string{"corpus", "scripts", "cold curate", "warm load", "warm speedup",
			"full load", "apply (1% churn)", "rebuild", "apply speedup", "identical"},
	}
	for _, r := range runs {
		t.Records = append(t.Records, r.records()...)
		t.Rows = append(t.Rows, []string{
			r.Corpus, fmt.Sprintf("%d", r.Scripts),
			fmt.Sprintf("%.0fms", r.ColdCurateMS),
			fmt.Sprintf("%.1fms", r.WarmLoadMS),
			fmt.Sprintf("%.1fx", r.WarmSpeedup),
			fmt.Sprintf("%.0fms", r.FullLoadMS),
			fmt.Sprintf("%.0fms", r.ApplyMS),
			fmt.Sprintf("%.0fms", r.RebuildMS),
			fmt.Sprintf("%.1fx", r.ApplySpeedup),
			fmt.Sprintf("%v", r.Identical),
		})
	}
	return t
}
