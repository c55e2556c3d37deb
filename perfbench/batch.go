package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"time"

	"lucidscript"
)

// batchWorkers is StandardizeBatch's pool size: the load comes from one
// process using at most the two CPUs of the reference machine.
const batchWorkers = 2

// setupReps is how many times a batch set-up runs; setup_s is their
// median. Set-up takes milliseconds to a few hundred, so one run's worth
// is noise-prone and nine cost little.
const setupReps = 9

// batchSpec defines one batch workload: which competitions, at which row
// scale, under which intent constraint. Every corpus script of every
// competition is a job, standardized against its own competition's corpus.
type batchSpec struct {
	comps    []string
	rowScale float64
	measure  lucidscript.IntentMeasure
	tau      float64
	// passSeconds is the nominal length of one pass over every job on
	// the reference machine; a run makes seconds/passSeconds passes (at
	// least one). The pass count is fixed by the arguments, not by how
	// fast the passes go, so two commits measure the same work.
	passSeconds int
}

var (
	// searchSmall is ranking-heavy and frame-light: small tables, many
	// scripts, so beam-search step ranking and the session cache dominate.
	searchSmall = batchSpec{[]string{"Titanic", "House", "NLP", "Spaceship", "Medical"}, 0.02, lucidscript.IntentJaccard, 0.8, 5}
	// framesLarge is frame- and Jaccard-heavy: Sales at ~75k rows is above
	// the 50,000-row MaxRows default, so tuple sampling runs, and table
	// Jaccard verification over full data dominates.
	framesLarge = batchSpec{[]string{"Sales"}, 0.1, lucidscript.IntentJaccard, 0.8, 18}
	// modelIntent verifies through the downstream model (Δ_M) instead of
	// table Jaccard, so a Jaccard-side change should leave it unchanged.
	modelIntent = batchSpec{[]string{"Medical", "House"}, 0.1, lucidscript.IntentModel, 1, 8}
)

// batchSystem is one competition's System and its jobs, the corpus
// scripts in corpus order.
type batchSystem struct {
	comp *competition
	sys  *lucidscript.System
	jobs []*lucidscript.Script
}

// options configures a competition's System. The run seed is the search's
// sampling seed (Options.Seed): it picks the MaxRows tuple sample and the
// interpreter's sampling.
func (spec batchSpec) options(c *competition, seed int64, tracer lucidscript.Tracer, m *lucidscript.Metrics) lucidscript.Options {
	o := lucidscript.Options{Measure: spec.measure, Tau: spec.tau, Seed: seed, BatchWorkers: batchWorkers, Tracer: tracer, Metrics: m}
	if spec.measure == lucidscript.IntentModel {
		o.TargetColumn = c.Target
	}
	return o
}

// setup reads every competition's files, parses its corpus and builds its
// System: everything before the first job can start.
func (spec batchSpec) setup(comps []*competition, seed int64, rec *recorder, parent int, tracer lucidscript.Tracer, m *lucidscript.Metrics) ([]*batchSystem, int, error) {
	var out []*batchSystem
	rows := 0
	for _, c := range comps {
		l, err := c.load(rec, parent)
		if err != nil {
			return nil, 0, err
		}
		rows += l.Rows
		sp := rec.begin("core.NewSystem", parent, -1)
		sys, err := lucidscript.NewSystem(l.Corpus, l.Sources, spec.options(c, seed, tracer, m))
		rec.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", c.Name, err)
		}
		out = append(out, &batchSystem{comp: c, sys: sys, jobs: l.Corpus})
	}
	return out, rows, nil
}

// jobOut is one job's checked output.
type jobOut struct {
	script, hash string
}

// window is what one measured window observed.
type window struct {
	passes  int
	jobs    int
	elapsed time.Duration // summed time of the timed calls
	// jobMS is, per job, its search wall time plus its output hash,
	// averaged over the passes: a job's time varies with what the other
	// worker runs beside it, and the median over jobs is only steady once
	// each job's own time is.
	jobMS   []float64
	sum     lucidscript.Timings
	curate  time.Duration
	imp     []float64 // first pass, per job
	outputs []jobOut  // first pass, per job
}

// runWindow runs the given number of passes over every job. Only the
// calls into the program are timed; the output checks between them are
// not. Every output must match ref (the first pass when ref is nil).
func (spec batchSpec) runWindow(systems []*batchSystem, passes int, rec *recorder, res *result, ref []jobOut) *window {
	w := &window{}
	for _, s := range systems {
		w.jobMS = append(w.jobMS, make([]float64, len(s.jobs))...)
	}
	job := 0
	for w.passes < passes {
		var outputs []jobOut
		passSpan := rec.begin("pass", -1, -1)
		for _, s := range systems {
			runtime.GC()
			t0 := time.Now()
			sp := rec.begin("core.StandardizeBatch", passSpan, -1)
			results, err := s.sys.StandardizeBatch(s.jobs)
			rec.end(sp)
			w.elapsed += time.Since(t0)
			var berr *lucidscript.BatchError
			if err != nil && !errors.As(err, &berr) {
				res.attempted += len(s.jobs)
				res.fail("%s: batch: %v", s.comp.Name, err)
				res.failed += len(s.jobs) - 1
				outputs = append(outputs, make([]jobOut, len(s.jobs))...)
				continue
			}
			for i, r := range results {
				res.attempted++
				w.jobs++
				job++
				if berr != nil && berr.Errs[i] != nil {
					res.fail("%s script %d: %v", s.comp.Name, i, berr.Errs[i])
					outputs = append(outputs, jobOut{})
					continue
				}
				t1 := time.Now()
				hs := rec.begin("interp.OutputHash", passSpan, job)
				hash, herr := s.sys.OutputHash(r.Script)
				rec.end(hs)
				hd := time.Since(t1)
				w.elapsed += hd
				w.jobMS[len(outputs)] += ms(r.Timings.Total+hd) / float64(passes)
				addTimings(&w.sum, r.Timings)
				if w.passes == 0 && i == 0 {
					w.curate += r.Timings.CurateSearchSpace
				}
				if w.passes == 0 {
					w.imp = append(w.imp, r.ImprovementPct)
				}
				out := jobOut{script: r.Script.Source(), hash: hash}
				if msg := spec.check(r, herr); msg != "" {
					res.fail("%s script %d: %s", s.comp.Name, i, msg)
				} else if ref != nil && ref[len(outputs)] != out {
					res.fail("%s script %d: output differs from the first pass", s.comp.Name, i)
				}
				outputs = append(outputs, out)
			}
		}
		rec.end(passSpan)
		if w.passes == 0 {
			w.outputs = outputs
			if ref == nil {
				ref = outputs
			}
		}
		w.passes++
	}
	return w
}

// check validates one job: the output parses, its hash succeeded, the
// intent value meets τ and the relative entropy did not rise.
func (spec batchSpec) check(r *lucidscript.Result, hashErr error) string {
	if r == nil || r.Script == nil {
		return "no output script"
	}
	if _, err := lucidscript.ParseScript(r.Script.Source()); err != nil {
		return fmt.Sprintf("output does not parse: %v", err)
	}
	if hashErr != nil {
		return fmt.Sprintf("OutputHash: %v", hashErr)
	}
	if spec.measure == lucidscript.IntentModel {
		if r.IntentValue > spec.tau+1e-9 {
			return fmt.Sprintf("model accuracy change %v exceeds τ %v", r.IntentValue, spec.tau)
		}
	} else if r.IntentValue < spec.tau-1e-9 {
		return fmt.Sprintf("Jaccard %v below τ %v", r.IntentValue, spec.tau)
	}
	if r.REAfter > r.REBefore+1e-9 {
		return fmt.Sprintf("RE rose from %v to %v", r.REBefore, r.REAfter)
	}
	return ""
}

func addTimings(dst *lucidscript.Timings, t lucidscript.Timings) {
	dst.GetSteps += t.GetSteps
	dst.GetTopKBeams += t.GetTopKBeams
	dst.CheckIfExecutes += t.CheckIfExecutes
	dst.VerifyConstraints += t.VerifyConstraints
	dst.Total += t.Total
}

func outputsDigest(outs []jobOut) string {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintf(h, "%d:%s\n%s\n", len(o.script), o.script, o.hash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runBatch(spec batchSpec, cfg config) (*result, error) {
	res := newResult()
	var comps []*competition
	for _, name := range spec.comps {
		c, err := generate(name, spec.rowScale, cfg.dir)
		if err != nil {
			return nil, err
		}
		comps = append(comps, c)
		res.note("%s: %d rows, %d scripts", c.Name, c.MainRow, len(c.Corpus))
	}

	heap := startHeapSampler()
	var setups []float64
	var systems []*batchSystem
	for i := 0; i < setupReps; i++ {
		systems = nil // let the previous set-up's frames go before timing the next
		runtime.GC()
		t0 := time.Now()
		s, _, err := spec.setup(comps, cfg.seed, nil, -1, nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		systems = s
	}
	passes := max(1, int(cfg.seconds/time.Second)/spec.passSeconds)
	plain := spec.runWindow(systems, passes, nil, res, nil)
	res.outputsSHA = outputsDigest(plain.outputs)
	jobsPerS := float64(plain.jobs) / plain.elapsed.Seconds()
	p95, pct, n := tail(plain.jobMS, 95)
	res.e2e["setup_s"] = median(setups)
	res.e2e["jobs_per_s"] = jobsPerS
	res.e2e["job_ms_p50"] = median(plain.jobMS)
	res.e2e["job_ms_tail"] = p95
	res.e2e["improvement_pct_mean"] = mean(plain.imp)
	res.note("untraced window: %d passes, %d jobs in %.2fs; job_ms_tail is p%g of %d samples", plain.passes, plain.jobs, plain.elapsed.Seconds(), pct, n)
	if !cfg.trace {
		res.e2e["heap_peak_mb"] = heap.peakMB()
		return res, nil
	}

	// The traced run: fresh Systems with the program's own hooks installed
	// (Options.Tracer and Options.Metrics), spans around every call into a
	// layer, and the same window length.
	systems = nil
	runtime.GC()
	rec := newRecorder()
	events := &eventSums{}
	m := lucidscript.NewMetrics()
	setupSpan := rec.begin("setup", -1, -1)
	traced, rows, err := spec.setup(comps, cfg.seed, rec, setupSpan, events, m)
	rec.end(setupSpan)
	if err != nil {
		return nil, err
	}
	before := readRuntime()
	tw := spec.runWindow(traced, passes, rec, res, plain.outputs)
	runtimeLayer(res, before, readRuntime(), tw.jobs)
	res.e2e["heap_peak_mb"] = heap.peakMB()
	res.layer["trace.overhead_pct"] = 100 * (jobsPerS - float64(tw.jobs)/tw.elapsed.Seconds()) / jobsPerS
	searchLayers(res, tw, events, m)
	res.layer["interp.output_hash_ms"] = ms(rec.total("interp.OutputHash")) / float64(tw.passes)
	readMS := ms(rec.total("frame.ReadCSVFile"))
	res.layer["frame.read_csv_ms"] = readMS
	res.layer["frame.read_csv_rows_per_s"] = float64(rows) / (readMS / 1000)
	res.layer["script.parse_ms"] = ms(rec.total("script.ParseScript"))
	res.note("traced window: %d passes, %d jobs in %.2fs; per-layer times are per pass", tw.passes, tw.jobs, tw.elapsed.Seconds())
	return res, writeSpans(cfg, rec)
}

// searchLayers derives the core, interp and intent metrics of a traced
// window from Result.Timings, the trace events and the Metrics counters,
// normalized to one pass.
func searchLayers(res *result, w *window, ev *eventSums, m *lucidscript.Metrics) {
	p := float64(w.passes)
	per := func(d time.Duration) float64 { return ms(d) / p }
	count := func(name string) float64 { return float64(m.Value(name)) / p }
	topKSelf := w.sum.GetTopKBeams - w.sum.CheckIfExecutes
	res.layer["core.total_ms"] = per(w.sum.Total)
	res.layer["core.get_steps_ms"] = per(w.sum.GetSteps)
	res.layer["core.top_k_self_ms"] = per(topKSelf)
	res.layer["core.check_ms"] = per(w.sum.CheckIfExecutes)
	res.layer["core.verify_ms"] = per(w.sum.VerifyConstraints)
	res.layer["core.curate_ms"] = ms(w.curate)
	admitted, pruned := count(lucidscript.MetricCandidatesAdmitted), count(lucidscript.MetricCandidatesPruned)
	res.layer["core.candidates_admitted"] = admitted
	res.layer["core.candidates_pruned"] = pruned
	res.layer["core.exec_checks"] = count(lucidscript.MetricExecChecks)
	res.layer["core.verifications"] = count(lucidscript.MetricVerifications)
	if admitted+pruned > 0 {
		res.layer["core.prune_ratio"] = pruned / (admitted + pruned)
	}
	hits, misses := count(lucidscript.MetricCacheHits), count(lucidscript.MetricCacheMisses)
	if hits+misses > 0 {
		res.layer["interp.cache_hit_ratio"] = hits / (hits + misses)
	}
	res.layer["interp.stmts_executed"] = count(lucidscript.MetricStatementsExecuted)
	res.layer["interp.stmts_skipped"] = count(lucidscript.MetricStatementsSkipped)
	res.layer["interp.cache_evictions"] = count(lucidscript.MetricCacheEvictions)
	res.layer["interp.exec_check_ms"] = per(ev.execCheck)
	res.layer["interp.exec_verify_ms"] = per(ev.execVerf)
	measureSelf := w.sum.VerifyConstraints - ev.execVerf
	res.layer["intent.measure_self_ms"] = per(measureSelf)
	if w.sum.Total > 0 {
		res.layer["core.rank_share_pct"] = 100 * float64(w.sum.GetSteps+topKSelf) / float64(w.sum.Total)
		res.layer["intent.measure_share_pct"] = 100 * float64(measureSelf) / float64(w.sum.Total)
	}
}
