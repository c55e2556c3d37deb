package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
	"lucidscript/internal/frame"
	"lucidscript/internal/intent"
	"lucidscript/internal/interp"
	"lucidscript/internal/obs"
	"lucidscript/internal/script"
)

// ErrInputScriptFails is returned when the user's input script itself does
// not execute against the input dataset.
var ErrInputScriptFails = errors.New("core: input script does not execute")

// Standardizer binds a curated search space to one search configuration,
// reusable across many input scripts. The curation artifacts themselves
// live in the CuratedCorpus, which several Standardizers (and the batch
// Engine) can share.
type Standardizer struct {
	Corpus *CuratedCorpus
	Config Config
}

// execSources returns the sources every candidate executes against, with
// MaxRows sampling applied once and memoized per (MaxRows, Seed).
func (st *Standardizer) execSources() map[string]*frame.Frame {
	return st.Corpus.ExecSources(st.Config.MaxRows, st.Config.Seed)
}

// newSession builds the execution-prefix cache for one standardization, or
// nil when Config.ExecCache is off.
func (st *Standardizer) newSession() *interp.SessionCache {
	return st.newSessionScaled(1)
}

// newSessionScaled builds a session cache with the node budget scaled for
// n concurrent searches. The configured (or default) size is tuned for one
// search; a batch sharing one trie across n jobs needs a bigger budget, or
// the jobs evict each other's hot prefixes and the cache thrashes. The
// factor is capped: every cached node pins an environment, so scaling by
// the full job count would trade eviction thrash for GC drag on big data.
func (st *Standardizer) newSessionScaled(n int) *interp.SessionCache {
	if !st.Config.ExecCache {
		return nil
	}
	size := st.Config.ExecCacheSize
	if size <= 0 {
		size = interp.DefaultCacheSize
	}
	const maxScale = 4
	if n > maxScale {
		n = maxScale
	}
	if n > 1 {
		size *= n
	}
	return interp.NewSessionCache(st.execSources(), st.interpOptions(), size)
}

// interpOptions is the one construction point for candidate-execution
// options, so the resource governor and fault hook reach every interpreter
// path (cached sessions, plain runs, early checks) identically.
func (st *Standardizer) interpOptions() interp.Options {
	return interp.Options{Seed: st.Config.Seed, Limits: st.Config.Limits, Faults: st.Config.Faults}
}

// runScript executes a candidate script through the shared session cache
// when one is active, else via a plain run against the pre-sampled sources.
// The context cancels at statement granularity.
func (st *Standardizer) runScript(ctx context.Context, sess interp.Session, s *script.Script) (*interp.Result, error) {
	if sess != nil {
		return sess.RunContext(ctx, s)
	}
	return interp.RunContext(ctx, s, st.execSources(), st.interpOptions())
}

// RunOutput executes a script against the corpus's full (unsampled)
// sources and returns its output table. It is how serving layers compute
// the real output — and its hash — of a standardized script: the search
// itself runs over MaxRows-sampled sources, but the table users consume is
// produced by the full data.
func (st *Standardizer) RunOutput(ctx context.Context, s *script.Script) (*frame.Frame, error) {
	res, err := interp.RunContext(ctx, s, st.Corpus.Sources, st.interpOptions())
	if err != nil {
		return nil, err
	}
	return res.Main, nil
}

// checkScript is runScript for the execution constraint only.
func (st *Standardizer) checkScript(ctx context.Context, sess interp.Session, s *script.Script) error {
	if sess != nil {
		return sess.CheckContext(ctx, s)
	}
	return interp.CheckExecutesContext(ctx, s, st.execSources(), st.interpOptions())
}

// New curates the search space from corpus scripts (offline phase): each is
// lemmatized and converted to its DAG, and the atom/edge vocabularies and
// corpus distribution are built. Curation degrades gracefully: a corpus
// script that fails to lemmatize is skipped and recorded in the corpus
// Diagnostics rather than aborting.
func New(corpus []*script.Script, sources map[string]*frame.Frame, cfg Config) *Standardizer {
	return FromCorpus(CurateWeightedFaults(corpus, nil, sources, cfg.Faults), cfg)
}

// FromCorpus binds an already-curated corpus to a configuration without
// re-curating — the entry point for callers that standardize against the
// same corpus under several configurations or from several goroutines.
func FromCorpus(cc *CuratedCorpus, cfg Config) *Standardizer {
	return &Standardizer{Corpus: cc, Config: cfg}
}

// Result reports one standardization run.
type Result struct {
	// Output is the standardized script ŝ_u (the input script when no
	// constraint-satisfying improvement was found).
	Output *script.Script
	// REBefore and REAfter are the relative entropies of input and output.
	REBefore, REAfter float64
	// ImprovementPct is the paper's % improvement metric.
	ImprovementPct float64
	// IntentValue is the measured user-intent value of the output (Δ_J or Δ_M).
	IntentValue float64
	// Applied lists the accepted transformation sequence.
	Applied []Transformation
	// ExecChecks counts interpreter runs performed.
	ExecChecks int
	// Timings is the per-phase runtime breakdown (Figure 7).
	Timings Timings
	// CacheStats reports the execution-prefix cache's effectiveness for the
	// whole StandardizeGrid call (zero when Config.ExecCache is off).
	CacheStats interp.CacheStats
	// Health reports the containment the run needed: candidates quarantined
	// for panics or budget exhaustion per phase, corpus scripts skipped
	// during curation, and whether verification degraded to sampled-tuple
	// mode. The zero value is a fully healthy run. Check-phase tallies are
	// call-wide (the grid shares one search); Verify tallies are per cell.
	Health Health
}

// Standardize runs Algorithm 1 on the input script.
func (st *Standardizer) Standardize(su *script.Script) (*Result, error) {
	return st.StandardizeContext(context.Background(), su)
}

// StandardizeContext is Standardize with cancellation: the context is
// checked between beam extensions and at statement granularity inside the
// interpreter, so a deadline aborts mid-candidate. On cancellation it
// returns ErrCanceled/ErrDeadlineExceeded together with a partial, non-nil
// Result (the best constraint-verified candidate found so far — the input
// script when verification had not begun) whose Timings and CacheStats
// describe the truncated run.
func (st *Standardizer) StandardizeContext(ctx context.Context, su *script.Script) (*Result, error) {
	grid, err := st.StandardizeGridContext(ctx, su, []int{st.Config.SeqLength}, []intent.Constraint{st.Config.Constraint})
	if grid == nil {
		return nil, err
	}
	return grid[0][0], err
}

// StandardizeGrid runs the beam search once to the largest requested
// sequence length and verifies its candidate archive under every (seq,
// constraint) combination, returning one Result per grid cell indexed as
// [seqIdx][constraintIdx].
//
// This is exact, not an approximation: the beam trajectory depends on
// neither the remaining transformation budget nor the intent constraint
// (which Algorithm 1 checks only in VerifyAllConstraints), so the candidate
// set reachable within s steps of a longer run equals the final candidate
// set of a seq=s run. The ablation and threshold sweeps of Figures 5, 6 and
// 9 use this to share one search across all cells.
func (st *Standardizer) StandardizeGrid(su *script.Script, seqs []int, constraints []intent.Constraint) ([][]*Result, error) {
	return st.StandardizeGridContext(context.Background(), su, seqs, constraints)
}

// StandardizeGridContext is StandardizeGrid with cancellation and tracing.
// The context is polled between beam extensions, between verification
// candidates, and before every interpreter statement, so a deadline aborts
// mid-candidate. On cancellation it returns both a non-nil grid — every
// cell verified against whatever archive the truncated search produced,
// falling back to the input script — and ErrCanceled/ErrDeadlineExceeded.
func (st *Standardizer) StandardizeGridContext(ctx context.Context, su *script.Script, seqs []int, constraints []intent.Constraint) ([][]*Result, error) {
	// One shared, mutex-guarded session cache serves every execution in
	// this call: early checks, parallel beam extensions, and the per-cell
	// verification runs all reuse each other's statement prefixes.
	var sess interp.Session
	if sc := st.newSession(); sc != nil {
		sess = sc
	}
	return st.standardizeGridSession(ctx, sess, su, seqs, constraints)
}

// standardizeGridSession is StandardizeGridContext against a caller-supplied
// execution session (nil = uncached runs). The batch engine passes per-job
// views of one shared SessionCache here, so jobs reuse each other's
// statement prefixes while each Result's CacheStats stay job-local.
func (st *Standardizer) standardizeGridSession(ctx context.Context, sess interp.Session, su *script.Script, seqs []int, constraints []intent.Constraint) ([][]*Result, error) {
	cfg := st.Config
	o := newObsState(ctx, cfg)
	start := o.start
	maxSeq := 0
	for _, s := range seqs {
		if s > maxSeq {
			maxSeq = s
		}
	}
	var searchTimings Timings
	searchTimings.CurateSearchSpace = st.Corpus.CurateTime
	var gs gridStats
	if o.enabled() {
		o.emit(obs.Event{Kind: obs.EvCurateDone, Phase: obs.PhaseCurate, N: st.Corpus.Vocab.NumScripts, Dur: st.Corpus.CurateTime})
		for _, d := range st.Corpus.Diagnostics {
			o.emit(obs.Event{Kind: obs.EvCurateSkipped, Phase: obs.PhaseCurate, N: d.Index, Err: d.Err.Error()})
		}
	}

	// Lemmatize the input and compute its baseline.
	g := dag.Build(su)
	orig := &candidate{lines: g.Lines, re: st.Corpus.Vocab.RELines(g.Lines)}
	if o.enabled() {
		o.emit(obs.Event{Kind: obs.EvSearchStart, Phase: obs.PhaseExtend, N: len(g.Lines)})
	}

	t0 := time.Now()
	origRun, err := st.runScript(o.ctxCheck, sess, g.Script)
	gs.execChecks++
	if err != nil {
		if cerr := ctxCause(ctx); cerr != nil {
			o.emit(obs.Event{Kind: obs.EvCanceled, Phase: obs.PhaseCheck, Err: cerr.Error()})
			return nil, cerr
		}
		// %w keeps the cause chain intact so callers can reach the failing
		// statement (*interp.StmtError) and the quarantine sentinels.
		return nil, fmt.Errorf("%w: %w", ErrInputScriptFails, err)
	}
	if origRun.Main == nil {
		return nil, fmt.Errorf("%w: script produces no dataset", ErrInputScriptFails)
	}
	orig.checked = true
	if o.enabled() {
		o.emit(obs.Event{Kind: obs.EvCandidateExecuted, Phase: obs.PhaseCheck, Detail: "input", Dur: time.Since(t0)})
	}

	// Beam loop: C starts as {s_u}; each iteration extends every candidate
	// by one transformation and keeps the top K (Algorithms 1–3). The
	// extension phase runs under the "extend" pprof label; early checks
	// switch to "check" around each interpreter run.
	counter := &extendStats{}
	beams := []*candidate{orig}
	archive := []*candidate{orig}
	globalSeen := map[string]bool{orig.key(): true}
	var searchErr error
	pprof.SetGoroutineLabels(o.ctxExtend)
	for step := 0; step < maxSeq && len(beams) > 0; step++ {
		if cerr := ctxCause(ctx); cerr != nil {
			searchErr = cerr
			o.emit(obs.Event{Kind: obs.EvCanceled, Phase: obs.PhaseExtend, Step: step + 1, Err: cerr.Error()})
			break
		}
		stepStart := time.Now()
		var next []*candidate
		if cfg.Workers > 1 && len(beams) > 1 {
			next = st.extendAllParallel(ctx, o, sess, beams, globalSeen, &searchTimings, counter)
		} else {
			seen := newSeenSet(globalSeen)
			for _, cand := range beams {
				next = st.extendOne(ctx, o, sess, next, cand, seen, &searchTimings, counter)
			}
		}
		for _, c := range next {
			globalSeen[c.key()] = true
		}
		// Every admitted candidate enters the verification archive, not just
		// the K that continue: with early checking they already executed,
		// and a one-step candidate with a cheap intent footprint may satisfy
		// a strict constraint that every deeper candidate violates.
		archive = append(archive, next...)
		beams = selectBeams(next, cfg.BeamSize)
		gs.beamsPruned += len(next) - len(beams)
		if o.enabled() {
			o.emit(obs.Event{Kind: obs.EvStepDone, Phase: obs.PhaseExtend, Step: step + 1, N: len(next), Dur: time.Since(stepStart)})
			o.emitCacheDelta(sess, step+1)
		}
	}
	pprof.SetGoroutineLabels(ctx)
	searchTimings.CheckIfExecutes = counter.CheckTime
	gs.execChecks += counter.ExecChecks
	gs.admitted += counter.Admitted
	gs.prunedChecks += counter.Pruned
	gs.health.Check = counter.Health
	gs.health.CurateSkipped = len(st.Corpus.Diagnostics)

	// VerifyAllConstraints per grid cell, sharing candidate outputs and
	// downstream-model accuracies across cells. A cancellation mid-search
	// still verifies the truncated archive (each cell falls back to the
	// input script the moment the context check inside verifyWith trips),
	// so the caller receives a usable partial grid alongside the error.
	pprof.SetGoroutineLabels(o.ctxVerify)
	cache := newVerifyCache(origRun.Main)
	searchChecks := gs.execChecks
	results := make([][]*Result, len(seqs))
	for si, seq := range seqs {
		results[si] = make([]*Result, len(constraints))
		var eligible []*candidate
		for _, c := range archive {
			if len(c.applied) <= seq {
				eligible = append(eligible, c)
			}
		}
		for ci, constraint := range constraints {
			res := &Result{REBefore: orig.re, Timings: searchTimings, ExecChecks: searchChecks}
			res.Health.Check = counter.Health
			res.Health.CurateSkipped = len(st.Corpus.Diagnostics)
			if o.enabled() {
				o.emit(obs.Event{Kind: obs.EvVerifyStart, Phase: obs.PhaseVerify, N: len(eligible)})
			}
			t2 := time.Now()
			best, examined := st.verifyWith(ctx, o, sess, eligible, orig, constraint, cache, res)
			gs.verified += examined
			gs.execChecks += res.ExecChecks - searchChecks
			gs.health.Verify.merge(res.Health.Verify)
			if res.Health.VerifyDegraded {
				gs.verifyDegraded++
			}
			res.Timings.VerifyConstraints = time.Since(t2)
			res.Output = dag.ToScript(best.lines)
			res.REAfter = best.re
			res.ImprovementPct = entropy.Improvement(res.REBefore, res.REAfter)
			res.Applied = best.applied
			res.Timings.Total = time.Since(start)
			results[si][ci] = res
			if o.enabled() {
				o.emit(obs.Event{Kind: obs.EvVerifyDone, Phase: obs.PhaseVerify, N: examined, Dur: res.Timings.VerifyConstraints})
			}
		}
	}
	pprof.SetGoroutineLabels(ctx)
	if searchErr == nil {
		if cerr := ctxCause(ctx); cerr != nil {
			searchErr = cerr
			o.emit(obs.Event{Kind: obs.EvCanceled, Phase: obs.PhaseVerify, Err: cerr.Error()})
		}
	}
	gs.canceled = searchErr != nil

	var cacheStats interp.CacheStats
	if sess != nil {
		// Every cell reports the whole call's cache effectiveness.
		cacheStats = sess.Stats()
		for _, row := range results {
			for _, res := range row {
				res.CacheStats = cacheStats
			}
		}
	}
	last := &Result{Timings: searchTimings}
	if len(seqs) > 0 && len(constraints) > 0 {
		last = results[len(seqs)-1][len(constraints)-1]
	}
	o.finalize(last, cacheStats, gs)
	if o.enabled() {
		o.emit(obs.Event{Kind: obs.EvSearchDone, Phase: obs.PhaseVerify, Dur: last.Timings.Total,
			Detail: fmt.Sprintf("improvement=%.1f%%", last.ImprovementPct)})
	}
	return results, searchErr
}

// extendStats accumulates the extension phase's accounting across beams
// (and, in the parallel path, across workers).
type extendStats struct {
	// CheckTime is the wall clock spent in early execution checks
	// (accumulated across workers, so it can exceed elapsed time).
	CheckTime time.Duration
	// ExecChecks counts interpreter runs.
	ExecChecks int
	// Admitted and Pruned count candidates that passed/failed admission.
	Admitted, Pruned int
	// Health tallies the subset of prunes that were quarantines: contained
	// panics and resource-budget trips.
	Health PhaseHealth
}

func less(a, b *candidate) bool {
	if a.re != b.re {
		return a.re < b.re
	}
	return a.key() < b.key()
}

// limitSteps bounds the ranked transformation list to the top `limit` adds
// while keeping every delete: deletes are few, and pruning them would
// starve the removal of out-of-the-ordinary blocks (Section 6.6) whose
// payoff needs several chained deletes.
func limitSteps(steps []Transformation, limit int) []Transformation {
	if limit <= 0 || len(steps) <= limit {
		return steps
	}
	out := make([]Transformation, 0, limit)
	adds := 0
	for _, s := range steps {
		if s.Type == TransformDelete {
			out = append(out, s)
			continue
		}
		if adds < limit {
			out = append(out, s)
			adds++
		}
	}
	return out
}

// selectBeams keeps the top K candidates, preserving lineage diversity:
// the best child of every parent survives first (so a slow-payoff path such
// as a chained delete is not evicted by a sibling lineage), then remaining
// slots fill by global RE order.
func selectBeams(next []*candidate, k int) []*candidate {
	if len(next) <= k {
		sort.Slice(next, func(i, j int) bool { return less(next[i], next[j]) })
		return next
	}
	sort.Slice(next, func(i, j int) bool { return less(next[i], next[j]) })
	var out []*candidate
	taken := map[*candidate]bool{}
	seenParent := map[*candidate]bool{}
	for _, c := range next {
		if len(out) >= k {
			break
		}
		if seenParent[c.parent] {
			continue
		}
		seenParent[c.parent] = true
		taken[c] = true
		out = append(out, c)
	}
	for _, c := range next {
		if len(out) >= k {
			break
		}
		if !taken[c] {
			taken[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// extendBeams is Algorithm 2 (GetTopKBeams): it walks the ranked
// transformations and admits a candidate when it would enter the current
// top-K, verifying the execution constraint first when early checking is on.
// extendOne runs GetSteps + (diverse) beam extension for one parent beam,
// appending admitted candidates to next.
func (st *Standardizer) extendOne(ctx context.Context, o *obsState, sess interp.Session, next []*candidate, cand *candidate, seen *seenSet, timings *Timings, counter *extendStats) []*candidate {
	cfg := st.Config
	before := len(next)
	t0 := time.Now()
	steps := getStepsOpt(cand, st.Corpus.Vocab, !cfg.DisableLookahead)
	timings.GetSteps += time.Since(t0)
	steps = limitSteps(steps, cfg.StepLimit)
	t1 := time.Now()
	if cfg.Diversity {
		clusters := clusterSteps(cand, steps, cfg.Clusters, st.Corpus.Vocab)
		per := cfg.BeamSize / cfg.Clusters
		if per < 1 {
			per = 1
		}
		for _, cl := range clusters {
			next = st.extendBeams(ctx, o, sess, next, cand, cl, per, seen, counter)
		}
	} else {
		next = st.extendBeams(ctx, o, sess, next, cand, steps, cfg.BeamSize, seen, counter)
	}
	timings.GetTopKBeams += time.Since(t1)
	if o.enabled() {
		o.emit(obs.Event{Kind: obs.EvBeamExtended, Phase: obs.PhaseExtend, N: len(next) - before, Dur: time.Since(t0)})
	}
	return next
}

// extendAllParallel extends every parent beam in its own goroutine
// (Section 6.5's proposed parallelism). Each worker dedups against the
// candidates admitted in earlier steps (the shared base set) plus its own
// local admissions; results merge in parent order with a final cross-beam
// dedup, so the outcome is deterministic for a fixed configuration.
func (st *Standardizer) extendAllParallel(ctx context.Context, o *obsState, sess interp.Session, beams []*candidate, globalSeen map[string]bool, timings *Timings, counter *extendStats) []*candidate {
	n := len(beams)
	results := make([][]*candidate, n)
	perTimings := make([]Timings, n)
	perCounter := make([]extendStats, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, st.Config.Workers)
	for i, cand := range beams {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, cand *candidate) {
			defer wg.Done()
			defer func() { <-sem }()
			pprof.SetGoroutineLabels(o.ctxExtend)
			seen := newSeenSet(globalSeen)
			results[i] = st.extendOne(ctx, o, sess, nil, cand, seen, &perTimings[i], &perCounter[i])
		}(i, cand)
	}
	wg.Wait()
	var next []*candidate
	merged := map[string]bool{}
	for i := 0; i < n; i++ {
		for _, c := range results[i] {
			key := c.key()
			if merged[key] {
				continue
			}
			merged[key] = true
			next = append(next, c)
		}
		// Wall-clock phases accumulate CPU time across workers; ExecChecks
		// sum exactly.
		timings.GetSteps += perTimings[i].GetSteps
		timings.GetTopKBeams += perTimings[i].GetTopKBeams
		counter.CheckTime += perCounter[i].CheckTime
		counter.ExecChecks += perCounter[i].ExecChecks
		counter.Admitted += perCounter[i].Admitted
		counter.Pruned += perCounter[i].Pruned
		counter.Health.merge(perCounter[i].Health)
	}
	return next
}

// seenSet is a two-level candidate de-duplication set: a shared read-only
// base plus a local overlay, so parallel beam extensions can each dedup
// against everything admitted in earlier steps without racing on one map.
type seenSet struct {
	base  map[string]bool
	local map[string]bool
}

func newSeenSet(base map[string]bool) *seenSet {
	return &seenSet{base: base, local: map[string]bool{}}
}

func (s *seenSet) has(key string) bool { return s.base[key] || s.local[key] }

func (s *seenSet) add(key string) { s.local[key] = true }

func (st *Standardizer) extendBeams(ctx context.Context, o *obsState, sess interp.Session, acc []*candidate, cand *candidate, steps []Transformation, k int, seen *seenSet, res *extendStats) []*candidate {
	admitted := 0
	for _, tr := range steps {
		if admitted >= k {
			break
		}
		// A canceled context makes every early check fail; stop examining
		// candidates instead of pruning the rest of the ranked list.
		if ctx.Err() != nil {
			break
		}
		nc := cand.apply(tr, st.Corpus.Vocab)
		key := nc.key()
		if seen.has(key) {
			continue
		}
		if st.Config.EarlyCheck {
			t0 := time.Now()
			pprof.SetGoroutineLabels(o.ctxCheck)
			err := st.checkScript(o.ctxCheck, sess, dag.ToScript(nc.lines))
			pprof.SetGoroutineLabels(o.ctxExtend)
			dur := time.Since(t0)
			res.CheckTime += dur
			res.ExecChecks++
			if err != nil {
				res.Pruned++
				if quarantined, panicked := classifyQuarantine(err); quarantined {
					res.Health.add(panicked)
					if o.enabled() && ctx.Err() == nil {
						o.emit(obs.Event{Kind: obs.EvCandidateQuarantined, Phase: obs.PhaseCheck,
							Detail: quarantineDetail(panicked), Dur: dur, Err: err.Error()})
					}
				} else if o.enabled() && ctx.Err() == nil {
					o.emit(obs.Event{Kind: obs.EvCandidatePruned, Phase: obs.PhaseCheck, Detail: tr.String(), Dur: dur, Err: err.Error()})
				}
				continue
			}
			nc.checked = true
			if o.enabled() {
				o.emit(obs.Event{Kind: obs.EvCandidateExecuted, Phase: obs.PhaseCheck, Detail: tr.String(), Dur: dur})
			}
		}
		seen.add(key)
		acc = append(acc, nc)
		admitted++
		res.Admitted++
	}
	return acc
}

// verifyCache shares candidate outputs and downstream-model accuracies
// across the grid cells of one StandardizeGrid call, so threshold sweeps
// pay for each execution and each model training exactly once.
type verifyCache struct {
	origOut *frame.Frame
	// out maps candidates to their output frame (nil = failed to execute).
	out map[*candidate]*frame.Frame
	// acc memoizes downstream accuracy per candidate and model config key.
	acc map[accKey]accVal
	// origAcc memoizes the original output's accuracy per model config key.
	origAcc map[string]accVal
}

type accKey struct {
	cand *candidate
	cfg  string
}

type accVal struct {
	acc float64
	err error
}

func newVerifyCache(origOut *frame.Frame) *verifyCache {
	return &verifyCache{
		origOut: origOut,
		out:     map[*candidate]*frame.Frame{},
		acc:     map[accKey]accVal{},
		origAcc: map[string]accVal{},
	}
}

// modelKey is a collision-free encoding of every ModelConfig field: %q
// guards separator characters inside the string fields, and the float is
// keyed by its exact bit pattern (formatting with %g can collide across
// distinct values, silently reusing a wrong cached accuracy).
func modelKey(m intent.ModelConfig) string {
	return fmt.Sprintf("%q/%d/%x/%q/%d",
		m.Target, m.Seed, math.Float64bits(m.TestFrac), m.Protected, m.Epochs)
}

// satisfied evaluates the constraint against a candidate's cached output,
// memoizing model accuracies so Δ_M checks across thresholds reduce to
// arithmetic after the first evaluation.
func (vc *verifyCache) satisfied(constraint intent.Constraint, cand *candidate, out *frame.Frame) (bool, float64, error) {
	if constraint.Measure != intent.MeasureModel {
		return constraint.Satisfied(vc.origOut, out)
	}
	key := modelKey(constraint.Model)
	ov, ok := vc.origAcc[key]
	if !ok {
		a, err := intent.ModelAccuracy(vc.origOut, constraint.Model)
		ov = accVal{acc: a, err: err}
		vc.origAcc[key] = ov
	}
	if ov.err != nil {
		return false, 0, ov.err
	}
	ck := accKey{cand: cand, cfg: key}
	cv, ok := vc.acc[ck]
	if !ok {
		a, err := intent.ModelAccuracy(out, constraint.Model)
		cv = accVal{acc: a, err: err}
		vc.acc[ck] = cv
	}
	if cv.err != nil {
		return false, 0, cv.err
	}
	var delta float64
	switch {
	case ov.acc == 0 && cv.acc == 0:
		delta = 0
	case ov.acc == 0:
		delta = 100
	default:
		delta = math.Abs(ov.acc-cv.acc) / ov.acc * 100
	}
	return delta <= constraint.Tau, delta, nil
}

// verifyWith implements VerifyAllConstraints: candidates are sorted by RE
// and the best executable, intent-preserving one wins; the original script
// is the fallback (improvement 0), matching the paper's guarantee that LS
// never worsens standardness. The context is polled per candidate, so a
// canceled verification falls back to the input promptly. Returns the
// winning candidate and how many candidates were examined.
func (st *Standardizer) verifyWith(ctx context.Context, o *obsState, sess interp.Session, archive []*candidate, orig *candidate, constraint intent.Constraint, cache *verifyCache, res *Result) (*candidate, int) {
	sorted := append([]*candidate(nil), archive...)
	sort.Slice(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
	checked := 0
	for _, cand := range sorted {
		if cand.re >= orig.re {
			break // no remaining candidate can improve
		}
		if st.Config.VerifyLimit > 0 && checked >= st.Config.VerifyLimit {
			break
		}
		if ctx.Err() != nil {
			break // canceled: fall back to the input without poisoning the cache
		}
		checked++
		out, cached := cache.out[cand]
		if !cached {
			t0 := time.Now()
			run, err := st.runScript(o.ctxVerify, sess, dag.ToScript(cand.lines))
			res.ExecChecks++
			if err != nil || run == nil || run.Main == nil {
				if ctx.Err() != nil {
					// A cancellation is not an execution failure: leave the
					// candidate un-cached so a later cell could still run it.
					break
				}
				if quarantined, panicked := classifyQuarantine(err); quarantined {
					res.Health.Verify.add(panicked)
					if o.enabled() {
						o.emit(obs.Event{Kind: obs.EvCandidateQuarantined, Phase: obs.PhaseVerify,
							Detail: quarantineDetail(panicked), Dur: time.Since(t0), Err: err.Error()})
					}
					// A budget trip (not a panic) earns a second chance in
					// sampled-tuple mode: the candidate may be fine on a
					// bounded sample even when the full run is too expensive.
					if !panicked {
						verdict, ok, val := st.verifyDegraded(ctx, o, cand, orig, constraint)
						if verdict {
							res.Health.VerifyDegraded = true
							if ok {
								res.IntentValue = val
								return cand, checked
							}
						}
					}
				}
				cache.out[cand] = nil
				continue
			}
			out = run.Main
			cache.out[cand] = out
			if o.enabled() {
				o.emit(obs.Event{Kind: obs.EvCandidateExecuted, Phase: obs.PhaseVerify, Detail: "verify", Dur: time.Since(t0)})
			}
		}
		if out == nil {
			continue
		}
		ok, val, err := cache.satisfied(constraint, cand, out)
		if err != nil || !ok {
			continue
		}
		res.IntentValue = val
		if o.enabled() {
			o.emit(obs.Event{Kind: obs.EvVerifyPass, Phase: obs.PhaseVerify, Detail: fmt.Sprintf("intent=%.3f", val)})
		}
		return cand, checked
	}
	res.IntentValue = identityIntent(constraint)
	return orig, checked
}

// degradedSampleRows bounds the inputs of a sampled-tuple verification.
const degradedSampleRows = 2000

// verifyDegraded is the sampled-tuple fallback for a candidate whose
// full-data verification run exceeded its resource budget: both the
// original script and the candidate re-run uncached against sources sampled
// down to degradedSampleRows, under the same governor, and the constraint
// is evaluated on the sampled outputs directly (no memoization — the
// sampled accuracies must not contaminate the full-data caches). Returns
// whether a verdict was produced at all (false when even the sampled runs
// fail), whether the constraint held, and the measured intent value.
func (st *Standardizer) verifyDegraded(ctx context.Context, o *obsState, cand, orig *candidate, constraint intent.Constraint) (verdict, ok bool, val float64) {
	srcs := interp.SampleSources(st.execSources(), degradedSampleRows, st.Config.Seed)
	opts := st.interpOptions()
	origRun, err := interp.RunContext(ctx, dag.ToScript(orig.lines), srcs, opts)
	if err != nil || origRun.Main == nil {
		return false, false, 0
	}
	candRun, err := interp.RunContext(ctx, dag.ToScript(cand.lines), srcs, opts)
	if err != nil || candRun.Main == nil {
		return false, false, 0
	}
	ok, val, err = constraint.Satisfied(origRun.Main, candRun.Main)
	if err != nil {
		return false, false, 0
	}
	if o.enabled() {
		o.emit(obs.Event{Kind: obs.EvVerifyDegraded, Phase: obs.PhaseVerify, N: degradedSampleRows,
			Detail: fmt.Sprintf("intent=%.3f ok=%v", val, ok)})
	}
	return true, ok, val
}

// identityIntent is the intent value of returning the input unchanged.
func identityIntent(c intent.Constraint) float64 {
	switch c.Measure {
	case intent.MeasureJaccard, intent.MeasureRowJaccard:
		return 1 // identical outputs are maximally similar
	default:
		return 0 // zero accuracy change / zero transport distance
	}
}
