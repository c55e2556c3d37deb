package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lucidscript"
	"lucidscript/internal/corpusgen"
	"lucidscript/internal/registry"
	"lucidscript/internal/router"
	"lucidscript/internal/serve"
)

const (
	servedRowScale = 0.02
	// scaledPerComp is each dataset's curated corpus size: 4 × 2,500 =
	// 10,000 generated scripts in the registries.
	scaledPerComp = 2500
	// pollInterval is the clients' fixed status-poll cadence; it bounds
	// how finely a job's completion is seen.
	pollInterval = 10 * time.Millisecond
	servedTau    = 0.8
	adminToken   = "perfbench-admin"
	replicas     = 2
)

var (
	servedComps = []string{"House", "NLP", "Spaceship", "Medical"}
	// servedRates are the open-loop stages, in jobs/s. Each stage sends the
	// same number of jobs, so stage r lasts seconds·10/r: r10 runs for the
	// whole -seconds, r20 for half of it, and so on.
	servedRates = []int{10, 20, 30, 40}
	// gatedRates is how many of the first stages the end-to-end job
	// latency pools: r10 and r20, well below the ~40 jobs/s capacity of a
	// 2-vCPU machine. Nearer capacity the tail is set by which slow jobs
	// happen to queue together and moves by more than any bound from run
	// to run; the per-stage numbers and served_max_rate cover that range.
	gatedRates = 2
)

// servedInputs is everything generated for served-routed before any timed
// region: data files, the base scripts jobs are drawn from, each dataset's
// 2,500-script registry corpus and its churn.
type servedInputs struct {
	seed           int64 // the run seed: search sampling and job draws
	comps          []*competition
	members        map[string][]registry.Script
	adds, removals map[string][]registry.Script
}

func generateServed(seed int64, dir string) (*servedInputs, error) {
	in := &servedInputs{seed: seed, members: map[string][]registry.Script{}, adds: map[string][]registry.Script{}, removals: map[string][]registry.Script{}}
	churn := scaledPerComp / 200 // 0.5% removed + 0.5% added = 1% churn
	for _, name := range servedComps {
		c, err := generate(name, servedRowScale, dir)
		if err != nil {
			return nil, err
		}
		in.comps = append(in.comps, c)
		comp, err := corpusgen.Get(name)
		if err != nil {
			return nil, err
		}
		gs, err := comp.GenerateScaled(corpusgen.ScaleConfig{Seed: genSeed, NumScripts: scaledPerComp + churn})
		if err != nil {
			return nil, err
		}
		for i, g := range gs {
			s := registry.Script{ID: comp.ScaledID(i), Source: g.Script.Source()}
			if i < scaledPerComp {
				in.members[name] = append(in.members[name], s)
			} else {
				in.adds[name] = append(in.adds[name], s)
			}
		}
		for i := 0; i < churn; i++ {
			in.removals[name] = append(in.removals[name], in.members[name][(i*scaledPerComp)/churn])
		}
	}
	return in, nil
}

func servedOptions(seed int64, tracer lucidscript.Tracer, m *lucidscript.Metrics) lucidscript.Options {
	return lucidscript.Options{Tau: servedTau, Seed: seed, BatchWorkers: batchWorkers, Tracer: tracer, Metrics: m}
}

// cluster is one booted served-routed deployment: per-dataset registries,
// two durable replicas and the router in front of them, all over loopback
// HTTP in this process.
type cluster struct {
	in        *servedInputs
	regs      map[string]*registry.Registry
	sources   map[string]map[string]*lucidscript.Frame
	base      map[string][]*lucidscript.Script // parsed job scripts
	servers   []*serve.Server
	listeners []*httptest.Server
	admin     []*serve.Client
	rt        *router.Router
	front     *httptest.Server
	client    *serve.Client
	transport *http.Transport
	dataDirs  []string
	regDirs   []string
	rows      int
}

// boot brings a cluster up and returns once the router admits jobs.
func boot(in *servedInputs, dir string, rec *recorder, parent int, tracer lucidscript.Tracer, m *lucidscript.Metrics) (*cluster, error) {
	cl := &cluster{in: in, regs: map[string]*registry.Registry{}, sources: map[string]map[string]*lucidscript.Frame{}, base: map[string][]*lucidscript.Script{}}
	opts := servedOptions(in.seed, tracer, m)
	for _, c := range in.comps {
		l, err := c.load(rec, parent)
		if err != nil {
			return nil, err
		}
		cl.sources[c.Name], cl.base[c.Name] = l.Sources, l.Corpus
		cl.rows += l.Rows
		regDir := filepath.Join(dir, "registry", c.Name)
		sp := rec.begin("registry.Create", parent, -1)
		reg, err := registry.Create(regDir, in.members[c.Name])
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: creating registry: %w", c.Name, err)
		}
		cl.regs[c.Name] = reg
		cl.regDirs = append(cl.regDirs, regDir)
	}
	var cfg router.Config
	for i := 0; i < replicas; i++ {
		systems := map[string]*lucidscript.System{}
		reloaders := map[string]serve.Reloader{}
		for _, c := range in.comps {
			regDir := filepath.Join(dir, "registry", c.Name)
			sources := cl.sources[c.Name]
			sp := rec.begin("registry.Open", parent, -1)
			reg, err := registry.Open(regDir)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			sys, err := lucidscript.NewSystemFromRegistry(reg, sources, opts)
			if err != nil {
				return nil, err
			}
			systems[c.Name] = sys
			reloaders[c.Name] = func() (*lucidscript.System, int64, error) {
				r, err := registry.Open(regDir)
				if err != nil {
					return nil, 0, err
				}
				s, err := lucidscript.NewSystemFromRegistry(r, sources, opts)
				if err != nil {
					return nil, 0, err
				}
				return s, r.Version(), nil
			}
		}
		dataDir := filepath.Join(dir, fmt.Sprintf("data-r%d", i+1))
		sp := rec.begin("serve.NewServer", parent, -1)
		srv, err := serve.NewServer(systems, serve.Config{
			Workers:    1,
			QueueDepth: 64,
			DataDir:    dataDir,
			Metrics:    m,
			AdminToken: adminToken,
			Reloaders:  reloaders,
		})
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		hs := httptest.NewServer(timeSubmit(srv.Handler(), rec))
		cl.servers = append(cl.servers, srv)
		cl.listeners = append(cl.listeners, hs)
		cl.admin = append(cl.admin, serve.NewClient(hs.URL, hs.Client()))
		cl.dataDirs = append(cl.dataDirs, dataDir)
		cfg.Replicas = append(cfg.Replicas, router.Replica{Name: fmt.Sprintf("r%d", i+1), BaseURL: hs.URL})
	}
	cfg.Rise = 1
	rt, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	rt.ProbeAll(ctx)
	rt.Start(ctx)
	cl.rt = rt
	cl.front = httptest.NewServer(rt.Handler())
	// One client process with at most two connections, like the CPU count.
	cl.transport = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	cl.client = serve.NewClient(cl.front.URL, &http.Client{Transport: cl.transport, Timeout: time.Minute})
	if err := cl.client.Readyz(ctx); err != nil {
		cl.close()
		return nil, fmt.Errorf("router not ready after boot: %w", err)
	}
	return cl, nil
}

// timeSubmit wraps a replica's handler to time job submissions as the
// replica itself serves them (decode, WAL append, enqueue, encode). The
// span hangs under the client's submit span of the same job, found by the
// idempotency key the client sent, so the client span's self time is the
// router hop. Without a recorder the handler is returned unwrapped.
func timeSubmit(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		job := -1
		if _, err := fmt.Sscanf(r.Header.Get("Idempotency-Key"), "job-%d", &job); err != nil {
			job = -1
		}
		rec.add("serve.replica.submit", t0, t1, rec.find("serve.Submit", job), job)
	})
}

func (cl *cluster) close() {
	cl.front.Close()
	cl.rt.Stop()
	cl.transport.CloseIdleConnections()
	for i, hs := range cl.listeners {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := cl.servers[i].Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: replica r%d shutdown: %v\n", i+1, err)
		}
		cancel()
	}
}

// servedJob is one open-loop job and what the client saw of it.
type servedJob struct {
	ds        string
	idx       int // base script index within the dataset
	src       string
	stage     int
	due, sent time.Duration
	done      time.Duration
	polls     int
	st        *serve.JobStatus
	err       error
	rejected  bool
}

// loadRun is what one open-loop load observed.
type loadRun struct {
	jobs     []*servedJob
	stages   []step
	backlog  [][2]int // per stage: unfinished jobs at its start and end
	elapsed  time.Duration
	lateMax  time.Duration
	queueMax int
	reloadMS []float64
	applyMS  float64
	churnErr error
}

// planJobs draws the jobs of the given stages: round-robin over datasets,
// each dataset walking its base scripts in a seeded shuffle, reshuffled
// once all have been sent. Drawing without replacement keeps every
// script's share of the load equal, so the seed moves the order of the mix
// and not the mix itself, which the latency tail is sensitive to.
func planJobs(in *servedInputs, stages []step, seed int64) []*servedJob {
	due, stageOf := schedule(stages)
	rng := rand.New(rand.NewSource(seed))
	decks := make([][]int, len(in.comps))
	jobs := make([]*servedJob, len(due))
	for k := range due {
		d := k % len(in.comps)
		if len(decks[d]) == 0 {
			decks[d] = rng.Perm(len(in.comps[d].Corpus))
		}
		idx := decks[d][0]
		jobs[k] = &servedJob{ds: in.comps[d].Name, idx: idx, src: in.comps[d].Corpus[idx], stage: stageOf[k], due: due[k]}
		decks[d] = decks[d][1:]
	}
	return jobs
}

// runLoad sends the jobs on their schedule and polls each until it ends.
// When oracles is non-nil it also applies and publishes a 1% registry
// churn halfway through the second stage, reloads every replica, and adds
// the new version's oracle Systems to oracles.
func (cl *cluster) runLoad(stages []step, seed int64, oracles oracleSet, rec *recorder) *loadRun {
	jobs := planJobs(cl.in, stages, seed)
	lr := &loadRun{jobs: jobs, stages: stages, backlog: make([][2]int, len(stages))}
	ctx := context.Background()
	var sent, finished atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()

	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			depth := 0
			for _, a := range cl.admin {
				if h, err := a.Healthz(ctx); err == nil {
					depth += h.QueueDepth
				}
			}
			if depth > lr.queueMax {
				lr.queueMax = depth
			}
			select {
			case <-stopSampler:
				return
			case <-t.C:
			}
		}
	}()

	var churnWG sync.WaitGroup
	if oracles != nil && len(stages) > 1 {
		at := stages[0].Dur + stages[1].Dur/2
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			time.Sleep(time.Until(start.Add(at)))
			lr.churnErr = cl.churn(lr, oracles, rec)
		}()
	}

	var stageEnd time.Duration
	for i := range stages {
		stageEnd += stages[i].Dur
	}
	cur := -1
	for k, j := range jobs {
		time.Sleep(time.Until(start.Add(j.due)))
		if j.stage != cur {
			inflight := int(sent.Load() - finished.Load())
			if cur >= 0 {
				lr.backlog[cur][1] = inflight
			}
			cur = j.stage
			lr.backlog[cur][0] = inflight
		}
		j.sent = time.Since(start)
		if late := j.sent - j.due; late > lr.lateMax {
			lr.lateMax = late
		}
		sent.Add(1)
		wg.Add(1)
		go func(k int, j *servedJob) {
			defer wg.Done()
			defer finished.Add(1)
			cl.runJob(ctx, k, j, start, rec)
		}(k, j)
	}
	time.Sleep(time.Until(start.Add(stageEnd)))
	if cur >= 0 {
		lr.backlog[cur][1] = int(sent.Load() - finished.Load())
	}
	wg.Wait()
	lr.elapsed = time.Since(start)
	close(stopSampler)
	samplerWG.Wait()
	churnWG.Wait()
	return lr
}

// runJob submits one job through the router and polls it to the end.
func (cl *cluster) runJob(ctx context.Context, k int, j *servedJob, start time.Time, rec *recorder) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	sp := rec.begin("serve.Submit", -1, k)
	st, err := cl.client.SubmitIdempotent(ctx, j.ds, j.src, nil, fmt.Sprintf("job-%d", k))
	rec.end(sp)
	if err != nil {
		var ae *serve.APIError
		j.rejected = errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests
		j.err, j.done = err, time.Since(start)
		return
	}
	// The first poll comes after a fraction of the interval that differs
	// per job (a golden-ratio sequence), so completions are not all seen
	// on the same 10 ms grid: that grid would make the latency median
	// jump between grid lines from run to run.
	wait := time.Duration(math.Mod(float64(k)*0.6180339887, 1) * float64(pollInterval))
	for !serve.TerminalState(st.State) {
		time.Sleep(wait)
		wait = pollInterval
		sp := rec.begin("serve.Job", -1, k)
		st, err = cl.client.Job(ctx, st.ID)
		rec.end(sp)
		j.polls++
		if err != nil {
			j.err, j.done = err, time.Since(start)
			return
		}
	}
	j.st, j.done = st, time.Since(start)
}

// churn applies each dataset's 1% churn to its registry, publishes it,
// adds the new version's oracle System to oracles, and reloads every
// replica.
func (cl *cluster) churn(lr *loadRun, oracles oracleSet, rec *recorder) error {
	for _, c := range cl.in.comps {
		reg := cl.regs[c.Name]
		t0 := time.Now()
		sp := rec.begin("registry.Apply", -1, -1)
		err := reg.Apply(cl.in.adds[c.Name], cl.in.removals[c.Name])
		if err == nil {
			_, err = reg.Publish()
		}
		rec.end(sp)
		lr.applyMS += ms(time.Since(t0))
		if err != nil {
			return fmt.Errorf("%s: churn: %w", c.Name, err)
		}
		if err := oracles.add(cl, c.Name); err != nil {
			return err
		}
		for _, a := range cl.admin {
			t1 := time.Now()
			sp := rec.begin("serve.Reload", -1, -1)
			resp, err := a.ReloadCorpus(context.Background(), c.Name, adminToken)
			rec.end(sp)
			lr.reloadMS = append(lr.reloadMS, ms(time.Since(t1)))
			if err != nil {
				return fmt.Errorf("%s: reload: %w", c.Name, err)
			}
			if !resp.Changed {
				return fmt.Errorf("%s: reload did not swap the corpus", c.Name)
			}
		}
	}
	return nil
}

// oracleKey names one distinct served computation.
type oracleKey struct {
	ds      string
	idx     int
	version int64
}

// oracleSet holds the in-process Systems the served outputs are checked
// against, per dataset and registry version.
type oracleSet map[string]map[int64]*lucidscript.System

// add builds a System from the dataset's registry at its current version.
func (o oracleSet) add(cl *cluster, ds string) error {
	reg := cl.regs[ds]
	sys, err := lucidscript.NewSystemFromRegistry(reg, cl.sources[ds], servedOptions(cl.in.seed, nil, nil))
	if err != nil {
		return err
	}
	if o[ds] == nil {
		o[ds] = map[int64]*lucidscript.System{}
	}
	o[ds][reg.Version()] = sys
	return nil
}

// oracle standardizes every base script the loads drew, once per corpus
// version of its dataset, and returns each output with its hash.
func oracle(cl *cluster, oracles oracleSet, loads []*loadRun) (map[oracleKey]jobOut, error) {
	drawn := map[string]map[int]bool{}
	for _, lr := range loads {
		for _, j := range lr.jobs {
			if drawn[j.ds] == nil {
				drawn[j.ds] = map[int]bool{}
			}
			drawn[j.ds][j.idx] = true
		}
	}
	out := map[oracleKey]jobOut{}
	for ds, byVersion := range oracles {
		var idxs []int
		for idx := range drawn[ds] {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		scripts := make([]*lucidscript.Script, len(idxs))
		for i, idx := range idxs {
			scripts[i] = cl.base[ds][idx]
		}
		for v, sys := range byVersion {
			results, err := sys.StandardizeBatch(scripts)
			if err != nil {
				return nil, fmt.Errorf("oracle %s v%d: %w", ds, v, err)
			}
			for i, r := range results {
				hash, err := sys.OutputHash(r.Script)
				if err != nil {
					return nil, fmt.Errorf("oracle %s v%d: %w", ds, v, err)
				}
				out[oracleKey{ds, idxs[i], v}] = jobOut{script: r.Script.Source(), hash: hash}
			}
		}
	}
	return out, nil
}

// checkJobs compares every served job with the oracle and returns the
// latency (ms from due time) of each job, +Inf for a failed one.
func checkJobs(res *result, lr *loadRun, want map[oracleKey]jobOut) []float64 {
	lat := make([]float64, len(lr.jobs))
	for k, j := range lr.jobs {
		res.attempted++
		lat[k] = math.Inf(1)
		switch {
		case j.err != nil:
			res.fail("job %d (%s): %v", k, j.ds, j.err)
			continue
		case j.st.State != serve.StateDone || j.st.Result == nil:
			res.fail("job %d (%s): state %s %s", k, j.ds, j.st.State, j.st.Error)
			continue
		case j.st.Result.OutputHash == "":
			res.fail("job %d (%s): no output hash: %s", k, j.ds, j.st.Result.OutputHashError)
			continue
		}
		r := j.st.Result
		o, ok := want[oracleKey{j.ds, j.idx, j.st.CorpusVersion}]
		switch {
		case !ok:
			res.fail("job %d (%s): no oracle for corpus version %d", k, j.ds, j.st.CorpusVersion)
		case o.script != r.Script || o.hash != r.OutputHash:
			res.fail("job %d (%s v%d): output differs from the in-process oracle", k, j.ds, j.st.CorpusVersion)
		case r.IntentValue < servedTau-1e-9 || r.REAfter > r.REBefore+1e-9:
			res.fail("job %d (%s): intent %v or RE %v→%v out of bounds", k, j.ds, r.IntentValue, r.REBefore, r.REAfter)
		default:
			l, _ := openLoopTimes(j.due, j.sent, j.done)
			lat[k] = ms(l)
		}
	}
	return lat
}

func stagesFor(seconds time.Duration, rates []int) []step {
	var out []step
	for _, r := range rates {
		out = append(out, step{Rate: r, Dur: seconds * 10 / time.Duration(r)})
	}
	return out
}

func dirBytes(dirs []string) float64 {
	var n int64
	for _, d := range dirs {
		filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				if info, err := e.Info(); err == nil {
					n += info.Size()
				}
			}
			return nil
		})
	}
	return float64(n)
}

func runServed(cfg config) (*result, error) {
	res := newResult()
	in, err := generateServed(cfg.seed, cfg.dir)
	if err != nil {
		return nil, err
	}
	for _, c := range in.comps {
		res.note("%s: %d rows, %d base scripts, %d registry scripts", c.Name, c.MainRow, len(c.Corpus), len(in.members[c.Name]))
	}
	heap := startHeapSampler()
	// A boot takes about half a second, so five of them, not nine.
	reps := 5
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var cl *cluster
	for i := 0; i < reps; i++ {
		if cl != nil {
			cl.close()
			cl = nil
		}
		runtime.GC()
		t0 := time.Now()
		cl, err = boot(in, filepath.Join(cfg.dir, fmt.Sprintf("boot%d", i)), nil, -1, nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	oracles := oracleSet{}
	for _, c := range in.comps {
		if err := oracles.add(cl, c.Name); err != nil {
			cl.close()
			return nil, err
		}
	}

	if !cfg.trace {
		lr := cl.runLoad(stagesFor(cfg.seconds, servedRates), cfg.seed, oracles, nil)
		cl.close()
		if lr.churnErr != nil {
			res.fail("churn: %v", lr.churnErr)
		}
		want, err := oracle(cl, oracles, []*loadRun{lr})
		if err != nil {
			return nil, err
		}
		lat := checkJobs(res, lr, want)
		res.outputsSHA = oracleDigest(want)
		var gated, imp []float64
		ok := 0
		for k, j := range lr.jobs {
			if !math.IsInf(lat[k], 1) {
				ok++
				imp = append(imp, j.st.Result.ImprovementPct)
			}
			if j.stage < gatedRates {
				gated = append(gated, lat[k])
			}
		}
		tl, pct, n := tail(gated, 95)
		res.e2e["setup_s"] = median(setups)
		res.e2e["jobs_per_s"] = float64(ok) / lr.elapsed.Seconds()
		res.e2e["job_ms_p50"] = finite(median(gated))
		res.e2e["job_ms_tail"] = finite(tl)
		res.e2e["improvement_pct_mean"] = mean(imp)
		res.e2e["heap_peak_mb"] = heap.peakMB()
		res.note("load: %d jobs in %.2fs; job latency pools the first %d stages; job_ms_tail is p%g of %d samples", len(lr.jobs), lr.elapsed.Seconds(), gatedRates, pct, n)
		stageLayers(res, lr, lat)
		for _, r := range servedRates {
			res.note("stage r%d: p50 %.1f ms, tail %.1f ms, max rate so far %v", r, res.layer[fmt.Sprintf("served_ms_p50.r%d", r)], res.layer[fmt.Sprintf("served_ms_tail.r%d", r)], res.layer["served_max_rate"])
		}
		return res, nil
	}

	// Traced mode: an untraced r10 stage first, as the overhead baseline;
	// then a fresh cluster with the hooks installed runs the whole load.
	base := cl.runLoad(stagesFor(cfg.seconds, servedRates[:1]), cfg.seed, nil, nil)
	cl.close()
	rec := newRecorder()
	events := &eventSums{}
	m := lucidscript.NewMetrics()
	runtime.GC()
	bootSpan := rec.begin("setup", -1, -1)
	tcl, err := boot(in, filepath.Join(cfg.dir, "traced"), rec, bootSpan, events, m)
	rec.end(bootSpan)
	if err != nil {
		return nil, err
	}
	snapshotBytes := dirBytes(tcl.regDirs)
	rt0 := readRuntime()
	lr := tcl.runLoad(stagesFor(cfg.seconds, servedRates), cfg.seed, oracles, rec)
	runtimeLayer(res, rt0, readRuntime(), len(lr.jobs))
	tcl.close()
	heap.peakMB()
	if lr.churnErr != nil {
		res.fail("churn: %v", lr.churnErr)
	}
	want, err := oracle(tcl, oracles, []*loadRun{base, lr})
	if err != nil {
		return nil, err
	}
	baseLat := checkJobs(res, base, want)
	lat := checkJobs(res, lr, want)
	res.outputsSHA = oracleDigest(want)
	stageLayers(res, lr, lat)
	if b := median(baseLat); b > 0 {
		res.layer["trace.overhead_pct"] = 100 * (res.layer["served_ms_p50.r10"] - b) / b
	}
	servedLayers(res, tcl, lr, rec, events, m)
	res.layer["registry.snapshot_bytes"] = snapshotBytes
	res.layer["frame.read_csv_rows_per_s"] = float64(tcl.rows) / (res.layer["frame.read_csv_ms"] / 1000)
	return res, writeSpans(cfg, rec)
}

// stageLayers reports each stage's latency, the capacity rule's verdict
// and the generator's lateness.
func stageLayers(res *result, lr *loadRun, lat []float64) {
	outcomes := make([]stepOutcome, len(lr.stages))
	for i, st := range lr.stages {
		outcomes[i] = stepOutcome{Rate: st.Rate, BacklogStart: lr.backlog[i][0], BacklogEnd: lr.backlog[i][1]}
	}
	for k, j := range lr.jobs {
		outcomes[j.stage].LatenciesMS = append(outcomes[j.stage].LatenciesMS, lat[k])
	}
	for _, o := range outcomes {
		t, _, _ := tail(o.LatenciesMS, 95)
		res.layer[fmt.Sprintf("served_ms_p50.r%d", o.Rate)] = finite(median(o.LatenciesMS))
		res.layer[fmt.Sprintf("served_ms_tail.r%d", o.Rate)] = finite(t)
	}
	res.layer["served_max_rate"] = float64(maxRate(outcomes))
	res.layer["loadgen.late_ms_max"] = ms(lr.lateMax)
}

// finite maps the +Inf of a failed job to the largest float, which JSON
// can carry; a run with a failed job is reported incorrect anyway.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// servedLayers derives the per-layer metrics of a traced load.
func servedLayers(res *result, cl *cluster, lr *loadRun, rec *recorder, ev *eventSums, m *lucidscript.Metrics) {
	w := &window{passes: 1}
	var search, waitFin []float64
	polls, rejected := 0, 0
	for _, j := range lr.jobs {
		polls += j.polls
		if j.rejected {
			rejected++
		}
		if j.st == nil || j.st.Result == nil {
			continue
		}
		t := j.st.Result.Timings
		w.sum.GetSteps += msDur(t.StepsMS)
		w.sum.GetTopKBeams += msDur(t.TopKMS)
		w.sum.CheckIfExecutes += msDur(t.CheckMS)
		w.sum.VerifyConstraints += msDur(t.VerifyMS)
		w.sum.Total += msDur(t.TotalMS)
		w.curate = msDur(t.CurateMS)
		search = append(search, t.TotalMS)
		if j.st.FinishedAt != nil {
			waitFin = append(waitFin, ms(j.st.FinishedAt.Sub(j.st.SubmittedAt))-t.TotalMS)
		}
	}
	searchLayers(res, w, ev, m)
	res.layer["serve.submit_ms_p50"] = median(durMS(rec.durations("serve.Submit")))
	res.layer["serve.replica_submit_ms_p50"] = median(durMS(rec.durations("serve.replica.submit")))
	res.layer["router.hop_ms_p50"] = median(durMS(rec.selfDurations("serve.Submit")))
	s95, _, _ := tail(search, 95)
	w95, _, _ := tail(waitFin, 95)
	res.layer["serve.search_ms_p50"] = median(search)
	res.layer["serve.search_ms_p95"] = s95
	res.layer["serve.wait_finalize_ms_p50"] = median(waitFin)
	res.layer["serve.wait_finalize_ms_p95"] = w95
	res.layer["serve.polls_per_job"] = float64(polls) / float64(len(lr.jobs))
	res.layer["serve.reload_ms"] = median(lr.reloadMS)
	res.layer["serve.queue_depth_max"] = float64(lr.queueMax)
	res.layer["serve.rejected"] = float64(rejected)
	res.layer["store.data_dir_bytes_per_job"] = dirBytes(cl.dataDirs) / float64(len(lr.jobs))
	res.layer["registry.create_ms"] = ms(rec.total("registry.Create"))
	res.layer["registry.open_ms"] = ms(rec.total("registry.Open"))
	res.layer["registry.apply_ms"] = lr.applyMS
	res.layer["frame.read_csv_ms"] = ms(rec.total("frame.ReadCSVFile"))
	res.layer["script.parse_ms"] = ms(rec.total("script.ParseScript"))
}

func msDur(x float64) time.Duration { return time.Duration(x * 1e6) }

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func oracleDigest(want map[oracleKey]jobOut) string {
	keys := make([]oracleKey, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		x, y := keys[a], keys[b]
		if x.ds != y.ds {
			return x.ds < y.ds
		}
		if x.idx != y.idx {
			return x.idx < y.idx
		}
		return x.version < y.version
	})
	outs := make([]jobOut, len(keys))
	for i, k := range keys {
		outs[i] = want[k]
	}
	return outputsDigest(outs)
}
