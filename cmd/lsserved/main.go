// Command lsserved runs the LucidScript standardization service: a
// long-lived HTTP server that hosts one curated System per named dataset
// and standardizes submitted scripts through bounded, admission-controlled
// job queues (see internal/serve and docs/API.md).
//
// Usage:
//
//	lsserved -addr :8080 -corpus scripts_dir -data diabetes.csv \
//	         [-measure jaccard|model] [-tau 0.9] [-target Outcome] \
//	         [-queue-depth 16] [-serve-workers 4] [-job-timeout 60s]
//
// Multiple datasets are hosted with repeatable -dataset specs, each
// curated independently at startup:
//
//	lsserved -addr :8080 \
//	    -dataset 'diabetes=corpus_dir,diabetes.csv' \
//	    -dataset 'sales=sales_corpus,sales.csv,regions.csv'
//
// Endpoints: POST /v1/jobs (idempotent via the Idempotency-Key header),
// GET /v1/jobs (cursor-paginated listing), GET /v1/jobs/{id},
// DELETE /v1/jobs/{id}, GET /healthz (liveness: always 200 while the
// process serves, including boot and drain), GET /readyz (readiness:
// retryable 503 while curating at boot or draining — what lsrouter's
// prober watches), GET /metrics (Prometheus text).
// Overload returns 429 with a Retry-After header. SIGTERM/SIGINT drains
// gracefully: in-flight jobs finish (up to -drain-timeout), queued jobs
// fail with a clean shutting-down code, then the listener closes.
//
// With -data-dir the server is durable: every job is recorded in a
// write-ahead log + snapshot under the directory, and a restart against
// the same path replays the history — finished jobs keep their results
// and output hashes, queued jobs are re-enqueued, and jobs that were
// mid-run are marked interrupted for clients to resubmit (kill -9
// included; see docs/API.md).
//
// With -registry-dir each dataset's curated corpus is persisted to a
// registry under <registry-dir>/<dataset>: the first boot curates from
// the -dataset corpus directory and publishes version 1; later boots
// warm-load the registry snapshot and skip curation entirely. Together
// with -admin-token this also enables hot-swapping: after lsstd (or any
// registry writer) publishes a new version, POST
// /v1/corpus/{dataset}/reload with "Authorization: Bearer <token>" swaps
// the dataset to the newest version without a restart — in-flight jobs
// finish on the version they started with.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"lucidscript"
	"lucidscript/internal/registry"
	"lucidscript/internal/serve"
)

type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		corpusDir    = flag.String("corpus", "", "corpus directory for the single-dataset shorthand (with -data)")
		measure      = flag.String("measure", "jaccard", "user-intent measure: jaccard or model")
		tau          = flag.Float64("tau", 0, "intent threshold (default 0.9 jaccard / 1% model)")
		target       = flag.String("target", "", "label column (required for -measure model)")
		seq          = flag.Int("seq", 0, "max transformations (default 16)")
		beam         = flag.Int("beam", 0, "beam size (default 3)")
		auto         = flag.Bool("auto", false, "derive seq/beam from corpus statistics (Table 2)")
		seed         = flag.Int64("seed", 1, "random seed")
		execCache    = flag.String("execcache", "on", "execution-prefix cache: on or off")
		maxCells     = flag.Int("max-cells", 0, "cap rows*cols of any value a candidate materializes (0 = governor off)")
		maxSteps     = flag.Int("max-steps", 0, "cap statements per candidate execution (0 = governor off)")
		searchWork   = flag.Int("workers", 0, "beam-search workers inside each job (default 1)")
		serveWorkers = flag.Int("serve-workers", 0, "concurrent jobs per dataset (default GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 0, "queued jobs per dataset before 429s (default 2x serve-workers)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job deadline (0 = none); jobs may lower it per request")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		jobRetention = flag.Duration("job-retention", 15*time.Minute, "how long finished job statuses stay pollable before eviction")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs before canceling them")
		dataDir      = flag.String("data-dir", "", "durable job-store directory; jobs survive restarts against the same path (empty = in-memory)")
		registryDir  = flag.String("registry-dir", "", "corpus-registry base directory; datasets persist curated state under <dir>/<name> and warm-boot from it (empty = curate every boot)")
		adminToken   = flag.String("admin-token", "", "bearer token for admin endpoints (corpus reload); empty disables them")
		snapEvery    = flag.Int("snapshot-every", 0, "WAL appends between job-store snapshots (default 512; needs -data-dir)")
		maxRows      = flag.Int("max-rows", 0, "row cap for search-time execution, full data still verifies (0 = off)")
		dataPaths    stringList
		datasetSpecs stringList
	)
	flag.Var(&dataPaths, "data", "CSV data file for the single-dataset shorthand (repeatable)")
	flag.Var(&datasetSpecs, "dataset", "hosted dataset spec: name=corpusDir,data.csv[,more.csv] (repeatable)")
	flag.Parse()

	if *corpusDir == "" && len(datasetSpecs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lsserved -addr :8080 (-corpus dir -data file.csv | -dataset 'name=dir,file.csv' ...)")
		os.Exit(2)
	}
	if *corpusDir != "" {
		if len(dataPaths) == 0 {
			fatal(errors.New("-corpus needs at least one -data file"))
		}
		name := strings.TrimSuffix(filepath.Base(dataPaths[0]), filepath.Ext(dataPaths[0]))
		datasetSpecs = append(datasetSpecs,
			fmt.Sprintf("%s=%s,%s", name, *corpusDir, strings.Join(dataPaths, ",")))
	}

	// Bind the listener before the expensive startup work (curation, WAL
	// replay) and serve the boot surface on it: GET /healthz answers 200
	// "booting", GET /readyz and the API answer retryable 503 not_ready.
	// A router's prober therefore sees a restarting replica as alive-but-
	// unready instead of dead, and flips it ready the instant the real
	// handler is swapped in below.
	var handler atomic.Value // http.Handler
	handler.Store(serve.BootHandler(*retryAfter))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "lsserved: listening on %s (booting)\n", *addr)

	metrics := lucidscript.NewMetrics()
	opts := lucidscript.Options{
		SeqLength:        *seq,
		BeamSize:         *beam,
		Measure:          lucidscript.IntentMeasure(*measure),
		Tau:              *tau,
		TargetColumn:     *target,
		Auto:             *auto,
		Seed:             *seed,
		Workers:          *searchWork,
		MaxRows:          *maxRows,
		DisableExecCache: *execCache == "off",
		Timeout:          *jobTimeout,
		Metrics:          metrics,
	}
	if *maxCells > 0 || *maxSteps > 0 {
		limits := lucidscript.DefaultExecLimits()
		if *maxCells > 0 {
			limits.MaxCells = *maxCells
		}
		if *maxSteps > 0 {
			limits.MaxSteps = *maxSteps
		}
		opts.ExecLimits = limits
	}

	systems := map[string]*lucidscript.System{}
	reloaders := map[string]serve.Reloader{}
	for _, spec := range datasetSpecs {
		name, sys, reload, err := buildDataset(spec, opts, *registryDir)
		if err != nil {
			fatal(err)
		}
		if _, dup := systems[name]; dup {
			fatal(fmt.Errorf("duplicate dataset name %q", name))
		}
		systems[name] = sys
		if reload != nil {
			reloaders[name] = reload
		}
		stats := sys.Stats()
		fmt.Fprintf(os.Stderr, "lsserved: dataset %q ready: %d scripts, %d unique edges (corpus v%d)\n",
			name, stats.Scripts, stats.UniqueEdges, sys.CorpusVersion())
	}

	srv, err := serve.NewServer(systems, serve.Config{
		Workers:       *serveWorkers,
		QueueDepth:    *queueDepth,
		RetryAfter:    *retryAfter,
		JobRetention:  *jobRetention,
		DataDir:       *dataDir,
		SnapshotEvery: *snapEvery,
		AdminToken:    *adminToken,
		Reloaders:     reloaders,
		Metrics:       metrics,
	})
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		rec := srv.Recovery()
		fmt.Fprintf(os.Stderr, "lsserved: durable store %s: recovered %d finished, requeued %d, interrupted %d\n",
			*dataDir, rec.Terminal, rec.Requeued, rec.Interrupted)
	}

	handler.Store(srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "lsserved: ready on %s (%d datasets)\n", *addr, len(systems))

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "lsserved: draining (in-flight jobs finish, queued jobs fail cleanly)...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "lsserved: drain timeout hit, in-flight jobs were canceled:", err)
	}
	// The job queues are drained; now close the listener, letting any
	// final status polls complete.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		fmt.Fprintln(os.Stderr, "lsserved: http shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "lsserved: bye")
}

// buildDataset parses one name=corpusDir,csv[,csv...] spec and builds its
// System. With a registry base directory the curated state persists under
// <base>/<name>: an initialized registry warm-boots (no curation), an
// empty one is created from the corpus directory and published as version
// 1. The returned reloader (nil without a registry) re-opens the registry
// at its newest published version for hot-swapping.
func buildDataset(spec string, opts lucidscript.Options, registryBase string) (string, *lucidscript.System, serve.Reloader, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", nil, nil, fmt.Errorf("bad -dataset %q: want name=corpusDir,data.csv[,more.csv]", spec)
	}
	parts := strings.Split(rest, ",")
	if len(parts) < 2 {
		return "", nil, nil, fmt.Errorf("bad -dataset %q: want name=corpusDir,data.csv[,more.csv]", spec)
	}
	sources := map[string]*lucidscript.Frame{}
	for _, p := range parts[1:] {
		f, err := lucidscript.ReadCSVFile(p)
		if err != nil {
			return "", nil, nil, fmt.Errorf("dataset %q: loading %s: %w", name, p, err)
		}
		sources[filepath.Base(p)] = f
	}

	if registryBase == "" {
		corpus, err := loadCorpus(parts[0])
		if err != nil {
			return "", nil, nil, fmt.Errorf("dataset %q: %w", name, err)
		}
		sys, err := lucidscript.NewSystem(corpus, sources, opts)
		if err != nil {
			return "", nil, nil, fmt.Errorf("dataset %q: %w", name, err)
		}
		return name, sys, nil, nil
	}

	regDir := filepath.Join(registryBase, name)
	// A boot never re-curates or publishes over an initialized registry:
	// it warm-loads, and reconciling is left to a registry writer.
	corpusDir := parts[0]
	if registry.IsInitialized(regDir) {
		corpusDir = ""
	}
	reg, rep, err := registry.Sync(regDir, corpusDir)
	if err != nil {
		return "", nil, nil, fmt.Errorf("dataset %q: registry %s: %w", name, regDir, err)
	}
	if rep.Created {
		fmt.Fprintf(os.Stderr, "lsserved: dataset %q curated %d scripts into registry %s (v%d)\n",
			name, reg.NumScripts(), regDir, reg.Version())
	} else {
		fmt.Fprintf(os.Stderr, "lsserved: dataset %q warm-booting from registry %s (v%d)\n",
			name, regDir, reg.Version())
	}
	sys, err := lucidscript.NewSystemFromRegistry(reg, sources, opts)
	if err != nil {
		return "", nil, nil, fmt.Errorf("dataset %q: %w", name, err)
	}
	reload := func() (*lucidscript.System, int64, error) {
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
	return name, sys, reload, nil
}

// loadCorpus parses the corpus directory's scripts for in-process
// curation; a script that does not parse fails the boot.
func loadCorpus(dir string) ([]*lucidscript.Script, error) {
	members, err := registry.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	corpus := make([]*lucidscript.Script, len(members))
	for i, m := range members {
		if corpus[i], err = lucidscript.ParseScript(m.Source); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", m.ID, err)
		}
	}
	return corpus, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsserved:", err)
	os.Exit(1)
}
