package serveexp

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"lucidscript"
	"lucidscript/internal/bench"
	"lucidscript/internal/router"
	"lucidscript/internal/serve"
)

// routeReplicas is the fronted cluster size of the "route" experiment —
// the three-replica quickstart topology from the README.
const routeReplicas = 3

// Route measures what fronting the standardization service with lsrouter
// costs relative to addressing a single replica directly: the same jobs
// run through a serve.Server hit straight on (the "served" arm) and
// through a router.Router fronting routeReplicas identically-curated
// replicas (the "routed" arm). The gap is the routing tax — the extra
// proxy hop, the ring lookup, and the job-id namespacing. Each dataset
// contributes served_ms and routed_ms ledger records.
func Route(opts bench.Options) (*bench.Table, error) {
	opts = opts.WithDefaults()
	workers := opts.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	table := &bench.Table{
		Title:  fmt.Sprintf("lsrouter-fronted cluster (%d replicas) vs a single directly-addressed replica", routeReplicas),
		Header: []string{"dataset", "jobs", "replicas", "served", "routed", "overhead", "per-job"},
	}
	for _, name := range opts.Datasets {
		gen, err := opts.GenerateDataset(name)
		if err != nil {
			return nil, err
		}
		jobs := gen.Sample(opts.ScriptsPerDataset, opts.Seed+17)
		lsOpts := lucidscript.Options{
			Seed:             opts.Seed,
			SeqLength:        opts.SeqLength,
			BeamSize:         opts.BeamSize,
			Measure:          lucidscript.IntentMeasure("jaccard"),
			Tau:              0.8,
			DisableExecCache: opts.DisableExecCache,
			BatchWorkers:     workers,
		}
		newServer := func() (*serve.Server, *httptest.Server, error) {
			sys, err := lucidscript.NewSystem(gen.ScriptsOnly(), gen.Sources, lsOpts)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s: %w", name, err)
			}
			srv, err := serve.NewServer(map[string]*lucidscript.System{name: sys},
				serve.Config{Workers: workers, QueueDepth: len(jobs)})
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s: %w", name, err)
			}
			return srv, httptest.NewServer(srv.Handler()), nil
		}

		// The served arm: one replica, addressed directly.
		directSrv, directHS, err := newServer()
		if err != nil {
			return nil, err
		}
		directClient := serve.NewClient(directHS.URL, directHS.Client())

		// The routed arm: routeReplicas identical replicas behind a router.
		// Every replica hosts the dataset, the ring picks the owner — the
		// same topology lsrouter runs in production, minus the network.
		var replicaSrvs []*serve.Server
		var replicaHSs []*httptest.Server
		var cfg router.Config
		for i := 0; i < routeReplicas; i++ {
			srv, hs, err := newServer()
			if err != nil {
				return nil, err
			}
			replicaSrvs = append(replicaSrvs, srv)
			replicaHSs = append(replicaHSs, hs)
			cfg.Replicas = append(cfg.Replicas, router.Replica{
				Name: fmt.Sprintf("r%d", i+1), BaseURL: hs.URL,
			})
		}
		cfg.Rise, cfg.Fall = 1, 1
		rt, err := router.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		ctx := context.Background()
		rt.ProbeAll(ctx)
		routerHS := httptest.NewServer(rt.Handler())
		routedClient := serve.NewClient(routerHS.URL, routerHS.Client())

		runArm := func(client *serve.Client, out []string) (time.Duration, error) {
			runtime.GC()
			start := time.Now()
			ids := make([]string, len(jobs))
			for i, su := range jobs {
				st, err := client.Submit(ctx, name, su.Source(), nil)
				if err != nil {
					return 0, fmt.Errorf("bench: %s submit %d: %w", name, i, err)
				}
				ids[i] = st.ID
			}
			for i, id := range ids {
				st, err := client.Wait(ctx, id, 2*time.Millisecond)
				if err != nil {
					return 0, fmt.Errorf("bench: %s wait %d: %w", name, i, err)
				}
				if st.State != serve.StateDone {
					return 0, fmt.Errorf("bench: %s job %d: state %s (%s)", name, i, st.State, st.Error)
				}
				out[i] = st.Result.Script
			}
			return time.Since(start), nil
		}

		// Interleaved reps, best per arm — same protocol as the serve
		// experiment, so the two overhead numbers compose.
		const reps = 3
		var servedDur, routedDur time.Duration
		servedOut := make([]string, len(jobs))
		routedOut := make([]string, len(jobs))
		for r := 0; r < reps; r++ {
			d, err := runArm(directClient, servedOut)
			if err != nil {
				return nil, err
			}
			if r == 0 || d < servedDur {
				servedDur = d
			}
			d, err = runArm(routedClient, routedOut)
			if err != nil {
				return nil, err
			}
			if r == 0 || d < routedDur {
				routedDur = d
			}
		}
		identical := true
		for i := range servedOut {
			if servedOut[i] != routedOut[i] {
				identical = false
				break
			}
		}

		routerHS.Close()
		directHS.Close()
		if err := directSrv.Shutdown(ctx); err != nil {
			return nil, fmt.Errorf("bench: %s shutdown: %w", name, err)
		}
		for i, hs := range replicaHSs {
			hs.Close()
			if err := replicaSrvs[i].Shutdown(ctx); err != nil {
				return nil, fmt.Errorf("bench: %s replica shutdown: %w", name, err)
			}
		}
		if !identical {
			return nil, fmt.Errorf("bench: %s routed output diverges from single-replica", name)
		}

		servedMS, routedMS := float64(servedDur.Microseconds())/1e3, float64(routedDur.Microseconds())/1e3
		overheadPct := 100 * (routedMS - servedMS) / servedMS
		table.Rows = append(table.Rows, []string{
			name,
			fmt.Sprintf("%d", len(jobs)),
			fmt.Sprintf("%d", routeReplicas),
			fmt.Sprintf("%.0fms", servedMS),
			fmt.Sprintf("%.0fms", routedMS),
			fmt.Sprintf("%.1f%%", overheadPct),
			fmt.Sprintf("%.2fms", (routedMS-servedMS)/float64(len(jobs))),
		})
		table.Records = append(table.Records,
			bench.MSRecord("route", name, "served_ms", servedMS),
			bench.MSRecord("route", name, "routed_ms", routedMS))
		opts.Logf("%s: %d jobs, served %s vs routed %s (+%.1f%%)",
			name, len(jobs), servedDur.Round(time.Millisecond), routedDur.Round(time.Millisecond), overheadPct)
	}
	return table, nil
}
