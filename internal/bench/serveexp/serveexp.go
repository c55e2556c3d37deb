// Package serveexp implements the benchmark experiments that drive the
// service: "serve" (the HTTP standardization service versus direct
// in-process batch calls on the same jobs), "route" (lsrouter in front of
// the service), and "regress" (the perf-ledger replay, which includes
// both). It lives outside internal/bench because it needs the facade package
// (lucidscript) and internal/serve, and bench itself is imported by the
// root package's tests — importing the facade from bench would be an import
// cycle. cmd/lsbench wires them in via bench.ServeRunner, RouteRunner, and
// RegressRunner.
package serveexp

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"lucidscript"
	"lucidscript/internal/bench"
	"lucidscript/internal/serve"
)

// Run measures what serving standardization over HTTP costs relative to
// calling the library directly. Each arm gets its own identically-built
// System with a long-lived job queue — curation paid outside the timed
// region and the execution-prefix cache persistent across reps, mirroring a
// long-lived deployment on both sides — so the comparison isolates the
// transport, marshalling, and polling overhead, not the search or cache
// warmth. Each dataset contributes direct_ms and served_ms ledger records.
func Run(opts bench.Options) (*bench.Table, error) {
	opts = opts.WithDefaults()
	workers := opts.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	table := &bench.Table{
		Title:  "HTTP service vs direct library calls (same jobs, one long-lived curated System per arm)",
		Header: []string{"dataset", "jobs", "workers", "direct", "served", "overhead", "per-job"},
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
		sysDirect, err := lucidscript.NewSystem(gen.ScriptsOnly(), gen.Sources, lsOpts)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		sysServed, err := lucidscript.NewSystem(gen.ScriptsOnly(), gen.Sources, lsOpts)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		directQueue := sysDirect.NewJobQueue(workers, len(jobs))
		// The served arm runs durable — every job rides through the
		// write-ahead log exactly as a production -data-dir deployment —
		// so the measured service tax includes the persistence cost and
		// the regression gate would catch a WAL slowdown.
		dataDir, err := os.MkdirTemp("", "lsbench-serve-*")
		if err != nil {
			return nil, err
		}
		srv, err := serve.NewServer(map[string]*lucidscript.System{name: sysServed},
			serve.Config{Workers: workers, QueueDepth: len(jobs), DataDir: dataDir})
		if err != nil {
			os.RemoveAll(dataDir)
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		hs := httptest.NewServer(srv.Handler())
		client := serve.NewClient(hs.URL, hs.Client())
		ctx := context.Background()

		// The arms run interleaved (direct rep, then served rep) so machine
		// drift hits both equally, and the best rep per arm is recorded so
		// one scheduler hiccup does not decide the comparison.
		const reps = 3
		var directDur, servedDur time.Duration
		directOut := make([]string, len(jobs))
		for r := 0; r < reps; r++ {
			runtime.GC()
			directStart := time.Now()
			handles := make([]*lucidscript.QueuedJob, len(jobs))
			for i, su := range jobs {
				h, err := directQueue.Submit(ctx, su)
				if err != nil {
					return nil, fmt.Errorf("bench: %s direct submit %d: %w", name, i, err)
				}
				handles[i] = h
			}
			for i, h := range handles {
				res, err := h.Wait(ctx)
				if err != nil {
					return nil, fmt.Errorf("bench: %s direct job %d: %w", name, i, err)
				}
				directOut[i] = res.Script.Source()
			}
			if d := time.Since(directStart); r == 0 || d < directDur {
				directDur = d
			}

			runtime.GC()
			servedStart := time.Now()
			ids := make([]string, len(jobs))
			for i, su := range jobs {
				st, err := client.Submit(ctx, name, su.Source(), nil)
				if err != nil {
					return nil, fmt.Errorf("bench: %s served submit %d: %w", name, i, err)
				}
				ids[i] = st.ID
			}
			for i, id := range ids {
				st, err := client.Wait(ctx, id, 2*time.Millisecond)
				if err != nil {
					return nil, fmt.Errorf("bench: %s served wait %d: %w", name, i, err)
				}
				if st.State != serve.StateDone {
					return nil, fmt.Errorf("bench: %s served job %d: state %s (%s)", name, i, st.State, st.Error)
				}
				if st.Result.Script != directOut[i] {
					return nil, fmt.Errorf("bench: %s served output diverges from direct for job %d", name, i)
				}
			}
			if d := time.Since(servedStart); r == 0 || d < servedDur {
				servedDur = d
			}
		}
		hs.Close()
		directQueue.Close()
		err = srv.Shutdown(ctx)
		os.RemoveAll(dataDir)
		if err != nil {
			return nil, fmt.Errorf("bench: %s shutdown: %w", name, err)
		}

		directMS, servedMS := float64(directDur.Microseconds())/1e3, float64(servedDur.Microseconds())/1e3
		overheadPct := 100 * (servedMS - directMS) / directMS
		table.Rows = append(table.Rows, []string{
			name,
			fmt.Sprintf("%d", len(jobs)),
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.0fms", directMS),
			fmt.Sprintf("%.0fms", servedMS),
			fmt.Sprintf("%.1f%%", overheadPct),
			fmt.Sprintf("%.2fms", (servedMS-directMS)/float64(len(jobs))),
		})
		table.Records = append(table.Records,
			bench.MSRecord("serve", name, "direct_ms", directMS),
			bench.MSRecord("serve", name, "served_ms", servedMS))
		opts.Logf("%s: %d jobs, direct %s vs served %s (+%.1f%%)",
			name, len(jobs), directDur.Round(time.Millisecond), servedDur.Round(time.Millisecond), overheadPct)
	}
	return table, nil
}
