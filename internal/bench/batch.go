package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lucidscript/internal/core"
	"lucidscript/internal/intent"
)

// Batch measures the concurrent batch engine against the sequential
// baseline the paper's single-user workflow implies: N users each curating
// their own system and standardizing one script. The batch path curates
// once, shares the execution-prefix cache, and fans jobs across workers;
// outputs must stay byte-identical to the sequential runs. Each dataset
// (and the "all" aggregate) contributes sequential_ms and batch_ms ledger
// records.
func Batch(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	workers := opts.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	gc := newGenCache(opts)
	table := &Table{
		Title:  "Batch standardization vs sequential (one curation + shared cache vs per-job systems)",
		Header: []string{"dataset", "jobs", "workers", "seq", "batch", "speedup", "curate", "cache hits"},
	}
	// addRow renders one table row and emits its two ledger records.
	addRow := func(name string, jobs int, seqMS, batchMS, curateMS float64, cacheHits int64) {
		table.Rows = append(table.Rows, []string{
			name,
			fmt.Sprintf("%d", jobs),
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.0fms", seqMS),
			fmt.Sprintf("%.0fms", batchMS),
			fmt.Sprintf("%.2fx", seqMS/batchMS),
			fmt.Sprintf("%.0fms", curateMS),
			fmt.Sprintf("%d", cacheHits),
		})
		table.Records = append(table.Records,
			MSRecord("batch", name, "sequential_ms", seqMS),
			MSRecord("batch", name, "batch_ms", batchMS))
	}
	var totalJobs int
	var totalSeq, totalBatch, totalCurate float64
	var totalHits int64
	for _, name := range opts.Datasets {
		gen, err := gc.get(name)
		if err != nil {
			return nil, err
		}
		corpus := gen.ScriptsOnly()
		jobs := gen.Sample(opts.ScriptsPerDataset, opts.Seed+17)
		cfg := lsConfig(opts, intent.MeasureJaccard, 0.8, "")

		// The arms run interleaved (sequential rep, then batch rep) so
		// machine drift hits both equally, and the best rep per arm is
		// recorded so one scheduler hiccup does not decide the comparison.
		const reps = 5
		var seqDur, batchDur, curate time.Duration
		var cacheHits int64
		seqOut := make([]string, len(jobs))
		for r := 0; r < reps; r++ {
			// Sequential baseline: each job pays for its own curation,
			// exactly what N independent single-shot users would do.
			// Collect first so garbage from earlier arms/datasets cannot
			// charge its GC pause to this measurement.
			runtime.GC()
			seqStart := time.Now()
			for i, su := range jobs {
				std := core.New(corpus, gen.Sources, cfg)
				res, err := std.Standardize(su)
				if err != nil {
					return nil, fmt.Errorf("bench: %s sequential job %d: %w", name, i, err)
				}
				seqOut[i] = res.Output.Source()
			}
			if d := time.Since(seqStart); r == 0 || d < seqDur {
				seqDur = d
			}

			// Batch: one curation, one shared session cache, bounded pool.
			runtime.GC()
			batchStart := time.Now()
			std := core.New(corpus, gen.Sources, cfg)
			eng := core.NewEngine(std, workers, 0)
			results, errs := eng.StandardizeBatch(context.Background(), jobs)
			if d := time.Since(batchStart); r == 0 || d < batchDur {
				batchDur = d
			}
			curate = std.Corpus.CurateTime
			cacheHits = 0
			for i := range jobs {
				if errs[i] != nil {
					return nil, fmt.Errorf("bench: %s batch job %d: %w", name, i, errs[i])
				}
				if results[i].Output.Source() != seqOut[i] {
					return nil, fmt.Errorf("bench: %s batch output diverges from sequential", name)
				}
				cacheHits += results[i].CacheStats.Hits
			}
		}

		seqMS, batchMS, curateMS := ms(seqDur), ms(batchDur), ms(curate)
		addRow(name, len(jobs), seqMS, batchMS, curateMS, cacheHits)
		totalJobs += len(jobs)
		totalSeq += seqMS
		totalBatch += batchMS
		totalCurate += curateMS
		totalHits += cacheHits
		opts.logf("%s: %d jobs, sequential %s vs batch %s (%.2fx)",
			name, len(jobs), seqDur.Round(time.Millisecond), batchDur.Round(time.Millisecond), seqMS/batchMS)
	}
	// Aggregate row: the whole workload, batch vs sequential.
	if len(opts.Datasets) > 1 {
		addRow("all", totalJobs, totalSeq, totalBatch, totalCurate, totalHits)
	}
	return table, nil
}
