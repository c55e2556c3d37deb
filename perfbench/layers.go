package main

// layerNames lists every per-layer metric a traced run prints, in print
// order; layerUnits gives each one's unit. A workload that does not
// exercise a layer reports it as zero (see README.md for which layers each
// workload exercises). Times and counts of the batch workloads are per
// pass over the workload's jobs; those of served-routed cover its whole
// load.
var layerNames = []string{
	"core.total_ms", "core.get_steps_ms", "core.top_k_self_ms", "core.check_ms", "core.verify_ms", "core.curate_ms",
	"core.candidates_admitted", "core.candidates_pruned", "core.exec_checks", "core.verifications", "core.prune_ratio",
	"core.rank_share_pct",
	"interp.cache_hit_ratio", "interp.stmts_executed", "interp.stmts_skipped", "interp.cache_evictions",
	"interp.exec_check_ms", "interp.exec_verify_ms", "interp.output_hash_ms",
	"intent.measure_self_ms", "intent.measure_share_pct",
	"frame.read_csv_ms", "frame.read_csv_rows_per_s", "script.parse_ms",
	"registry.create_ms", "registry.open_ms", "registry.snapshot_bytes", "registry.apply_ms",
	"serve.submit_ms_p50", "serve.replica_submit_ms_p50", "router.hop_ms_p50",
	"serve.search_ms_p50", "serve.search_ms_p95", "serve.wait_finalize_ms_p50", "serve.wait_finalize_ms_p95",
	"serve.polls_per_job", "serve.reload_ms", "serve.queue_depth_max", "serve.rejected", "store.data_dir_bytes_per_job",
	"served_ms_p50.r10", "served_ms_tail.r10", "served_ms_p50.r20", "served_ms_tail.r20",
	"served_ms_p50.r30", "served_ms_tail.r30", "served_ms_p50.r40", "served_ms_tail.r40", "served_max_rate",
	"runtime.alloc_mb_per_job", "runtime.gc_cpu_pct", "loadgen.late_ms_max", "trace.overhead_pct",
}

var layerUnits = func() map[string]string {
	u := map[string]string{}
	for _, n := range layerNames {
		u[n] = "ms"
	}
	for _, n := range []string{
		"core.candidates_admitted", "core.candidates_pruned", "core.exec_checks", "core.verifications",
		"interp.stmts_executed", "interp.stmts_skipped", "interp.cache_evictions",
		"serve.queue_depth_max", "serve.rejected",
	} {
		u[n] = "count"
	}
	for _, n := range []string{"core.prune_ratio", "interp.cache_hit_ratio"} {
		u[n] = "ratio"
	}
	for _, n := range []string{"core.rank_share_pct", "intent.measure_share_pct", "runtime.gc_cpu_pct", "trace.overhead_pct"} {
		u[n] = "%"
	}
	u["frame.read_csv_rows_per_s"] = "rows/s"
	u["registry.snapshot_bytes"] = "bytes"
	u["serve.polls_per_job"] = "polls/job"
	u["store.data_dir_bytes_per_job"] = "bytes/job"
	u["served_max_rate"] = "jobs/s"
	u["runtime.alloc_mb_per_job"] = "MB"
	return u
}()
