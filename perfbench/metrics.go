package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract; BENCHMARK.json at the repository root must
// carry the same names and units (metrics_test.go checks it).
type metricDef struct{ name, unit string }

// endToEnd is what a user of each workload waits for, reported by every
// untraced run. The "op" is the workload's main operation:
//
//	concretize — one cold serial solve (tail = p95); throughput is the
//	             parallel ConcretizeAll batch, in specs per second;
//	rollout    — one source core.Install on the farm (tail = p90);
//	             throughput is matrix configs carried through the whole
//	             pass (source install, push, binary install, splice, GC)
//	             per second of timed work;
//	daemon     — one client request (tail = p99.5; the median is the
//	             concretize requests'); throughput is requests per second
//	             across both clients.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer is what the traced run reports, for every workload. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"syntax.parse_us_p50", "us"},
	{"syntax.parses", "count"},

	{"concretize.solve_ms_p50", "ms"},
	{"concretize.solve_ms_p99", "ms"},
	{"concretize.batch_ms", "ms"},
	{"concretize.alloc_kb_per_solve", "KB"},
	{"concretize.allocs_per_solve", "count"},
	{"concretize.iterations_per_solve", "count"},
	{"concretize.backtracks", "count"},
	{"concretize.solved_nodes", "count"},
	{"concretize.memo_hit_ratio", "ratio"},

	{"build.build_ms_p50", "ms"},
	{"build.nodes_built", "count"},
	{"build.nodes_reused", "count"},
	{"build.virtual_s", "s"},
	{"build.wrapper_virtual_s", "s"},
	{"fetch.source_fetches", "count"},
	{"simfs.files_per_install", "count"},

	{"store.find_ms_p50", "ms"},
	{"store.index_lookups", "count"},
	{"store.index_lookup_us_total", "us"},
	{"store.index_inserts", "count"},
	{"store.index_saves", "count"},
	{"store.index_save_ms_total", "ms"},
	{"store.records", "count"},

	{"modules.generate_ms_per_install", "ms"},
	{"views.refresh_ms_p50", "ms"},

	{"buildcache.push_ms_p50", "ms"},
	{"buildcache.pushes", "count"},
	{"buildcache.archives_new", "count"},
	{"buildcache.push_useful_ratio", "ratio"},
	{"buildcache.backend_put_ms_total", "ms"},
	{"buildcache.backend_get_ms_total", "ms"},
	{"buildcache.bytes_put_mb", "MB"},
	{"buildcache.bytes_got_mb", "MB"},
	{"buildcache.hit_ratio", "ratio"},
	{"buildcache.fallbacks", "count"},

	{"lifecycle.sign_ms_total", "ms"},
	{"lifecycle.verify_ms_total", "ms"},
	{"lifecycle.verifies", "count"},
	{"lifecycle.gc_plan_ms", "ms"},
	{"lifecycle.gc_run_ms", "ms"},
	{"lifecycle.gc_records", "count"},
	{"lifecycle.gc_reclaim_ratio", "ratio"},

	{"splice.plan_ms_p50", "ms"},
	{"splice.run_ms_p50", "ms"},
	{"splice.cone_nodes", "count"},
	{"splice.from_archive_ratio", "ratio"},
	{"splice.virtual_s", "s"},

	{"service.concretize_p50_ms", "ms"},
	{"service.concretize_p99_ms", "ms"},
	{"service.install_p50_ms", "ms"},
	{"service.install_p99_ms", "ms"},
	{"service.blobs_p50_ms", "ms"},
	{"service.client_overhead_ms_p50", "ms"},
	{"service.concretize_hit_ratio", "ratio"},
	{"service.install_coalesced", "count"},
	{"service.source_builds", "count"},
	{"service.bytes_out_mb", "MB"},

	{"bench.trace_overhead_frac", "ratio"},
	{"bench.ops", "count"},
	{"bench.failed_frac", "ratio"},
}

// layerSet is one traced pass's per-layer values. Counts and totals are
// per pass; the run reports the median over its traced passes.
type layerSet map[string]float64

// medianLayers folds traced passes into one value per metric.
func medianLayers(passes []layerSet) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p[m.name])
		}
		out[m.name] = median(xs)
	}
	return out
}
