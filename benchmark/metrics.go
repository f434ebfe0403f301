package main

// metric names one reported number and its unit. The two lists below
// are the catalogue BENCHMARK.json fixes; TestCatalogueMatchesManifest
// keeps them equal.
type metric struct{ name, unit string }

// endToEnd lists what a user of the served system sees. Every one is
// reported on every workload, always from the untraced run.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"lat_p50_us", "us"},
	{"ohr", "ratio"},
	{"cpu_us_per_req", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the single-layer metrics, named after the module they
// measure. Counts come from the METRICS deltas of the untraced run,
// times from the traced run. A metric that does not apply to a workload
// (cluster.* on a direct workload, core.fit_ms_* without a fit) reads 0.
var perLayer = []metric{
	{"server.wire_self_ns_p50", "ns"},
	{"server.wire_self_ns_p99", "ns"},
	{"server.flushes_per_kreq", "count"},
	{"server.bad_requests", "count"},
	{"server.read_errors", "count"},

	{"cache.op_self_ns_p50", "ns"},
	{"cache.op_self_ns_p99", "ns"},
	{"cache.admit_ns_p50", "ns"},
	{"cache.admit_ns_p99", "ns"},
	{"cache.evictions_per_admit", "ratio"},
	{"cache.admit_reject_frac", "ratio"},
	{"cache.reject_doorkeeper_frac", "ratio"},
	{"cache.reject_predicted_reuse_frac", "ratio"},
	{"cache.objects_end", "count"},

	{"sketch.cm_add_est_ns", "ns"},
	{"sketch.bloom_add_ns", "ns"},

	{"core.observe_ns_p50", "ns"},
	{"core.observe_ns_p99", "ns"},
	{"core.victim_ns_p50", "ns"},
	{"core.victim_ns_p99", "ns"},
	{"core.victims_per_kreq", "count"},
	{"core.fit_count", "count"},
	{"core.fit_ms_p50", "ms"},
	{"core.fit_ms_max", "ms"},
	{"core.fit_time_frac", "ratio"},
	{"core.model_evict_frac", "ratio"},
	{"core.predictions_per_eviction", "count"},
	{"core.score_cache_hit_frac", "ratio"},
	{"core.slo_overruns", "count"},
	{"core.guard_trips", "count"},
	{"core.health_transitions", "count"},
	{"core.health_end", "count"},
	{"core.rollbacks", "count"},

	{"nn.fit_epochs_mean", "count"},
	{"nn.fit_objects_mean", "count"},
	{"nn.fit_ms_per_epoch", "ms"},
	{"nn.predict_batch_ns_per_cand", "ns"},
	{"nn.predict_batch32_ns_per_cand", "ns"},
	{"nn.step_embed_ns", "ns"},

	{"cluster.hop_self_ns_p50", "ns"},
	{"cluster.hop_self_ns_p99", "ns"},
	{"cluster.ring_lookup_ns", "ns"},
	{"cluster.retries", "count"},
	{"cluster.failovers", "count"},
	{"cluster.hedges", "count"},
	{"cluster.replicated_sets", "count"},
	{"cluster.unroutable", "count"},
	{"cluster.node_failures", "count"},

	{"obs.hist_observe_ns", "ns"},
	{"trace.gen_s", "s"},

	{"lat_p99_us", "us"},
	{"bhr", "ratio"},
	{"loadgen.host_speed", "ratio"},
	{"loadgen.setup_wall_s", "s"},
	{"loadgen.with_fits_rps", "1/s"},
	{"loadgen.with_fits_cpu_us_per_req", "us"},
	{"loadgen.cpu_us_per_req", "us"},
	{"loadgen.lat_p999_us", "us"},
	{"loadgen.lat_max_ms", "ms"},
	{"loadgen.stall_count", "count"},
	{"loadgen.stall_ms_max", "ms"},
	{"tracing.overhead_frac", "ratio"},
}
