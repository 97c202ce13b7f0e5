package main

// metricDef is one metric of the result line, as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the untraced run's metrics. Every workload reports all of
// them; what the generic ones measure on each workload is set by its
// workloadDef (see the package documentation).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_ms_p50", "ms", "lower", 0.25},
	{"cpu_ms_tail", "ms", "lower", 0.25},
	{"ops_per_cpu_s", "1/s", "higher", 0.25},
	{"io_blocks_per_op", "blocks", "lower", 0.15},
	{"space_utilization", "ratio", "higher", 0.05},
	{"heap_peak_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's metrics: those every workload measures.
var perLayer = []metricDef{
	{Name: "engine.add_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.add_us_p99", Unit: "us", Better: "lower"},
	{Name: "engine.add_allocs_per_doc", Unit: "allocs", Better: "lower"},
	{Name: "engine.add_bytes_per_doc", Unit: "B", Better: "lower"},
	{Name: "engine.pending_postings_max", Unit: "count", Better: "lower"},
	{Name: "lexer.tokenize_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "lexer.tokenize_positions_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "vocab.assign_ns_per_word", Unit: "ns", Better: "lower"},
	{Name: "vocab.words", Unit: "count", Better: "lower"},
	{Name: "flush.plan_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "flush.long_apply_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "flush.bucket_flush_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "flush.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "flush.release_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "flush.read_ops_per_batch", Unit: "ops", Better: "lower"},
	{Name: "flush.write_ops_per_batch", Unit: "ops", Better: "lower"},
	{Name: "flush.evictions_per_batch", Unit: "count", Better: "lower"},
	{Name: "bucket.words", Unit: "count", Better: "higher"},
	{Name: "bucket.max_load_factor", Unit: "ratio", Better: "lower"},
	{Name: "longlist.lists", Unit: "count", Better: "lower"},
	{Name: "longlist.avg_reads_per_list", Unit: "reads", Better: "lower"},
	{Name: "disk.read_ops", Unit: "ops", Better: "lower"},
	{Name: "disk.read_blocks", Unit: "blocks", Better: "lower"},
	{Name: "disk.write_ops", Unit: "ops", Better: "lower"},
	{Name: "disk.write_blocks", Unit: "blocks", Better: "lower"},
	{Name: "cache.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "query.parse_us_p50", Unit: "us", Better: "lower"},
	{Name: "query.plan_us_p50", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower"},
}
