// Command perfbench is the repository's one performance benchmark. It
// generates seeded synthetic News input (internal/corpus), drives the
// engine only through the public calls Open, AddDocument, FlushBatch,
// Query, Delete, Document, Stats, CheckConsistency and Close (and, in the
// traced run, Tracer to read the engine's spans), checks every answer, and
// prints every metric by name with its unit. The last line of
// output is one JSON object: correct, attempted, failed and the metrics
// BENCHMARK.json lists.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//
// The script builds the benchmark (its own module, which imports the
// engine from the parent directory) into .bench_build/ and runs it. The
// engine receives only the generated texts; the seed is a flag. One
// process drives the load, with at most two client goroutines, and runs
// its Go code on one processor (GOMAXPROCS=1; see Metrics for why).
// Options the benchmark does not name keep their defaults: LiveSearch is
// off, and no Search* method or query-package evaluator is called, so the
// changes that remove them need no benchmark edit.
//
// # Workloads
//
// replay: the paper's Figure 3 pipeline. One goroutine adds one day of
// News at a time and flushes after each day, 73 days and about 10,000
// documents per pass, each pass into a fresh in-memory engine with the
// simulated disks, one shard, the raw codec and PolicyBalanced — the
// configuration TestSingleShardTraceMatchesCore pins. No query runs. The
// ingest and flush layers do nearly all the work, so a query-side change
// must predict no change here, and the simulated I/O counts repeat exactly
// for a seed.
//
// search: set-up builds the same corpus shape into a two-shard, hash-routed
// index on the file backend with KeepDocuments, deletes one document in
// fifty, reopens it so reads go through the real file store, and warms the
// block cache. Then one closed-loop client sends the query mix through
// Engine.Query. The query layers do all the work: parse, plan, tier merge,
// fetch, block cache, scoring, cross-shard merge and document-store
// verification. The long lists the mix reads span more blocks than the
// 2 × 4096-block cache holds, so the cache keeps evicting (the run prints
// the blocks read, hits, misses and evictions).
//
// live-mix: writes beside reads on an in-memory engine prebuilt with the
// first 36 days. A writer adds the following documents open-loop at 100 a
// second. Each document carries a unique marker word, and the writer
// queries it until the document is returned, which gives add-to-visible
// latency timed from when the add was due. The writer also deletes one
// earlier document every 20 adds and flushes every 100. A reader runs the
// search mix closed-loop. The pending tier is large and hot, flushes
// overlap queries, and adds contend with queries for the shard lock, so a
// gain for one side that costs the other shows here. The run reports how
// late the open-loop schedule ran (live.gen_lag_ms_max): a growing lag
// means the rate is over capacity.
//
// Every workload uses the index geometry internal/experiments calibrates
// for this corpus (buckets hold the infrequent words; about two thousand
// frequent words live in long lists of 400-byte blocks), so the long-list
// policy and the paper's three costs are exercised as in the paper.
//
// The query mix draws ranked bags of twenty words from one document (the
// paper's vector query), two- and three-term and/or/not queries, prefix
// truncations (a word minus its last letter, then "*") and quoted two-word
// phrases, in the order bag, bool, prefix, bool, phrase, bool. Half of the
// queries are boolean so that the median falls inside one class instead
// of where the prefix and boolean classes overlap thinly, where it moved
// by 10-25% between runs and seeds. A phrase's second word is selective (in
// at most 1% of documents): a phrase of two frequent words verifies
// thousands of candidates against their stored text while holding the
// shard's read lock — about 100 ms each at this scale — and with them in
// the mix every timing of search and live-mix moved by 30% between runs.
// That cost is real and left unmeasured here; a workload for unselective
// phrases can be added as its own benchmark change.
//
// # Metrics
//
// The untraced run (--trace 0) reports the end-to-end metrics. The result
// line carries seven that every workload measures; what the generic names
// stand for differs per workload, and the run also prints each under its
// specific name:
//
//	result line        replay                 search                 live-mix
//	setup_s            CPU time of input generation, plus any prebuilt index (median of 3
//	                   set-ups; the wall time is printed as setup_wall_s)
//	cpu_ms_p50         flush_cpu_ms_p50       query_cpu_ms_p50       reader_query_cpu_ms_p50
//	cpu_ms_tail        flush_cpu_ms_p90       query_cpu_ms_p99       reader_query_cpu_ms_p99
//	ops_per_cpu_s      ingest_docs_per_cpu_s  queries_per_cpu_s      reader_queries_per_cpu_s
//	io_blocks_per_op   write_blocks_per_doc   read_blocks_per_query  write_blocks_per_doc
//	space_utilization  Stats.Utilization at the end of the run
//	heap_peak_mb       the engine's live heap after a fixed amount of work: the end of each
//	                   replay pass; the end of set-up for search and live-mix
//
// The timings on the result line are CPU time: the process's CPU time
// (CLOCK_PROCESS_CPUTIME_ID, the garbage collector included) while one
// FlushBatch or Query ran, and operations per CPU-second of the timed calls
// (AddDocument and FlushBatch on replay, Query on search and the live-mix
// reader). The benchmark runs on a few virtual CPUs of a shared host. When
// the host is busy it takes the CPUs away for stretches (steal time, which
// the run prints as a share of the machine's CPU time), and every
// wall-clock timing grows with it: two sets of ten runs of the same code
// had search's query_ms_p99 and queries_per_s, and live-mix's
// visible_ms_p50, p99 and reader_queries_per_s, spread by 29-49% of their
// medians between the quartiles. The kernel charges a thread neither for
// steal nor for waiting for a CPU, so the CPU time of fixed work stays
// put: with two busy loops beside it on a 2-vCPU machine, search's
// queries_per_s fell by 30% and its queries_per_cpu_s by 2%. CPU time does
// not shield everything: in the same test replay's ingest_docs_per_cpu_s
// fell by 18%, against 41% for its ingest_docs_per_s, since work beside it
// still slows each instruction. Go's idle threads spin looking for work
// when more than one processor runs Go code, and that CPU time depends on
// the host's load (a search query's fell by a fifth with the busy loops
// running), so the benchmark sets GOMAXPROCS to 1. On live-mix the writer
// then also waits for the reader to give up the processor (the runtime
// preempts a goroutine within about 10 ms), which the printed wall-clock
// visible_ms_* include. The gated metrics therefore measure what the work
// costs, not how long a caller waits for it: a change that only adds
// parallelism, or that makes a caller wait on a lock without using CPU,
// does not move them. On live-mix a reader query's CPU time includes the
// writer's work that overlapped it, so cheaper adds and flushes show there
// too.
//
// What CPU time cannot remove is the host slowing memory-heavy work. On a
// 2-vCPU VM with steal near zero, the CPU time of one fixed replay pass
// moved between 1.6 and 2.1 s over five minutes while a fixed arithmetic
// loop stayed within 3%; a fixed loop of map inserts, sorting and random
// reads followed the pass only partly, so the benchmark does not scale
// its figures by such a reference. Ten runs of each workload on ten seeds
// spread by 0.05-0.23 of their medians between the quartiles (search's
// cpu_ms_p50 the most), and one seed's replay ops_per_cpu_s read 5,710
// and 4,920 a minute apart. A claimed gain therefore needs the paired runs
// described under Claiming a gain.
//
// Every run still prints the wall-clock timings by name — flush_ms_p50 and
// p90 and ingest_docs_per_s (replay); query_ms_p50 and p99 and
// queries_per_s (search); visible_ms_p50 and p99, reader_queries_per_s,
// the reader's query_ms_p50 and p99, and flush_ms_p50 and p90 (live-mix) —
// for paired comparisons on a quiet machine (see Claiming a gain). Their
// medians and rates are medians over repetitions within the run — replay
// passes, stretches of 500 search queries, one-second windows of the
// live-mix writer — so one slow stretch does not move them; the tail
// percentiles pool every sample. A timing is a median and a tail
// percentile with at least ten samples beyond it, printed with its sample
// count. The CPU medians and tails pool every operation, and
// ops_per_cpu_s divides all the operations by their total CPU time.
//
// The heap is read after a forced collection, less the benchmark's own heap
// measured before the engine opened. It is compared only after fixed work
// because of a program defect this benchmark found: the simulated disk
// array keeps an in-memory trace of every block operation
// (internal/disk.Array.Trace), also on the file backend, so the heap grows
// with every read and write — about 20 MB per 6 s of the search workload —
// and a timed phase's heap measures the machine's speed. search and
// live-mix print that growth as heap_end_mb. Bounding the trace is a
// program change left to its own issue.
//
// ops_failed_ratio is printed by every run; the result line carries it as
// failed over attempted.
//
// The traced run (--trace 1) reports the per-layer metrics. It makes one
// set-up, a layer replay, and then eight rounds of --seconds/8 that
// alternate untraced and traced (U T T U U T T U), each from a fresh
// start. Traced rounds turn on Options.Metrics and TraceBuffer, which
// switch on the spans the engine already records (flush.plan,
// flush.long_apply, flush.bucket_flush, flush.checkpoint, flush.release,
// query.route, query.fetch, query.score, query.merge), and record the
// benchmark's own span around every public call. Spans carry a name,
// start, end, parent and request id; they stay in memory and are written
// to .bench_build/perfbench/trace-<workload>-seed<n>.jsonl at the end. The
// run prints how each request's time divides among the layers (each
// instant goes to the deepest open span, so the layers add up to the
// end-to-end time) and how much no engine span covers.
// trace.overhead_pct compares the traced rounds' median wall-clock latency
// (flush_ms, query_ms or visible_ms) with the untraced rounds'. End-to-end
// numbers come only from the untraced run.
//
// The layer replay times lexer.Tokenize, lexer.TokenizePositions,
// vocab.GetOrAssign, query.ParseQuery and query.NewPlan on the workload's
// exact texts and query strings, outside the engine, for the layers the
// engine's spans do not cover. (replay sends no query; its replay uses
// the search mix drawn over the replay corpus.)
//
// Which end-to-end metric each layer metric should move, and where the
// prediction is no change:
//
//	layer      metrics                             should move                    no change on
//	engine     engine.add_us_p50/p99,              ingest_docs_per_s (replay);    search
//	           add_allocs_per_doc,                 visible_ms_*, heap_peak_mb
//	           add_bytes_per_doc,                  (live-mix)
//	           pending_postings_max, delete_us_p50*
//	lexer      lexer.tokenize_us_per_doc,          ingest_docs_per_s (replay);    search
//	           tokenize_positions_us_per_doc       visible_ms_p50 (live-mix)
//	vocab      vocab.assign_ns_per_word,           ingest_docs_per_s (replay)     search
//	           vocab.words
//	core flush flush.plan/long_apply/bucket_flush/ flush_ms_*, ingest_docs_per_s, search
//	           checkpoint/release_ms_p50,          write_blocks_per_doc (replay);
//	           flush.read/write_ops_per_batch,     visible_ms_p99 (live-mix)
//	           flush.evictions_per_batch
//	bucket     bucket.words,                       flush_ms_p90 (replay)          search
//	           bucket.max_load_factor
//	longlist   longlist.lists,                     read_blocks_per_query
//	           longlist.avg_reads_per_list         (search); space_utilization
//	                                               (replay)
//	disk       disk.read_ops, read_blocks,         write_blocks_per_doc (replay);
//	           write_ops, write_blocks             read_blocks_per_query,
//	                                               query_ms_p99 (search)
//	cache      cache.hit_rate, cache.evictions     query_ms_p50/p99 (search)      replay; and
//	                                                                              read_blocks_per_query,
//	                                                                              which counts hits too
//	query      query.parse_us_p50, plan_us_p50;    query_ms_* (search, live-mix); replay
//	           query.route/fetch/score/merge_      visible_ms_* (live-mix)
//	           ms_p50*; query.bag/bool/prefix/
//	           phrase_ms_p50*, results_per_query*
//	docstore   docstore.get_us_p50*                query.phrase_ms_p50, then      replay
//	                                               query_ms_p99 (search)
//	harness    live.gen_lag_ms_max*,               a growing lag means the
//	           trace.overhead_pct,                 live-mix rate is over capacity
//	           trace.unattributed_pct
//
// Metrics marked * are printed only by the workloads that exercise their
// layer (no query runs on replay, no document is deleted or fetched there,
// and only live-mix has an open-loop generator); the result line carries
// the others, which every workload measures. Counts are zero where a layer
// is idle, such as the cache on replay and disk writes on search.
//
// # Correctness checks
//
// Every operation counts as attempted, and as failed when the engine
// returns an error or a check fails; any failure makes the run exit
// non-zero with correct=false. Every added document must be found by its
// marker query, and a deleted one never returned. Boolean, prefix and
// phrase answers must be a subset of the oracle's answer — computed from
// the generated word sets — and as many as the result budget allows
// (exactly min(k, |oracle|) on a static index; between the documents
// settled before the query and those that may have become visible during
// it under live-mix). Every ranked result must contain a query word, and
// scores must not increase down the list. No check pins a score.
// CheckConsistency must pass after every set-up that builds an index and at
// the end of every replay pass and live-mix round. Document must return the
// added text, and nothing for a deleted document. The package's tests feed the checker planted wrong
// answers to show each check can fail.
//
// # Claiming a gain
//
// A change that claims a speed-up names beforehand the metric and
// workload it should move and the ones that should not move. Build the
// parent and the change, then run ten pairs on the same seed set,
// alternating which commit runs first. Claim the gain only if the change
// wins at least 9 of the 10 pairs and the medians differ by more than the
// parent's own spread (the distance between its quartiles). Every other
// metric on every workload must stay within its bound in BENCHMARK.json.
// Use the traced run to show where the saving appears. A count (blocks,
// operations) may back a claim only if it repeats exactly and the change
// did not redefine it.
//
// # No compressed codec yet
//
// No workload uses a compressed codec, because of a program defect found
// while sizing this benchmark. With corpus.DefaultConfig() (seed 1), adding
// each day and then calling FlushBatch on the simulated backend with the
// default PolicyBalanced fails: Codec "golomb" at day 30 ("longlist: word
// 1034 tail block at 0/233: postings: corrupt encoding: empty golomb
// block") and Codec "varint" at day 55 ("count 9877 exceeds 4094-byte
// buffer"). PolicyFastQuery and PolicyExtents fail the same way;
// PolicyFastUpdate, which never appends in place, passes. A codec workload
// is added as its own benchmark change once the engine is fixed.
package main
