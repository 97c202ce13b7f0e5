package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dualindex"
)

// workload is one benchmark scenario. setup generates the inputs and builds
// whatever index the measured rounds start from; round measures for a
// duration, traced when tr is non-nil, and with layers set also samples the
// per-layer figures that cost time outside the timed calls.
type workload interface {
	setup(seed int64, m *measurement, t *tally) error
	round(tr *tracer, d time.Duration, layers bool, m *measurement, t *tally) error
	inputs() *inputs
	queries() []mixQuery
	sizes() string
	close() error
}

// workloadDef names a workload and what its generic end-to-end metrics
// stand for on it.
type workloadDef struct {
	name, why string
	make      func(work string) workload
	// op names the timed operation; tail is the percentile its tail
	// latency reports; rate names the operations per second.
	op   string
	tail float64
	rate string
	// cpuOp and cpuRate name what cpu_ms_p50, cpu_ms_tail and
	// ops_per_cpu_s measure, and io what io_blocks_per_op counts.
	cpuOp, cpuRate, io string
}

var workloads = []workloadDef{
	{
		name: "replay", why: "ingest and flush do all the work and no query runs, so a query-side change must leave it unchanged",
		make: func(string) workload { return &replay{} },
		op:   "flush_ms", tail: 0.90, rate: "ingest_docs_per_s",
		cpuOp: "flush_cpu_ms", cpuRate: "ingest_docs_per_cpu_s", io: "write_blocks_per_doc",
	},
	{
		name: "search", why: "the query layers do all the work through the real file store with a working set larger than the block cache",
		make: func(work string) workload { return &search{work: work} },
		op:   "query_ms", tail: 0.99, rate: "queries_per_s",
		cpuOp: "query_cpu_ms", cpuRate: "queries_per_cpu_s", io: "read_blocks_per_query",
	},
	{
		name: "live-mix", why: "open-loop adds, deletes and flushes beside a closed-loop reader, so a gain for one side that costs the other shows",
		make: func(string) workload { return &live{} },
		op:   "visible_ms", tail: 0.99, rate: "reader_queries_per_s",
		cpuOp: "reader_query_cpu_ms", cpuRate: "reader_queries_per_cpu_s", io: "write_blocks_per_doc",
	},
}

const (
	setupRuns  = 3  // set-ups per untraced run; setup_s is their median
	maxSeconds = 60 // longest --seconds accepted
	// tracedRounds alternate untraced and traced rounds in the order
	// U T T U U T T U, so drift during the run cancels out of the
	// comparison.
	tracedRounds = 8
	outDir       = ".bench_build/perfbench"
)

func main() {
	// One processor runs the Go code. The gated timings are CPU time (see
	// processCPU), and with more processors idle Go threads spin looking for
	// work, burning CPU time that depends on how busy the host is rather
	// than on the engine; one processor also leaves the machine's other
	// CPUs to the operating system.
	runtime.GOMAXPROCS(1)
	name := flag.String("workload", "", "workload to run: replay, search, live-mix or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()
	if *seconds < 1 || *seconds > maxSeconds || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need 1 <= --seconds <= %d and --trace 0 or 1\n", maxSeconds)
		os.Exit(2)
	}
	var defs []workloadDef
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	code := 0
	for _, def := range defs {
		res, err := run(def, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

// result is the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics a run printed; the result line takes the
// ones BENCHMARK.json lists from it.
type report map[string]value

// put prints one metric by name with its unit and records it.
func (r report) put(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	fmt.Printf("%-36s %14.6g %-8s %s\n", name, v, unit, note)
	r[name] = value{v, unit}
}

func run(def workloadDef, seed int64, d time.Duration, traced bool) (*result, error) {
	work := filepath.Join(outDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	w := def.make(work)
	defer w.close()
	t := &tally{}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", def.name, seed, d.Seconds(), traced)
	fmt.Printf("# env %s\n", environment())
	rep := report{}
	var err error
	if traced {
		err = runTraced(def, w, seed, d, t, rep)
	} else {
		err = runEndToEnd(def, w, seed, d, t, rep)
	}
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: map[string]value{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, md := range defs {
		v, ok := rep[md.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", md.Name)
		}
		res.Metrics[md.Name] = v
	}
	return res, nil
}

// runEndToEnd is the untraced run: setupRuns set-ups, then one measured
// round of d.
func runEndToEnd(def workloadDef, w workload, seed int64, d time.Duration, t *tally, rep report) error {
	m := newMeasurement()
	var setups, setupsWall []float64
	for range setupRuns {
		s0, c0 := time.Now(), processCPU()
		if err := w.setup(seed, m, t); err != nil {
			return err
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		setupsWall = append(setupsWall, time.Since(s0).Seconds())
	}
	m = newMeasurement()
	steal := startSteal()
	if err := w.round(nil, d, false, m, t); err != nil {
		return err
	}
	fmt.Printf("# sizes %s\n", w.sizes())
	fmt.Printf("# the host took %.1f%% of this machine's CPU time during the measured round (steal)\n", steal.pct())
	n := len(m.opMs)
	pct := fmt.Sprintf("_p%d", int(def.tail*100))
	if !tailOK(n, def.tail) {
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples for %s\n", n, def.op+pct)
	}
	rep.put("setup_s", "s", median(setups), fmt.Sprintf("CPU time, median of %d set-ups %.3f", len(setups), setups))
	rep.put("setup_wall_s", "s", median(setupsWall), fmt.Sprintf("wall time, median of %d set-ups %.3f", len(setupsWall), setupsWall))
	// Wall-clock timings: what a caller waits.
	reps := fmt.Sprintf("median over %d repetitions, n=%d", len(m.repP50), n)
	rep.put(def.op+"_p50", "ms", median(m.repP50), reps)
	rep.put(def.op+pct, "ms", quantile(m.opMs, def.tail), fmt.Sprintf("n=%d", n))
	rep.put(def.rate, "1/s", median(m.repRate), fmt.Sprintf("median over %d repetitions; %d in %.3fs", len(m.repRate), m.done, m.elapsed.Seconds()))
	// CPU timings: what the work costs, whatever else the host runs.
	nc := len(m.opCPUMs)
	rep.put(def.cpuOp+"_p50", "ms", median(m.opCPUMs), fmt.Sprintf("n=%d", nc))
	rep.put(def.cpuOp+pct, "ms", quantile(m.opCPUMs, def.tail), fmt.Sprintf("n=%d", nc))
	rep.put(def.cpuRate, "1/s", ratio(float64(m.done), m.cpu.Seconds()), fmt.Sprintf("%d in %.3f CPU-s", m.done, m.cpu.Seconds()))
	rep.put(def.io, "blocks", ratio(float64(m.ioBlocks), float64(m.ioOps)), fmt.Sprintf("%d blocks / %d", m.ioBlocks, m.ioOps))
	rep.put("space_utilization", "ratio", m.final.Utilization, "Stats.Utilization at the end")
	rep.put("heap_peak_mb", "MB", float64(m.heapPeak)/(1<<20), "engine's live heap after a fixed amount of work")
	if m.heapEnd > 0 {
		rep.put("heap_end_mb", "MB", float64(m.heapEnd)/(1<<20),
			fmt.Sprintf("after the timed phase; grows with its %d block operations, which the engine's disk I/O trace all keeps", m.disk[0]+m.disk[2]))
	}
	if def.name == "live-mix" {
		rep.put("query_ms_p50", "ms", median(m.queryMs), fmt.Sprintf("reader, n=%d", len(m.queryMs)))
		rep.put("query_ms_p99", "ms", quantile(m.queryMs, 0.99), fmt.Sprintf("reader, n=%d", len(m.queryMs)))
		rep.put("flush_ms_p50", "ms", median(m.flushMs), fmt.Sprintf("n=%d", len(m.flushMs)))
		if tailOK(len(m.flushMs), 0.9) {
			rep.put("flush_ms_p90", "ms", quantile(m.flushMs, 0.9), fmt.Sprintf("n=%d", len(m.flushMs)))
		}
	}
	attempted, failed := t.attempted.Load(), t.failed.Load()
	rep.put("ops_failed_ratio", "ratio", ratio(float64(failed), float64(attempted)), fmt.Sprintf("%d of %d", failed, attempted))

	// The result line's generic names for this workload's metrics.
	alias := map[string]string{
		"cpu_ms_p50":       def.cpuOp + "_p50",
		"cpu_ms_tail":      def.cpuOp + pct,
		"ops_per_cpu_s":    def.cpuRate,
		"io_blocks_per_op": def.io,
	}
	for generic, specific := range alias {
		rep[generic] = rep[specific]
	}
	return nil
}

// runTraced is the per-layer run: one set-up, the layer replay, then
// tracedRounds rounds alternating untraced and traced, each a fresh start
// of d/tracedRounds. Per-layer figures merge all rounds; the traced rounds'
// spans give self times and, against the untraced rounds, the tracing
// overhead.
func runTraced(def workloadDef, w workload, seed int64, d time.Duration, t *tally, rep report) error {
	m := newMeasurement()
	if err := w.setup(seed, m, t); err != nil {
		return err
	}
	fmt.Printf("# sizes %s\n", w.sizes())
	lt, err := replayLayers(w.inputs(), w.queries())
	if err != nil {
		return err
	}
	tr := newTracer()
	var ratios []float64
	var first []float64 // the samples of the pair's first round
	for i := range tracedRounds {
		on := (i+1)%4 >= 2 // U T T U ...
		rt := tr
		if !on {
			rt = nil
		}
		rm := newMeasurement()
		if err := w.round(rt, d/tracedRounds, true, rm, t); err != nil {
			return err
		}
		// Rounds time the same operations in the same order, so a pair is
		// compared over the prefix both rounds completed.
		if i%2 == 0 {
			first = rm.opMs
		} else {
			n := min(len(first), len(rm.opMs))
			r := median(rm.opMs[:n]) / median(first[:n])
			if !on {
				r = 1 / r
			}
			ratios = append(ratios, r)
		}
		m.merge(rm)
	}
	ambiguous := tr.link()
	layers, total, benchTime := tr.summary()

	// Engine layer.
	rep.put("engine.add_us_p50", "us", median(m.addUs), fmt.Sprintf("n=%d", len(m.addUs)))
	rep.put("engine.add_us_p99", "us", quantile(m.addUs, 0.99), fmt.Sprintf("n=%d", len(m.addUs)))
	rep.put("engine.add_allocs_per_doc", "allocs", ratio(float64(m.allocs), float64(m.allocDocs)), fmt.Sprintf("single-goroutine adds, %d docs", m.allocDocs))
	rep.put("engine.add_bytes_per_doc", "B", ratio(float64(m.allocBytes), float64(m.allocDocs)), "")
	rep.put("engine.pending_postings_max", "count", float64(m.pendingMax), "before a flush")
	// Lexer and vocabulary (layer replay).
	rep.put("lexer.tokenize_us_per_doc", "us", lt.tokenizeUs, "layer replay")
	rep.put("lexer.tokenize_positions_us_per_doc", "us", lt.positionsUs, "layer replay")
	rep.put("vocab.assign_ns_per_word", "ns", lt.assignNs, "layer replay")
	rep.put("vocab.words", "count", float64(m.final.Words), "Stats.Words")
	// Flush (core, bucket, longlist, directory).
	phase := func(f func(p dualindex.FlushPhases) time.Duration) float64 {
		var xs []float64
		for _, b := range m.flushes {
			xs = append(xs, ms(f(b.Phases)))
		}
		return median(xs)
	}
	nf := fmt.Sprintf("n=%d flushes", len(m.flushes))
	rep.put("flush.plan_ms_p50", "ms", phase(func(p dualindex.FlushPhases) time.Duration { return p.Plan }), nf)
	rep.put("flush.long_apply_ms_p50", "ms", phase(func(p dualindex.FlushPhases) time.Duration { return p.LongApply }), nf)
	rep.put("flush.bucket_flush_ms_p50", "ms", phase(func(p dualindex.FlushPhases) time.Duration { return p.BucketFlush }), nf)
	rep.put("flush.checkpoint_ms_p50", "ms", phase(func(p dualindex.FlushPhases) time.Duration { return p.Checkpoint }), nf)
	rep.put("flush.release_ms_p50", "ms", phase(func(p dualindex.FlushPhases) time.Duration { return p.Release }), nf)
	var rops, wops, ev float64
	for _, b := range m.flushes {
		rops += float64(b.ReadOps)
		wops += float64(b.WriteOps)
		ev += float64(b.Evictions)
	}
	nb := float64(len(m.flushes))
	rep.put("flush.read_ops_per_batch", "ops", ratio(rops, nb), nf)
	rep.put("flush.write_ops_per_batch", "ops", ratio(wops, nb), nf)
	rep.put("flush.evictions_per_batch", "count", ratio(ev, nb), nf)
	// Index state at the end.
	rep.put("bucket.words", "count", float64(m.final.BucketWords), "Stats")
	rep.put("bucket.max_load_factor", "ratio", m.final.MaxBucketLoadFactor, "Stats")
	rep.put("longlist.lists", "count", float64(m.final.LongLists), "Stats")
	rep.put("longlist.avg_reads_per_list", "reads", m.final.AvgReadsPerList, "Stats")
	rep.put("disk.read_ops", "ops", float64(m.disk[0]), "measured rounds")
	rep.put("disk.read_blocks", "blocks", float64(m.disk[1]), "measured rounds")
	rep.put("disk.write_ops", "ops", float64(m.disk[2]), "measured rounds")
	rep.put("disk.write_blocks", "blocks", float64(m.disk[3]), "measured rounds")
	rep.put("cache.hit_rate", "ratio", m.final.CacheHitRate, "Stats")
	rep.put("cache.evictions", "count", float64(m.final.CacheEvictions), "Stats")
	// Query front end (layer replay) and, where queries run, the engine's
	// query phases and the per-class latencies.
	rep.put("query.parse_us_p50", "us", median(lt.parseUs), fmt.Sprintf("layer replay, n=%d", len(lt.parseUs)))
	rep.put("query.plan_us_p50", "us", median(lt.planUs), fmt.Sprintf("layer replay, n=%d", len(lt.planUs)))
	for _, p := range []string{"route", "fetch", "score", "merge"} {
		if xs := tr.durations("query." + p); len(xs) > 0 {
			rep.put("query."+p+"_ms_p50", "ms", median(xs), fmt.Sprintf("traced, n=%d", len(xs)))
		}
	}
	for _, c := range queryClasses {
		if xs := m.classMs[c]; len(xs) > 0 {
			rep.put("query."+c+"_ms_p50", "ms", median(xs), fmt.Sprintf("n=%d p90=%.3f p99=%.3f max=%.3f", len(xs), quantile(xs, 0.9), quantile(xs, 0.99), quantile(xs, 1)))
		}
	}
	if m.queries > 0 {
		rep.put("query.results_per_query", "count", ratio(float64(m.results), float64(m.queries)), "")
	}
	if len(m.deleteUs) > 0 {
		rep.put("engine.delete_us_p50", "us", median(m.deleteUs), fmt.Sprintf("n=%d", len(m.deleteUs)))
	}
	if len(m.docGetUs) > 0 {
		rep.put("docstore.get_us_p50", "us", median(m.docGetUs), fmt.Sprintf("n=%d", len(m.docGetUs)))
	}
	if def.name == "live-mix" {
		rep.put("live.gen_lag_ms_max", "ms", m.genLagMs, "open-loop generator lateness")
	}
	// Tracing itself.
	rep.put("trace.overhead_pct", "%", (median(ratios)-1)*100,
		fmt.Sprintf("traced/untraced %s p50, median of %d round pairs", def.op, len(ratios)))
	rep.put("trace.unattributed_pct", "%", 100*ratio(float64(benchTime), float64(total)),
		"share of the traced requests' time no engine span covers")

	fmt.Printf("# layers over the traced rounds (%d spans, %d attributed ambiguously, %d engine events lost):\n", len(tr.spans), ambiguous, tr.lost)
	fmt.Printf("# self_ms sums span durations minus their children's cover (concurrent shard spans count each);\n")
	fmt.Printf("# time_ms gives each instant of a request to its deepest open span, so it sums to the end-to-end time\n")
	fmt.Printf("# %-24s %8s %10s %12s %12s %8s\n", "layer", "spans", "p50_ms", "self_ms", "time_ms", "share")
	var sum time.Duration
	for _, l := range layers {
		sum += l.Time
		fmt.Printf("# %-24s %8d %10.4f %12.3f %12.3f %7.2f%%\n", l.Name, l.Count, median(l.DurMs),
			ms(l.Self), ms(l.Time), 100*ratio(float64(l.Time), float64(total)))
	}
	fmt.Printf("# requests' end-to-end time %.3f ms; the layers' times sum to %.3f ms; %.3f ms (%.2f%%) is inside public calls with no engine span beneath\n",
		ms(total), ms(sum), ms(benchTime), 100*ratio(float64(benchTime), float64(total)))
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", def.name, seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}
