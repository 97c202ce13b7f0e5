package main

import (
	"math"
	"runtime"
	"slices"
	"time"

	"dualindex"
)

// measurement collects the samples of one measured round.
type measurement struct {
	// End to end.
	opMs     []float64     // the workload's timed operation, in ms
	elapsed  time.Duration // wall time of the measured operations
	done     int           // throughput numerator: documents or queries
	ioBlocks int64         // blocks moved by the measured operations
	ioOps    int           // what ioBlocks is divided by
	heapPeak uint64        // highest engine heap after a fixed amount of work, bytes
	heapEnd  uint64        // engine heap at the end of a timed phase, bytes
	final    dualindex.Stats
	// A round is measured in repetitions: replay passes, or stretches of
	// the query sequence or the writer's schedule. The reported median
	// latency and throughput are medians over them, which keeps a slow
	// stretch of the machine from moving the result.
	repP50, repRate []float64
	// CPU time (see processCPU): opCPUMs holds each operation's in ms —
	// flushes on replay, queries on search and the live-mix reader's — and
	// cpu is the CPU time of the calls behind done.
	opCPUMs []float64
	cpu     time.Duration

	// Per layer.
	addUs      []float64
	allocs     uint64 // heap objects allocated by single-goroutine adds
	allocBytes uint64
	allocDocs  int
	pendingMax int64
	flushes    []dualindex.BatchStats
	flushMs    []float64 // live-mix's flushes (replay's are its opMs)
	deleteUs   []float64
	docGetUs   []float64
	queryMs    []float64 // live-mix's reader (search's queries are its opMs)
	classMs    map[string][]float64
	results    int
	queries    int
	genLagMs   float64
	disk       [4]int64 // read ops, read blocks, write ops, write blocks
}

func newMeasurement() *measurement {
	return &measurement{classMs: map[string][]float64{}}
}

// merge folds o into m.
func (m *measurement) merge(o *measurement) {
	m.opMs = append(m.opMs, o.opMs...)
	m.elapsed += o.elapsed
	m.done += o.done
	m.ioBlocks += o.ioBlocks
	m.ioOps += o.ioOps
	m.heapPeak = max(m.heapPeak, o.heapPeak)
	m.heapEnd = max(m.heapEnd, o.heapEnd)
	m.final = o.final
	m.repP50 = append(m.repP50, o.repP50...)
	m.repRate = append(m.repRate, o.repRate...)
	m.opCPUMs = append(m.opCPUMs, o.opCPUMs...)
	m.cpu += o.cpu
	m.addUs = append(m.addUs, o.addUs...)
	m.allocs += o.allocs
	m.allocBytes += o.allocBytes
	m.allocDocs += o.allocDocs
	m.pendingMax = max(m.pendingMax, o.pendingMax)
	m.flushes = append(m.flushes, o.flushes...)
	m.flushMs = append(m.flushMs, o.flushMs...)
	m.deleteUs = append(m.deleteUs, o.deleteUs...)
	m.docGetUs = append(m.docGetUs, o.docGetUs...)
	m.queryMs = append(m.queryMs, o.queryMs...)
	for c, v := range o.classMs {
		m.classMs[c] = append(m.classMs[c], v...)
	}
	m.results += o.results
	m.queries += o.queries
	m.genLagMs = max(m.genLagMs, o.genLagMs)
	for i := range m.disk {
		m.disk[i] += o.disk[i]
	}
}

// rep closes one repetition: the median of its latencies and its rate.
func (m *measurement) rep(lat []float64, done int, d time.Duration) {
	m.repP50 = append(m.repP50, median(lat))
	m.repRate = append(m.repRate, float64(done)/d.Seconds())
}

// diskDelta adds the I/O the engine did between two Stats snapshots.
func (m *measurement) diskDelta(before, after dualindex.Stats) {
	m.disk[0] += after.ReadOps - before.ReadOps
	m.disk[1] += after.ReadBlocks - before.ReadBlocks
	m.disk[2] += after.WriteOps - before.WriteOps
	m.disk[3] += after.WriteBlocks - before.WriteBlocks
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// engineHeap returns the live heap above base, the benchmark's own heap
// (inputs, query mix, oracle) measured before the engine opened. It runs
// at phase boundaries only, outside timed stretches; the collection also
// starts the next phase from the same garbage-collector state every time.
//
// The engine's heap is compared only after a fixed amount of work: its
// simulated-disk I/O trace keeps every block operation, so after a timed
// phase the heap grows with how much work the machine's speed allowed.
func engineHeap(base uint64) uint64 {
	if h := liveHeap(); h > base {
		return h - base
	}
	return 0
}

// allocMeter counts the heap allocations of a stretch of single-goroutine
// work through runtime.MemStats deltas.
type allocMeter struct{ ms runtime.MemStats }

func (a *allocMeter) start() { runtime.ReadMemStats(&a.ms) }

func (a *allocMeter) stop(m *measurement, docs int) {
	before := a.ms
	runtime.ReadMemStats(&a.ms)
	m.allocs += a.ms.Mallocs - before.Mallocs
	m.allocBytes += a.ms.TotalAlloc - before.TotalAlloc
	m.allocDocs += docs
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks, or NaN for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOK reports whether p is a percentile the sample supports: at least
// ten samples lie beyond it.
func tailOK(n int, p float64) bool { return float64(n)*(1-p) >= 10 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
