package main

import (
	"fmt"
	"time"

	"dualindex"
)

// replay is the paper's Figure 3 pipeline through the engine: add one day
// of News, flush, repeat, on the configuration TestSingleShardTraceMatchesCore
// pins (in memory, simulated disks, one shard, raw codec, balanced policy).
// A round replays whole passes over the corpus, each into a fresh engine,
// until its time is up.
type replay struct {
	in   *inputs
	seed int64
	base uint64 // live heap before any engine opens
}

// setup generates the corpus; the measured passes build the index.
func (r *replay) setup(seed int64, _ *measurement, _ *tally) error {
	in, err := generate(seed, 0, false)
	if err != nil {
		return err
	}
	r.in, r.seed = in, seed
	r.base = liveHeap()
	return nil
}

func replayOptions(traced bool) dualindex.Options {
	pol := dualindex.PolicyBalanced
	return withTracing(withGeometry(dualindex.Options{
		Backend: dualindex.BackendSim,
		Shards:  1,
		Codec:   dualindex.CodecRaw,
		Policy:  &pol,
	}), traced)
}

func (r *replay) round(tr *tracer, d time.Duration, layers bool, m *measurement, t *tally) error {
	start := time.Now()
	for time.Since(start) < d {
		if err := r.pass(tr, layers, m, t); err != nil {
			return err
		}
	}
	return nil
}

// pass adds every day and flushes after each. Only the adds and flushes are
// timed; layer sampling (Stats, MemStats) and the closing consistency check
// run outside the timed stretch.
func (r *replay) pass(tr *tracer, layers bool, m *measurement, t *tally) error {
	eng, err := dualindex.Open(replayOptions(tr != nil))
	if err != nil {
		return err
	}
	defer eng.Close()
	var meter allocMeter
	var timed, cpu time.Duration
	first := len(m.opMs)
	for _, day := range r.in.days {
		if layers {
			meter.start()
		}
		t0, c0 := time.Now(), processCPU()
		for _, i := range day {
			a0 := time.Now()
			id := eng.AddDocument(r.in.docs[i].text)
			m.addUs = append(m.addUs, us(time.Since(a0)))
			tr.call("add", 0, a0)
			t.op(checkID(id, i))
		}
		timed += time.Since(t0)
		cpu += processCPU() - c0
		if layers {
			meter.stop(m, len(day))
			m.pendingMax = max(m.pendingMax, eng.Stats().PendingPostings)
		}
		f0, fc0 := time.Now(), processCPU()
		bs, err := eng.FlushBatch()
		fd, fc := time.Since(f0), processCPU()-fc0
		tr.call("flush", 0, f0)
		timed += fd
		cpu += fc
		t.op(err)
		m.opMs = append(m.opMs, ms(fd))
		m.opCPUMs = append(m.opCPUMs, ms(fc))
		m.flushes = append(m.flushes, bs)
	}
	m.elapsed += timed
	m.cpu += cpu
	m.done += len(r.in.docs)
	m.rep(m.opMs[first:], len(r.in.docs), timed)
	st := eng.Stats()
	m.diskDelta(dualindex.Stats{}, st)
	m.ioBlocks += st.WriteBlocks
	m.ioOps += len(r.in.docs)
	m.final = st
	m.heapPeak = max(m.heapPeak, engineHeap(r.base))
	t.op(eng.CheckConsistency())
	tr.importEngine(eng)
	return nil
}

func (r *replay) inputs() *inputs { return r.in }

// queries returns the search mix over the replay corpus. Replay sends no
// queries; the layer replay parses and plans these strings so the query
// layers' numbers exist for every workload's corpus.
func (r *replay) queries() []mixQuery { return r.in.makeMix(r.seed, mixSize, len(r.in.docs)) }

func (r *replay) sizes() string {
	return fmt.Sprintf("docs_per_pass=%d postings=%d days=%d", len(r.in.docs), r.in.postingCount(), len(r.in.days))
}

func (r *replay) close() error { return nil }
