package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dualindex"
)

const (
	// livePrebuiltDays are added and flushed at set-up, before the writer
	// starts; the writer adds the days after them.
	livePrebuiltDays = 36
	// liveRate is the writer's open-loop schedule, documents per second,
	// below what one writer beside one reader sustains (the run reports
	// how late the schedule ran).
	liveRate = 100
	// liveFlushEvery is the batch size: the writer flushes after this many
	// adds.
	liveFlushEvery = 100
	// liveDeleteEvery deletes one earlier document after this many adds.
	liveDeleteEvery = 20
)

// live runs writes beside reads on an in-memory engine prebuilt with the
// first livePrebuiltDays of the corpus. A writer adds the remaining
// documents at liveRate, queries each one's marker word until the document
// is found, deletes every liveDeleteEvery-th an earlier document and
// flushes every liveFlushEvery documents; a reader runs the search mix
// closed-loop. A round starts from a fresh prebuilt engine.
type live struct {
	in       *inputs
	mix      []mixQuery
	seed     int64
	prebuilt int    // documents in the prebuilt days
	base     uint64 // live heap before any engine opens
	heap     uint64 // engine heap after the prebuilt days
	eng      *dualindex.Engine
	traced   bool
}

func liveOptions(traced bool) dualindex.Options {
	return withTracing(withGeometry(dualindex.Options{KeepDocuments: true}), traced)
}

func (l *live) setup(seed int64, m *measurement, t *tally) error {
	if err := l.close(); err != nil {
		return err
	}
	// Enough days that the writer cannot run out within the run.
	days := livePrebuiltDays + int(math.Ceil(liveRate*maxSeconds*1.25/(corpusScale*500)))
	in, err := generate(seed, days, true)
	if err != nil {
		return err
	}
	l.in, l.seed = in, seed
	l.prebuilt = 0
	for _, day := range in.days[:livePrebuiltDays] {
		l.prebuilt += len(day)
	}
	// The mix draws from the prebuilt documents, the content the reader's
	// queries find from the start.
	l.mix = in.makeMix(seed, mixSize, l.prebuilt)
	l.base = liveHeap()
	return l.prebuild(false, m, t)
}

// prebuild opens a fresh engine and adds and flushes the prebuilt days.
func (l *live) prebuild(traced bool, m *measurement, t *tally) error {
	eng, err := dualindex.Open(liveOptions(traced))
	if err != nil {
		return err
	}
	var meter allocMeter
	for _, day := range l.in.days[:livePrebuiltDays] {
		meter.start()
		for _, i := range day {
			t.op(checkID(eng.AddDocument(l.in.docs[i].text), i))
		}
		meter.stop(m, len(day))
		_, err := eng.FlushBatch()
		t.op(err)
	}
	t.op(eng.CheckConsistency())
	l.heap = engineHeap(l.base)
	l.eng, l.traced = eng, traced
	return nil
}

// liveState orders the writer's actions against the reader's queries. Every
// add and delete takes sequence numbers from seq when it begins or returns,
// so a query bracketed by two loads of seq knows which documents it must
// and must not see.
type liveState struct {
	seq      atomic.Int64
	reads    atomic.Int64   // reader queries completed
	begun    atomic.Int64   // documents whose add has begun
	added    []atomic.Int64 // seq after the add returned; 0 = not yet
	delStart []atomic.Int64 // seq before the delete began
	delDone  []atomic.Int64 // seq after the delete returned
}

func newLiveState(docs, prebuilt int) *liveState {
	st := &liveState{
		added:    make([]atomic.Int64, docs),
		delStart: make([]atomic.Int64, docs),
		delDone:  make([]atomic.Int64, docs),
	}
	st.seq.Store(1)
	st.begun.Store(int64(prebuilt))
	for i := range prebuilt {
		st.added[i].Store(1)
	}
	return st
}

// liveView is what one query, started at sequence s0 and returned at s1,
// may and must see.
type liveView struct {
	st     *liveState
	s0, s1 int64
	begun  int
}

func (v liveView) exists(i int) bool { return i < v.begun }

func (v liveView) deleted(i int) bool {
	d := v.st.delDone[i].Load()
	return d != 0 && d <= v.s0
}

func (v liveView) settled(i int) bool {
	a, ds := v.st.added[i].Load(), v.st.delStart[i].Load()
	return a != 0 && a <= v.s0 && (ds == 0 || ds > v.s1)
}

func (l *live) round(tr *tracer, d time.Duration, layers bool, m *measurement, t *tally) error {
	if l.eng == nil || l.traced != (tr != nil) {
		if err := l.close(); err != nil {
			return err
		}
		if err := l.prebuild(tr != nil, newMeasurement(), t); err != nil {
			return err
		}
		tr.skipEngine(l.eng)
	}
	eng := l.eng
	defer l.close()
	st := newLiveState(len(l.in.docs), l.prebuilt)
	before := eng.Stats()

	var stop atomic.Bool
	var wg sync.WaitGroup
	rm := newMeasurement()
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.read(eng, st, &stop, tr, rm, t)
	}()
	start := time.Now()
	added, err := l.write(eng, st, start, d, tr, layers, m, t)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return err
	}
	m.elapsed += time.Since(start)
	m.merge(rm)
	m.done += rm.queries
	after := eng.Stats()
	m.diskDelta(before, after)
	m.ioBlocks += after.WriteBlocks - before.WriteBlocks
	m.ioOps += added
	m.final = after
	m.heapPeak = max(m.heapPeak, l.heap)
	m.heapEnd = engineHeap(l.base)
	t.op(eng.CheckConsistency())
	tr.importEngine(eng)
	return nil
}

// write is the open-loop writer. Document k of the round is due k/liveRate
// seconds after start; add-to-visible is timed from that due time, so a
// stall delays every document behind it. Each second of the schedule is one
// repetition: its documents' median add-to-visible time and the reader's
// query rate over it.
func (l *live) write(eng *dualindex.Engine, st *liveState, start time.Time, d time.Duration,
	tr *tracer, layers bool, m *measurement, t *tally) (int, error) {
	rng := rand.New(rand.NewSource(l.seed))
	dead := make([]bool, len(l.in.docs))
	repStart, repReads, repFirst := start, int64(0), len(m.opMs)
	k := 0
	for ; ; k++ {
		due := start.Add(time.Duration(float64(k) / liveRate * float64(time.Second)))
		if due.Sub(start) >= d {
			break
		}
		j := l.prebuilt + k
		if j >= len(l.in.docs) {
			return k, fmt.Errorf("live-mix: corpus exhausted after %d documents", k)
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		} else {
			m.genLagMs = max(m.genLagMs, ms(-wait))
		}
		vid := tr.reserve("visible", due)
		st.begun.Store(int64(j + 1))
		a0 := time.Now()
		id := eng.AddDocument(l.in.docs[j].text)
		m.addUs = append(m.addUs, us(time.Since(a0)))
		tr.call("add", vid, a0)
		st.added[j].Store(st.seq.Add(1))
		t.op(checkID(id, j))
		err := l.awaitVisible(eng, id, tr, vid)
		now := time.Now()
		tr.finish(vid, now)
		if err == nil {
			m.opMs = append(m.opMs, ms(now.Sub(due)))
		}
		t.op(err)
		if (k+1)%liveRate == 0 {
			now, reads := time.Now(), st.reads.Load()
			m.repP50 = append(m.repP50, median(m.opMs[repFirst:]))
			m.repRate = append(m.repRate, float64(reads-repReads)/now.Sub(repStart).Seconds())
			repStart, repReads, repFirst = now, reads, len(m.opMs)
		}
		if (k+1)%liveDeleteEvery == 0 {
			l.deleteOne(eng, st, rng, dead, j, tr, m, t)
		}
		if (k+1)%liveFlushEvery == 0 {
			if layers {
				m.pendingMax = max(m.pendingMax, eng.Stats().PendingPostings)
			}
			f0 := time.Now()
			bs, err := eng.FlushBatch()
			fd := time.Since(f0)
			tr.call("flush", 0, f0)
			t.op(err)
			m.flushMs = append(m.flushMs, ms(fd))
			m.flushes = append(m.flushes, bs)
			tr.importEngine(eng)
		}
	}
	if len(m.repP50) == 0 && len(m.opMs) > repFirst { // a round shorter than one repetition
		m.repP50 = append(m.repP50, median(m.opMs[repFirst:]))
		m.repRate = append(m.repRate, float64(st.reads.Load())/time.Since(start).Seconds())
	}
	return k, nil
}

// awaitVisible queries document id's marker until the document is
// returned.
func (l *live) awaitVisible(eng *dualindex.Engine, id dualindex.DocID, tr *tracer, parent int) error {
	marker := markerWord(int(id))
	for try := 0; try < 1000; try++ {
		q0 := time.Now()
		res, err := eng.Query(marker, 1)
		tr.call("query", parent, q0)
		if err != nil {
			return err
		}
		if contains(res, id) {
			return nil
		}
	}
	return fmt.Errorf("document %d never became visible to its marker query", id)
}

// deleteOne deletes a random earlier live document and checks that its
// marker query no longer returns it.
func (l *live) deleteOne(eng *dualindex.Engine, st *liveState, rng *rand.Rand, dead []bool, j int,
	tr *tracer, m *measurement, t *tally) {
	x := rng.Intn(j)
	for dead[x] {
		x = rng.Intn(j)
	}
	dead[x] = true
	id := dualindex.DocID(x + 1)
	st.delStart[x].Store(st.seq.Add(1))
	d0 := time.Now()
	eng.Delete(id)
	m.deleteUs = append(m.deleteUs, us(time.Since(d0)))
	tr.call("delete", 0, d0)
	st.delDone[x].Store(st.seq.Add(1))
	q0 := time.Now()
	res, err := eng.Query(markerWord(x+1), 1)
	tr.call("query", 0, q0)
	if err == nil && contains(res, id) {
		err = fmt.Errorf("deleted document %d returned by its marker query", id)
	}
	t.op(err)
}

// read is the closed-loop reader: the search mix, each answer checked
// against what the writer had done when the query started and returned.
// A query's CPU time is the whole process's while it ran, so it includes
// the writer's work that overlapped it.
func (l *live) read(eng *dualindex.Engine, st *liveState, stop *atomic.Bool, tr *tracer, m *measurement, t *tally) {
	for n := 0; !stop.Load(); n++ {
		q := &l.mix[n%len(l.mix)]
		s0 := st.seq.Load()
		q0, c0 := time.Now(), processCPU()
		res, err := eng.Query(q.text, queryK)
		qd, qc := time.Since(q0), processCPU()-c0
		tr.call("query", 0, q0)
		s1 := st.seq.Load()
		if err == nil {
			err = checkQuery(l.in, q, res, liveView{st: st, s0: s0, s1: s1, begun: int(st.begun.Load())})
		}
		t.op(err)
		st.reads.Add(1)
		m.queries++
		m.queryMs = append(m.queryMs, ms(qd))
		m.opCPUMs = append(m.opCPUMs, ms(qc))
		m.cpu += qc
		m.classMs[q.class] = append(m.classMs[q.class], ms(qd))
		m.results += len(res)
	}
}

func (l *live) inputs() *inputs     { return l.in }
func (l *live) queries() []mixQuery { return l.mix }

func (l *live) sizes() string {
	return fmt.Sprintf("docs=%d postings=%d prebuilt_docs=%d rate=%d/s flush_every=%d delete_every=%d mix_queries=%d",
		len(l.in.docs), l.in.postingCount(), l.prebuilt, liveRate, liveFlushEvery, liveDeleteEvery, len(l.mix))
}

func (l *live) close() error {
	if l.eng == nil {
		return nil
	}
	err := l.eng.Close()
	l.eng = nil
	return err
}
