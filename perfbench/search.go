package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"dualindex"
)

const (
	// searchDeleteEvery deletes one document in this many at set-up, so the
	// checker can tell a deleted document being returned.
	searchDeleteEvery = 50
	// searchCacheBlocks is each shard's block cache. The mix reads more
	// distinct blocks than the two shards' caches hold, so the cache evicts
	// and some reads go to the file store (the run prints both sizes).
	searchCacheBlocks = 4096
	// mixSize is how many distinct queries the mix holds: more than a run
	// sends, so the tail percentiles come from many different queries, not
	// a few repeated ones.
	mixSize = 2000
	// searchRep is how many queries make one repetition.
	searchRep = 500
	// warmQueries are sent from the end of the mix before timing starts, to
	// fill the block cache; timing starts from the front of the mix.
	warmQueries = 200
)

// search builds a two-shard index on the file backend at set-up, reopens it
// so reads go through the real file store, and then runs the query mix
// closed-loop from one client.
type search struct {
	in     *inputs
	mix    []mixQuery
	dead   []bool
	work   string // the benchmark's scratch directory
	dir    string
	eng    *dualindex.Engine
	traced bool
	base   uint64 // live heap before the engine opened
	heap   uint64 // engine heap at the end of set-up
	// buildBlocks is how many blocks building the index wrote.
	buildBlocks int64
}

func searchOptions(dir string, traced bool) dualindex.Options {
	return withTracing(withGeometry(dualindex.Options{
		Dir:           dir,
		Backend:       dualindex.BackendFile,
		Shards:        2,
		Routing:       "hash",
		KeepDocuments: true,
		CacheBlocks:   searchCacheBlocks,
	}), traced)
}

func (s *search) setup(seed int64, m *measurement, t *tally) error {
	if err := s.close(); err != nil {
		return err
	}
	in, err := generate(seed, 0, false)
	if err != nil {
		return err
	}
	s.in = in
	s.mix = in.makeMix(seed, mixSize, len(in.docs))
	s.base = liveHeap()
	if s.dir, err = os.MkdirTemp(s.work, "search-"); err != nil {
		return err
	}
	eng, err := dualindex.Open(searchOptions(s.dir, false))
	if err != nil {
		return err
	}
	var meter allocMeter
	for d, day := range in.days {
		meter.start()
		for _, i := range day {
			a0 := time.Now()
			id := eng.AddDocument(in.docs[i].text)
			m.addUs = append(m.addUs, us(time.Since(a0)))
			t.op(checkID(id, i))
		}
		meter.stop(m, len(day))
		if d == len(in.days)-1 {
			s.deleteSome(eng, seed, m)
		}
		m.pendingMax = max(m.pendingMax, eng.Stats().PendingPostings)
		bs, err := eng.FlushBatch()
		m.flushes = append(m.flushes, bs)
		t.op(err)
	}
	s.buildBlocks = eng.Stats().WriteBlocks
	if err := eng.Close(); err != nil {
		return err
	}
	if err := s.reopen(false); err != nil {
		return err
	}
	t.op(s.eng.CheckConsistency())
	s.warm(t)
	s.heap = engineHeap(s.base)
	return nil
}

// deleteSome deletes a seeded share of the documents; the last day's
// flush, which follows, checkpoints the deletions.
func (s *search) deleteSome(eng *dualindex.Engine, seed int64, m *measurement) {
	rng := rand.New(rand.NewSource(seed))
	s.dead = make([]bool, len(s.in.docs))
	for range len(s.in.docs) / searchDeleteEvery {
		i := rng.Intn(len(s.in.docs))
		d0 := time.Now()
		eng.Delete(dualindex.DocID(i + 1))
		m.deleteUs = append(m.deleteUs, us(time.Since(d0)))
		s.dead[i] = true
	}
}

// reopen opens the index with or without the engine's tracing.
func (s *search) reopen(traced bool) error {
	if s.eng != nil {
		if err := s.eng.Close(); err != nil {
			return err
		}
		s.eng = nil
	}
	eng, err := dualindex.Open(searchOptions(s.dir, traced))
	if err != nil {
		return err
	}
	s.eng, s.traced = eng, traced
	return nil
}

// warm runs the last warmQueries of the mix, checked, so the block cache is
// filled before timing starts.
func (s *search) warm(t *tally) {
	for i := len(s.mix) - warmQueries; i < len(s.mix); i++ {
		res, err := s.eng.Query(s.mix[i].text, queryK)
		if err == nil {
			err = checkQuery(s.in, &s.mix[i], res, staticView{s.dead})
		}
		t.op(err)
	}
}

func (s *search) round(tr *tracer, d time.Duration, layers bool, m *measurement, t *tally) error {
	if traced := tr != nil; traced != s.traced {
		if err := s.reopen(traced); err != nil {
			return err
		}
		s.warm(t)
		tr.skipEngine(s.eng)
	}
	eng := s.eng
	before := eng.Stats()
	start := time.Now()
	var n int
	var repTime time.Duration
	// Every round sends the same sequence from the front of the mix, so
	// traced and untraced rounds time the same queries.
	for ; time.Since(start) < d; n++ {
		q := &s.mix[n%len(s.mix)]
		q0, c0 := time.Now(), processCPU()
		res, err := eng.Query(q.text, queryK)
		qd, qc := time.Since(q0), processCPU()-c0
		tr.call("query", 0, q0)
		if err == nil {
			err = checkQuery(s.in, q, res, staticView{s.dead})
		}
		t.op(err)
		m.elapsed += qd
		m.cpu += qc
		repTime += qd
		m.opMs = append(m.opMs, ms(qd))
		m.opCPUMs = append(m.opCPUMs, ms(qc))
		m.classMs[q.class] = append(m.classMs[q.class], ms(qd))
		m.results += len(res)
		if n%searchRep == searchRep-1 {
			m.rep(m.opMs[len(m.opMs)-searchRep:], searchRep, repTime)
			repTime = 0
			tr.importEngine(eng)
		}
	}
	if part := n % searchRep; part > 0 && len(m.repP50) == 0 {
		m.rep(m.opMs[len(m.opMs)-part:], part, repTime) // a round shorter than one repetition
	}
	m.queries += n
	m.done += n
	after := eng.Stats()
	m.diskDelta(before, after)
	m.ioBlocks += after.ReadBlocks - before.ReadBlocks
	m.ioOps += n
	m.final = after
	m.heapPeak = max(m.heapPeak, s.heap)
	m.heapEnd = engineHeap(s.base)
	if layers {
		s.documents(tr, m, t)
	}
	tr.importEngine(eng)
	return nil
}

// documents fetches a seeded sample of stored documents, live and deleted,
// and checks each against the generated text.
func (s *search) documents(tr *tracer, m *measurement, t *tally) {
	rng := rand.New(rand.NewSource(int64(len(m.docGetUs))))
	for range 500 {
		i := rng.Intn(len(s.in.docs))
		g0 := time.Now()
		text, ok, err := s.eng.Document(dualindex.DocID(i + 1))
		m.docGetUs = append(m.docGetUs, us(time.Since(g0)))
		tr.call("document", 0, g0)
		switch {
		case err != nil:
		case ok == s.dead[i]:
			err = fmt.Errorf("Document(%d): ok=%v for a document deleted=%v", i+1, ok, s.dead[i])
		case ok && text != s.in.docs[i].text:
			err = fmt.Errorf("Document(%d): stored text differs from the added text", i+1)
		}
		t.op(err)
	}
}

func (s *search) inputs() *inputs     { return s.in }
func (s *search) queries() []mixQuery { return s.mix }

func (s *search) sizes() string {
	st := s.eng.Stats()
	return fmt.Sprintf("docs=%d postings=%d deleted=%d long_lists=%d build_write_blocks=%d mix_queries=%d "+
		"cache_blocks=%d (2 shards x %d) blocks_read_since_open=%d cache_hits=%d cache_misses=%d cache_evictions=%d",
		len(s.in.docs), s.in.postingCount(), st.Deleted, st.LongLists, s.buildBlocks, len(s.mix),
		2*searchCacheBlocks, searchCacheBlocks, st.ReadBlocks, st.CacheHits, st.CacheMisses, st.CacheEvictions)
}

func (s *search) close() error {
	var err error
	if s.eng != nil {
		err = s.eng.Close()
		s.eng = nil
	}
	if s.dir != "" {
		if rmErr := os.RemoveAll(s.dir); err == nil {
			err = rmErr
		}
		s.dir = ""
	}
	return err
}
