package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"dualindex"
)

// view tells the checker which documents one query may and must see. For a
// static index every generated document exists and deletions happened
// before the query; under concurrent writes it is bounded by what had
// happened when the query started and when it returned.
type view interface {
	// exists: the document's add had begun, so the engine may return it.
	exists(i int) bool
	// deleted: its delete returned before the query started, so the engine
	// must never return it.
	deleted(i int) bool
	// settled: its add returned before the query started and no delete of
	// it began before the query returned, so a matching query must count it.
	settled(i int) bool
}

// staticView is an index that does not change while it is queried.
type staticView struct{ dead []bool }

func (v staticView) exists(i int) bool  { return true }
func (v staticView) deleted(i int) bool { return v.dead[i] }
func (v staticView) settled(i int) bool { return !v.dead[i] }

// checkQuery verifies one answer of the mix against the oracle. None of the
// checks pins a score: ranked results must contain a query word and come in
// non-increasing score order; boolean, prefix and phrase results must be a
// subset of the oracle's answer, as many as the budget allows.
func checkQuery(in *inputs, q *mixQuery, res []dualindex.Match, v view) error {
	seen := make(map[int]bool, len(res))
	for j, m := range res {
		i := int(m.Doc) - 1
		switch {
		case i < 0 || i >= len(in.docs) || !v.exists(i):
			return fmt.Errorf("%s %q: returned unknown document %d", q.class, q.text, m.Doc)
		case v.deleted(i):
			return fmt.Errorf("%s %q: returned deleted document %d", q.class, q.text, m.Doc)
		case seen[i]:
			return fmt.Errorf("%s %q: returned document %d twice", q.class, q.text, m.Doc)
		case j > 0 && m.Score > res[j-1].Score:
			return fmt.Errorf("%s %q: score rises at rank %d (%g after %g)", q.class, q.text, j, m.Score, res[j-1].Score)
		}
		seen[i] = true
		if q.class == classBag {
			if !slices.ContainsFunc(q.bag, func(w string) bool { return in.hasWord(i, w) }) {
				return fmt.Errorf("bag %q: document %d contains no query word", q.text, m.Doc)
			}
			continue
		}
		if _, ok := slices.BinarySearch(q.oracle, int32(i)); !ok {
			return fmt.Errorf("%s %q: document %d does not satisfy the query", q.class, q.text, m.Doc)
		}
	}
	if q.class == classBag {
		return nil
	}
	lo, hi := 0, 0
	for _, i := range q.oracle {
		if v.settled(int(i)) {
			lo++
		}
		if v.exists(int(i)) && !v.deleted(int(i)) {
			hi++
		}
	}
	if n := len(res); n < min(queryK, lo) || n > min(queryK, hi) {
		if lo == hi {
			return fmt.Errorf("%s %q: %d results, want %d", q.class, q.text, n, min(queryK, lo))
		}
		return fmt.Errorf("%s %q: %d results, want %d to %d", q.class, q.text, n, min(queryK, lo), min(queryK, hi))
	}
	return nil
}

// contains reports whether an answer includes document id.
func contains(res []dualindex.Match, id dualindex.DocID) bool {
	return slices.ContainsFunc(res, func(m dualindex.Match) bool { return m.Doc == id })
}

// tally counts operations attempted and failed across the benchmark's
// goroutines, and prints the first few failures to standard error.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	printed           int
}

// op records one operation and its outcome; err is the engine's error or a
// failed correctness check.
func (t *tally) op(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.printed < 10 {
		t.printed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
}

// checkID verifies that the engine numbered document index i as expected.
func checkID(id dualindex.DocID, i int) error {
	if int(id) != i+1 {
		return fmt.Errorf("AddDocument returned id %d for document %d", id, i+1)
	}
	return nil
}
