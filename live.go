package dualindex

import (
	"dualindex/internal/postings"
	"dualindex/internal/query"
)

// Live search: every query consults up to three tiers behind one merge
// abstraction (query.TieredSource), so a document is searchable the moment
// AddDocument returns instead of a flush interval later:
//
//   - the pending tier — per-word sorted, frequency-aggregated posting runs
//     of the documents added since the last flush, grown one document at a
//     time (shard.pending);
//   - mid-flush, the detached batch the flush is applying (the pending tier
//     frozen at publish time, shard.snapBatch), read beside the flush's
//     index snapshot;
//   - the on-disk index (or its published pre-flush snapshot).
//
// The tiers partition the document set — a document is pending, detaching,
// or flushed, never two at once — so the merged per-word lists equal what
// the same documents yield after a flush, and query answers are independent
// of flush timing.

// The tier adapters below are what shard.tiers composes into a
// query.TieredSource; diskTier additionally serves prefix expansion.
var (
	_ query.Source       = diskTier{}
	_ query.PrefixSource = diskTier{}
	_ query.Source       = memTier{}
)

// diskTier adapts the on-disk tier — the live core index, or the published
// pre-flush snapshot while a flush is applying its batch — to the query
// package's Source. It carries the shard's vocabulary for word resolution
// and prefix expansion; the vocabulary spans every tier because words are
// assigned at document-arrival time, so putting this tier first in the
// TieredSource gives truncation queries the whole word population.
type diskTier struct {
	s   *shard
	get func(postings.WordID) (*postings.List, error)
}

func (t diskTier) List(word string) (*postings.List, error) {
	w, known := t.s.vocab.Lookup(word)
	if !known {
		return &postings.List{}, nil
	}
	return t.get(w)
}

func (t diskTier) WordsWithPrefix(prefix string) []string {
	return t.s.vocab.WordsWithPrefix(prefix)
}

// memTier adapts one in-memory tier — the pending runs or, mid-flush, the
// detached batch — to the query package's Source. Deleted documents are
// filtered here, with the same deletion view as the disk tier beside it, so
// a document deleted mid-flush disappears from every tier at once.
type memTier struct {
	s         *shard
	runs      map[postings.WordID]*postings.List
	isDeleted func(postings.DocID) bool
}

func (t memTier) List(word string) (*postings.List, error) {
	w, known := t.s.vocab.Lookup(word)
	if !known {
		return &postings.List{}, nil
	}
	run := t.runs[w]
	if run.Len() == 0 {
		return &postings.List{}, nil
	}
	// Filter copies, so query execution never aliases the growing run.
	return run.Filter(t.isDeleted), nil
}
