// Tests for live search: a document must be servable by every query kind
// the moment AddDocument returns, with answers byte-equal to the
// flushed-then-queried ones — and, more generally, query answers must be
// invariant under flush placement, even when a flush fails.
package dualindex

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dualindex/internal/disk"
	"dualindex/internal/lexer"
)

func liveEngine(t *testing.T, scoring string, shards int) *Engine {
	t.Helper()
	eng, err := Open(Options{
		KeepDocuments: true,
		Scoring:       scoring,
		Shards:        shards,
		Buckets:       8,
		BucketSize:    128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// liveAnswers evaluates one of every query kind — boolean, prefix, phrase,
// proximity, region and ranked — and returns the answers keyed by kind.
func liveAnswers(t *testing.T, eng *Engine) map[string]any {
	t.Helper()
	out := map[string]any{}
	boolean, err := eng.SearchBoolean("quick and brown")
	if err != nil {
		t.Fatal(err)
	}
	out["boolean"] = boolean
	prefix, err := eng.SearchBoolean("qui*")
	if err != nil {
		t.Fatal(err)
	}
	out["prefix"] = prefix
	phrase, err := eng.SearchPhrase("quick brown")
	if err != nil {
		t.Fatal(err)
	}
	out["phrase"] = phrase
	near, err := eng.SearchNear("quick", "fox", 3)
	if err != nil {
		t.Fatal(err)
	}
	out["near"] = near
	region, err := eng.SearchInRegion("market", "title")
	if err != nil {
		t.Fatal(err)
	}
	out["region"] = region
	ranked, err := eng.Query(`"quick brown" or market`, 10)
	if err != nil {
		t.Fatal(err)
	}
	out["ranked"] = ranked
	return out
}

// TestLiveSearchImmediateVisibility: a document is returned by every query
// kind — under either scoring, on one shard or several — immediately after
// AddDocument, and the answers are deep-equal to the ones the same engine
// gives after flushing.
func TestLiveSearchImmediateVisibility(t *testing.T) {
	for _, scoring := range []string{ScoringVector, ScoringBM25} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", scoring, shards), func(t *testing.T) {
				eng := liveEngine(t, scoring, shards)
				defer eng.Close()
				// A flushed background so the on-disk tier participates too.
				eng.AddDocument("brown bears hibernate slowly")
				eng.AddDocument("Subject: quick note\n\nunrelated body text")
				if _, err := eng.FlushBatch(); err != nil {
					t.Fatal(err)
				}
				target := eng.AddDocument("Subject: market update\n\nthe quick brown fox jumps over markets")
				eng.AddDocument("another pending document about foxes")

				pre := liveAnswers(t, eng)
				for _, kind := range []string{"boolean", "prefix", "phrase", "near", "region"} {
					docs := pre[kind].([]DocID)
					found := false
					for _, d := range docs {
						found = found || d == target
					}
					if !found {
						t.Errorf("%s: pending doc %d missing from %v", kind, target, docs)
					}
				}
				found := false
				for _, m := range pre["ranked"].([]Match) {
					found = found || m.Doc == target
				}
				if !found {
					t.Errorf("ranked: pending doc %d missing from %v", target, pre["ranked"])
				}

				if _, err := eng.FlushBatch(); err != nil {
					t.Fatal(err)
				}
				post := liveAnswers(t, eng)
				if !reflect.DeepEqual(pre, post) {
					t.Errorf("answers changed across the flush:\n pre:  %v\n post: %v", pre, post)
				}
			})
		}
	}
}

// liveInvarianceDoc builds one synthetic document from a seeded source; a
// third get a Subject: title line so region queries have matches.
func liveInvarianceDoc(r *rand.Rand) string {
	var sb strings.Builder
	if r.Intn(3) == 0 {
		sb.WriteString("Subject: ")
		sb.WriteString(synthWord(r.Intn(10)))
		sb.WriteString(" report\n\n")
	}
	for j := 0; j < 12+r.Intn(10); j++ {
		sb.WriteString(synthWord(r.Intn(r.Intn(40) + 1)))
		sb.WriteByte(' ')
	}
	return sb.String()
}

// TestFlushInvarianceProperty is the flush-invariance property test: one
// fixed (seeded) document sequence, queried with the same unified-language
// workload under several flush schedules — never, every document, every
// third, every seventh, end only — must give identical Engine.Query answers
// under both scorings. Flushing is a durability event, not a semantic one.
func TestFlushInvarianceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	docs := make([]string, 48)
	for i := range docs {
		docs[i] = liveInvarianceDoc(r)
	}
	queries := []string{
		"waa and wab",
		"wab or (wac and not wad)",
		"wa* and wae",
		`"waa wab"`,
		"waa near/4 wac",
		"title:waa or title:wab",
		"waa wab wac wad",
		"wa* and not wac",
		"waa or (wab and wad)",
		"waa wab wac",
	}
	schedules := map[string]int{"never": 0, "every": 1, "third": 3, "seventh": 7, "end": len(docs)}

	for _, scoring := range []string{ScoringVector, ScoringBM25} {
		baseline := map[string][]Match{}
		for name, every := range schedules {
			eng := liveEngine(t, scoring, 2)
			for i, d := range docs {
				eng.AddDocument(d)
				if every > 0 && (i+1)%every == 0 {
					if _, err := eng.FlushBatch(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, q := range queries {
				got, err := eng.Query(q, 20)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				want, pinned := baseline[q]
				if !pinned {
					baseline[q] = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %q: schedule %s answered %v, baseline answered %v",
						scoring, q, name, got, want)
				}
			}
			eng.Close()
		}
	}
}

// TestStatsPendingCounts covers the observability satellite: Stats and
// ShardStats report the unflushed volume, and a flush drains the counts to
// zero.
func TestStatsPendingCounts(t *testing.T) {
	eng := liveEngine(t, ScoringVector, 2)
	defer eng.Close()
	eng.AddDocument("one two three")
	eng.AddDocument("two three four five")
	st := eng.Stats()
	if st.PendingDocs != 2 {
		t.Errorf("PendingDocs = %d, want 2", st.PendingDocs)
	}
	if st.PendingPostings != 7 {
		t.Errorf("PendingPostings = %d, want 7", st.PendingPostings)
	}
	var docs int
	var posts int64
	for _, ss := range eng.ShardStats() {
		docs += ss.PendingDocs
		posts += ss.PendingPostings
	}
	if docs != st.PendingDocs || posts != st.PendingPostings {
		t.Errorf("ShardStats sum (%d, %d) disagrees with Stats (%d, %d)",
			docs, posts, st.PendingDocs, st.PendingPostings)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.PendingDocs != 0 || st.PendingPostings != 0 {
		t.Errorf("after flush PendingDocs = %d, PendingPostings = %d, want 0, 0",
			st.PendingDocs, st.PendingPostings)
	}
}

// TestLiveSearchDeletePending pins the deletion view across tiers: deleting
// a pending document removes it from live answers immediately.
func TestLiveSearchDeletePending(t *testing.T) {
	eng := liveEngine(t, ScoringVector, 1)
	defer eng.Close()
	keep := eng.AddDocument("shared words here")
	gone := eng.AddDocument("shared words there")
	eng.Delete(gone)
	docs, err := eng.SearchBoolean("shared and words")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != keep {
		t.Errorf("post-delete answer = %v, want [%d]", docs, keep)
	}
}

// errInjectedWrite is the failure faultStore injects.
var errInjectedWrite = errors.New("injected write failure")

// faultStore fails one block write on demand: once armed, the next WriteAt
// closes reached, waits until release is closed, and returns
// errInjectedWrite. Every other call passes through.
type faultStore struct {
	disk.BlockStore
	armed   atomic.Bool
	reached chan struct{}
	release chan struct{}
}

func (f *faultStore) WriteAt(d int, block int64, buf []byte) error {
	if f.armed.CompareAndSwap(true, false) {
		close(f.reached)
		<-f.release
		return errInjectedWrite
	}
	return f.BlockStore.WriteAt(d, block, buf)
}

// TestFlushFailureRestoresPending drives the failed-flush restore path: a
// flush whose first write fails puts its batch back beside the documents
// added while it ran, so every document stays searchable — mid-flush and
// after the failure — and counted as pending.
func TestFlushFailureRestoresPending(t *testing.T) {
	fs := &faultStore{reached: make(chan struct{}), release: make(chan struct{})}
	eng, err := Open(Options{
		Buckets:    8,
		BucketSize: 128,
		newStore: func(numDisks, blockSize int) disk.BlockStore {
			fs.BlockStore = disk.NewMemStore(numDisks, blockSize)
			return fs
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	flushed := eng.AddDocument("shared flushed alpha")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	var pending []DocID
	var postings int64
	add := func(text string) {
		pending = append(pending, eng.AddDocument(text))
		postings += int64(len(lexer.Tokenize(text, lexer.Options{})))
	}
	add("shared batch beta")
	add("shared batch gamma beta")

	fs.armed.Store(true)
	errc := make(chan error, 1)
	go func() {
		_, err := eng.FlushBatch()
		errc <- err
	}()
	<-fs.reached
	add("shared newer beta")
	add("shared newer delta")

	check := func(when string) {
		t.Helper()
		for q, want := range map[string][]DocID{
			"shared":                   append([]DocID{flushed}, pending...),
			"beta":                     {pending[0], pending[1], pending[2]},
			"batch or delta":           {pending[0], pending[1], pending[3]},
			"shared and not alpha":     pending,
			"newer and (beta or gam*)": {pending[2]},
		} {
			got, err := eng.SearchBoolean(q)
			if err != nil {
				t.Fatalf("%s %q: %v", when, q, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %q = %v, want %v", when, q, got, want)
			}
		}
	}
	check("mid-flush")

	close(fs.release)
	if err := <-errc; !errors.Is(err, errInjectedWrite) {
		t.Fatalf("FlushBatch error = %v, want %v", err, errInjectedWrite)
	}
	check("after the failed flush")
	if st := eng.Stats(); st.PendingDocs != len(pending) || st.PendingPostings != postings {
		t.Errorf("after the failed flush PendingDocs = %d, PendingPostings = %d, want %d, %d",
			st.PendingDocs, st.PendingPostings, len(pending), postings)
	}

	// The failed apply may leave batch postings in the index's in-memory
	// buckets, which would hide a lost run from the queries above, so the
	// pending tier is checked on its own too.
	s := eng.shards[0]
	s.mu.RLock()
	defer s.mu.RUnlock()
	for word, want := range map[string][]DocID{
		"shared": pending,
		"beta":   {pending[0], pending[1], pending[2]},
		"gamma":  {pending[1]},
		"delta":  {pending[3]},
	} {
		got, err := memTier{s: s, runs: s.pending}.List(word)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Docs(), want) {
			t.Errorf("pending run for %q = %v, want %v", word, got.Docs(), want)
		}
	}
}
