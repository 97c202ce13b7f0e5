// Benchmarks for live search: the add-to-visible latency — AddDocument
// followed by a query that must return the new document — served from the
// pending tier against the flush-per-document alternative.
// TestLiveBenchReport writes BENCH_live.json and pins the point: immediate
// visibility costs microseconds, not a flush.
package dualindex

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

var benchLiveOpts = Options{
	Buckets:    64,
	BucketSize: 1024,
}

var benchLiveCorpus = synthTexts(131, 400, 120, 40)

// benchLiveMarkerRun is how many consecutive adds share one marker word,
// and how often the pending-tier side drains its pending state. Changing
// the marker bounds every query's answer at this many documents, so the
// per-op cost does not grow with the b.N testing.Benchmark picks.
const benchLiveMarkerRun = 256

// benchLiveMarker returns the n-th marker word: letters only, because the
// lexer drops digits from document text.
func benchLiveMarker(n int) string {
	b := []byte("zqqmarker")
	for {
		b = append(b, byte('a'+n%26))
		if n /= 26; n == 0 {
			return string(b)
		}
	}
}

// benchAddToVisible measures one AddDocument followed by a query that
// returns the new document. With flushEach, visibility is bought the old
// way — a full batch flush between the add and the query; otherwise the
// pending tier serves it. Pending state is drained outside the timer so the
// per-op figure stays an add+query, not an amortized flush. A failed
// answer check is returned rather than reported through b, because
// testing.Benchmark discards a failed benchmark's output.
func benchAddToVisible(b *testing.B, flushEach bool) error {
	eng, err := Open(benchLiveOpts)
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, text := range benchLiveCorpus {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		return err
	}
	var marker, doc string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchLiveMarkerRun == 0 {
			b.StopTimer()
			if !flushEach {
				if _, err := eng.FlushBatch(); err != nil {
					return err
				}
			}
			marker = benchLiveMarker(i / benchLiveMarkerRun)
			doc = benchLiveCorpus[0] + " " + marker
			b.StartTimer()
		}
		id := eng.AddDocument(doc)
		if flushEach {
			if _, err := eng.FlushBatch(); err != nil {
				return err
			}
		}
		docs, err := eng.SearchBoolean(marker)
		if err != nil {
			return err
		}
		if len(docs) == 0 || docs[len(docs)-1] != id {
			return fmt.Errorf("added document %d not visible in %v", id, docs)
		}
		if len(docs) > benchLiveMarkerRun {
			return fmt.Errorf("marker query returned %d documents, want at most %d", len(docs), benchLiveMarkerRun)
		}
	}
	return nil
}

// benchAddToVisibleNs runs benchAddToVisible through testing.Benchmark and
// fails t on a failed answer check, which would otherwise read as 0 ns/op.
func benchAddToVisibleNs(t *testing.T, flushEach bool) int64 {
	t.Helper()
	var failed error
	r := testing.Benchmark(func(b *testing.B) {
		if err := benchAddToVisible(b, flushEach); err != nil {
			failed = err
			b.FailNow()
		}
	})
	if failed != nil {
		t.Fatalf("add-to-visible (flushEach=%v): %v", flushEach, failed)
	}
	return r.NsPerOp()
}

// livePoint is BENCH_live.json's payload.
type livePoint struct {
	AddToVisibleLiveNs  int64 `json:"add_to_visible_live_ns"`
	AddToVisibleFlushNs int64 `json:"add_to_visible_flush_ns"`
}

// TestLiveBenchReport measures both sides and writes BENCH_live.json.
// Skipped under -short.
func TestLiveBenchReport(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness skipped in -short mode")
	}
	p := livePoint{
		AddToVisibleLiveNs:  benchAddToVisibleNs(t, false),
		AddToVisibleFlushNs: benchAddToVisibleNs(t, true),
	}
	t.Logf("add-to-visible: live %7.2fµs, flush-per-doc %9.2fµs", float64(p.AddToVisibleLiveNs)/1e3, float64(p.AddToVisibleFlushNs)/1e3)

	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_live.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	// Live search's reason to exist: visibility in microseconds, cheaper
	// than a flush per document by a wide margin.
	if p.AddToVisibleLiveNs > 500_000 {
		t.Errorf("live add-to-visible %dns, want microseconds (< 500µs)", p.AddToVisibleLiveNs)
	}
	if p.AddToVisibleLiveNs*5 > p.AddToVisibleFlushNs {
		t.Errorf("live add-to-visible %dns is not clearly cheaper than flush-per-document %dns",
			p.AddToVisibleLiveNs, p.AddToVisibleFlushNs)
	}
}
