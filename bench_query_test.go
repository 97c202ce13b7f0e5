// Benchmarks for the query pipeline: boolean and vector latency through the
// parse→plan→execute pipeline against in-file reimplementations of the
// direct legacy evaluators (parse → prefetch → EvalBoolean/EvalVector, the
// pre-pipeline shape), plus the unified entry point under both scoring
// models. TestQueryBenchReport reruns the points through testing.Benchmark
// and writes BENCH_query.json; its gate is that the pipeline adds no
// measurable overhead to the legacy paths.
package dualindex

import (
	"encoding/json"
	"os"
	"testing"

	"dualindex/internal/disk"
	"dualindex/internal/lexer"
	"dualindex/internal/query"
)

func benchQueryOpts(shards int) Options {
	return Options{
		Shards:        shards,
		Buckets:       64,
		BucketSize:    128,
		NumDisks:      4,
		BlocksPerDisk: 65536,
		BlockSize:     512,
		newStore: func(numDisks, blockSize int) disk.BlockStore {
			return slowStore{disk.NewMemStore(numDisks, blockSize), benchDelay}
		},
	}
}

var benchQueryCorpus = synthTexts(131, 300, 120, 40)

func benchQueryEngine(b *testing.B) *Engine {
	b.Helper()
	eng, err := Open(benchQueryOpts(2))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	for j, text := range benchQueryCorpus {
		eng.AddDocument(text)
		if (j+1)%100 == 0 {
			if _, err := eng.FlushBatch(); err != nil {
				b.Fatal(err)
			}
		}
	}
	return eng
}

var benchQueryBooleans = []string{
	"waa and wab",
	"wac or (wad and not wae)",
	"wa* and not waa",
	"(waf or wag) and (wah or wai)",
}

const benchQueryVectorText = "waa wab wac wad wae waf wag wah wai waj wak wal wam wan wao wap"

// legacySearchBoolean is the pre-pipeline SearchBoolean, byte for byte:
// parse, prefetch every term per shard, EvalBoolean, k-way merge. Kept here
// as the benchmark baseline the pipeline must not regress against.
func legacySearchBoolean(e *Engine, q string) ([]DocID, error) {
	qo := e.obs.beginQuery("boolean")
	expr, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	qo.routeDone()
	lists, err := fanOut(e, func(s *shard) ([]DocID, error) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		t0 := s.obs.now()
		src, err := query.PrefetchExpr(expr, s.tiers(), s.opts.Workers)
		if err != nil {
			return nil, err
		}
		t1 := s.obs.observeFetch(t0)
		l, err := query.EvalBoolean(expr, src)
		if err != nil {
			return nil, err
		}
		s.obs.observeScore(t1)
		return l.Docs(), nil
	})
	if err != nil {
		return nil, err
	}
	qo.mergeStart()
	docs := query.MergeDocLists(lists)
	qo.finish(q, len(docs))
	return docs, nil
}

// legacySearchVector is the pre-pipeline SearchVector: tokenize, prefetch,
// EvalVector per shard, merge the per-shard top-k lists.
func legacySearchVector(e *Engine, text string, k int) ([]Match, error) {
	qo := e.obs.beginQuery("vector")
	words := lexer.Tokenize(text, e.opts.Lexer)
	total := e.collectionSize()
	vq := query.FromDocument(words)
	qo.routeDone()
	groups, err := fanOut(e, func(s *shard) ([]Match, error) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		t0 := s.obs.now()
		src, err := query.PrefetchVector(vq, s.tiers(), s.opts.Workers)
		if err != nil {
			return nil, err
		}
		t1 := s.obs.observeFetch(t0)
		ms, err := query.EvalVector(vq, src, total, k)
		if err != nil {
			return nil, err
		}
		s.obs.observeScore(t1)
		return ms, nil
	})
	if err != nil {
		return nil, err
	}
	qo.mergeStart()
	matches := query.MergeMatches(groups, k)
	qo.finish(text, len(matches))
	return matches, nil
}

func benchBoolean(b *testing.B, legacy bool) {
	eng := benchQueryEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range benchQueryBooleans {
			var err error
			if legacy {
				_, err = legacySearchBoolean(eng, q)
			} else {
				_, err = eng.SearchBoolean(q)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchVector(b *testing.B, legacy bool) {
	eng := benchQueryEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if legacy {
			_, err = legacySearchVector(eng, benchQueryVectorText, 10)
		} else {
			_, err = eng.SearchVector(benchQueryVectorText, 10)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchUnified measures the full unified entry point on a compound query —
// parse, plan and a ranked structured execution every iteration.
func benchUnified(b *testing.B, scoring string) {
	opts := benchQueryOpts(2)
	opts.Scoring = scoring
	eng, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	for j, text := range benchQueryCorpus {
		eng.AddDocument(text)
		if (j+1)%100 == 0 {
			if _, err := eng.FlushBatch(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query("(waa or wab) and wa* wac wad", 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryPipeline(b *testing.B) {
	b.Run("boolean/legacy", func(b *testing.B) { benchBoolean(b, true) })
	b.Run("boolean/pipeline", func(b *testing.B) { benchBoolean(b, false) })
	b.Run("vector/legacy", func(b *testing.B) { benchVector(b, true) })
	b.Run("vector/pipeline", func(b *testing.B) { benchVector(b, false) })
	b.Run("unified/vector", func(b *testing.B) { benchUnified(b, ScoringVector) })
	b.Run("unified/bm25", func(b *testing.B) { benchUnified(b, ScoringBM25) })
}

// queryBenchReport is the schema of BENCH_query.json. Overheads are the
// pipeline time over the legacy time for the same workload (1.0 = parity).
type queryBenchReport struct {
	BooleanLegacyNsOp   int64   `json:"boolean_legacy_ns_op"`
	BooleanPipelineNsOp int64   `json:"boolean_pipeline_ns_op"`
	BooleanOverhead     float64 `json:"boolean_overhead"`
	VectorLegacyNsOp    int64   `json:"vector_legacy_ns_op"`
	VectorPipelineNsOp  int64   `json:"vector_pipeline_ns_op"`
	VectorOverhead      float64 `json:"vector_overhead"`
	UnifiedVectorNsOp   int64   `json:"unified_vector_ns_op"`
	UnifiedBM25NsOp     int64   `json:"unified_bm25_ns_op"`
}

// TestQueryBenchReport measures the pipeline against the legacy evaluators
// and writes BENCH_query.json. The gate: the pipeline is within 25% of the
// direct legacy paths (disk service time dominates both, so a bigger gap
// means the plan/execute layers added real per-query work). Skipped under
// -short.
func TestQueryBenchReport(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness skipped in -short mode")
	}
	rep := queryBenchReport{
		BooleanLegacyNsOp:   testing.Benchmark(func(b *testing.B) { benchBoolean(b, true) }).NsPerOp(),
		BooleanPipelineNsOp: testing.Benchmark(func(b *testing.B) { benchBoolean(b, false) }).NsPerOp(),
		VectorLegacyNsOp:    testing.Benchmark(func(b *testing.B) { benchVector(b, true) }).NsPerOp(),
		VectorPipelineNsOp:  testing.Benchmark(func(b *testing.B) { benchVector(b, false) }).NsPerOp(),
		UnifiedVectorNsOp:   testing.Benchmark(func(b *testing.B) { benchUnified(b, ScoringVector) }).NsPerOp(),
		UnifiedBM25NsOp:     testing.Benchmark(func(b *testing.B) { benchUnified(b, ScoringBM25) }).NsPerOp(),
	}
	rep.BooleanOverhead = float64(rep.BooleanPipelineNsOp) / float64(rep.BooleanLegacyNsOp)
	rep.VectorOverhead = float64(rep.VectorPipelineNsOp) / float64(rep.VectorLegacyNsOp)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_query.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("boolean overhead %.3fx, vector overhead %.3fx, unified vector %dns, bm25 %dns",
		rep.BooleanOverhead, rep.VectorOverhead, rep.UnifiedVectorNsOp, rep.UnifiedBM25NsOp)
	const maxOverhead = 1.25
	if rep.BooleanOverhead > maxOverhead {
		t.Errorf("boolean pipeline is %.2fx the legacy path (gate %.2fx)", rep.BooleanOverhead, maxOverhead)
	}
	if rep.VectorOverhead > maxOverhead {
		t.Errorf("vector pipeline is %.2fx the legacy path (gate %.2fx)", rep.VectorOverhead, maxOverhead)
	}
}
