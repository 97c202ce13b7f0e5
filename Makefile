# Convenience targets; `make check` is the gate a change must pass.

.PHONY: check lint build test race bench bench-shard bench-observe bench-reshard bench-compress bench-query bench-live

check:
	./scripts/check.sh

# The invariant linter: lockorder, snapshotsafe, ioboundary, metricsname
# over the whole module (see internal/analysis and DESIGN.md's
# "Concurrency contracts"). Exits non-zero on any finding.
lint:
	go run ./cmd/lint ./...

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The parallel-path benchmarks (flush, query fetch, block cache).
bench:
	go test -bench 'Parallel|BlockCache' -run '^$$' .

# Shard-scaling benchmarks: ingest and query throughput at 1, 2 and 4
# shards, written to BENCH_shard.json.
bench-shard:
	go test -run '^TestShardBenchReport$$' -count=1 -v .

# Observability overhead: flush and query time with instrumentation off vs
# fully on (metrics + tracing + slow-query log), written to
# BENCH_observe.json. Target: enabled flush within 5% of disabled.
bench-observe:
	go test -run '^TestObserveBenchReport$$' -count=1 -v .

# Online-resharding throughput: document migration rate for in-memory and
# on-disk reshards, written to BENCH_reshard.json.
bench-reshard:
	go test -run '^TestReshardBenchReport$$' -count=1 -v .

# Compression matrix: flush and query time plus blocks moved for every
# backend × codec cell of {sim, file} × {raw, varint, golomb}, written to
# BENCH_compress.json. Gate: compressed cells move fewer blocks than raw.
bench-compress:
	go test -run '^TestCompressBenchReport$$' -count=1 -v .

# Live-search latency: add-to-visible time (AddDocument → query returns the
# document) served from the pending tier vs a flush per document, written
# to BENCH_live.json. Gates: visibility in microseconds, clearly cheaper
# than flushing.
bench-live:
	go test -run '^TestLiveBenchReport$$' -count=1 -v .

# Query-pipeline overhead: boolean and vector latency through the
# parse→plan→execute pipeline vs the direct legacy evaluators, plus the
# unified entry point and BM25, written to BENCH_query.json. Gate: the
# pipeline adds no measurable overhead to the legacy paths.
bench-query:
	go test -run '^TestQueryBenchReport$$' -count=1 -v .
