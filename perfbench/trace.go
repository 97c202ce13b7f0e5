package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dualindex"
)

// span is one timed interval of the traced run. The benchmark records a
// span around every public call it makes; the engine's own spans (flush
// phases, query phases) are imported from its trace ring afterwards and
// attached by time to the span that encloses them. Spans of one request
// share Req, the id of its root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Scope  string `json:"scope"` // "bench", "engine" or "shard-<i>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part its children cover
}

func (s *span) dur() int64 { return s.End - s.Start }

// Span nesting levels: a benchmark request may wrap other benchmark calls
// (an add-to-visible wraps an add and marker queries); engine spans sit
// below them, the engine's per-operation span ("query", "flush") above its
// phases.
func level(s *span) int {
	switch {
	case s.Scope == "bench" && s.Name == "visible":
		return 0
	case s.Scope == "bench":
		return 1
	case s.Name == "query" || s.Name == "flush":
		return 2
	default:
		return 3
	}
}

// traceRing is the engine trace ring's capacity in the traced run; rounds
// import its events before it wraps (lost events are reported).
const traceRing = 1 << 16

// withTracing turns on the engine's metrics registry and span ring.
func withTracing(o dualindex.Options, traced bool) dualindex.Options {
	if traced {
		o.Metrics = true
		o.TraceBuffer = traceRing
	}
	return o
}

// tracer keeps the traced run's spans in memory. A nil *tracer records
// nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// eng is the engine whose events were imported last, up to sequence
	// number seen; a workload has one engine open at a time.
	eng  *dualindex.Engine
	seen uint64
	lost uint64 // engine events overwritten before import
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// call records a benchmark span for a call that ran from start until now,
// under parent (0 for a new request). It returns the span's id.
func (t *tracer) call(name string, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	req := id
	if parent != 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name, Scope: "bench",
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// reserve allocates the id of a request span whose end is not known yet, so
// calls made inside it can name it as parent; finish closes it.
func (t *tracer) reserve(name string, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Req: id, Name: name, Scope: "bench", Start: start.Sub(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
}

// importEngine copies the engine's trace events recorded since the last
// import into the span list. Events the ring overwrote are counted as lost.
func (t *tracer) importEngine(eng *dualindex.Engine) {
	rec := eng.Tracer()
	if t == nil || rec == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if eng != t.eng {
		t.eng, t.seen = eng, 0
	}
	events := rec.Events()
	if len(events) > 0 && events[0].Seq > t.seen+1 {
		t.lost += events[0].Seq - t.seen - 1
	}
	for _, ev := range events {
		if ev.Seq <= t.seen || ev.Name == "query.slow" {
			continue
		}
		start := ev.Start.Sub(t.epoch).Nanoseconds()
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Name: ev.Name, Scope: ev.Scope,
			Start: start, End: start + ev.Dur.Nanoseconds(),
		})
	}
	if len(events) > 0 {
		t.seen = max(t.seen, events[len(events)-1].Seq)
	}
}

// skipEngine marks the engine's trace events so far as seen, so work done
// outside the timed calls (a cache warm-up) is not imported.
func (t *tracer) skipEngine(eng *dualindex.Engine) {
	if t == nil || eng.Tracer() == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.eng, t.seen = eng, eng.Tracer().Seq()
}

// link gives every imported engine span the innermost enclosing span of a
// higher level as parent — an engine phase in the same shard's flush, or
// in the engine query span, or else the benchmark call around it — and
// then computes every span's self time. With two clients, requests overlap
// in time and an engine span can fall inside two of them; it goes to the
// one that started last, and ambiguous counts how often that happened.
func (t *tracer) link() (ambiguous int) {
	spans := t.spans
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	var maxDur int64
	for i := range spans {
		maxDur = max(maxDur, spans[i].dur())
	}
	for _, i := range order {
		s := &spans[i]
		if s.Scope == "bench" {
			continue
		}
		best, ties := -1, 0
		hi := sort.Search(len(order), func(q int) bool { return spans[order[q]].Start > s.Start })
		for q := hi - 1; q >= 0 && spans[order[q]].Start >= s.Start-maxDur; q-- {
			c := &spans[order[q]]
			if c.End < s.End || level(c) >= level(s) {
				continue
			}
			if c.Scope != "bench" && (!strings.HasPrefix(s.Name, c.Name+".") ||
				c.Scope != "engine" && c.Scope != s.Scope) {
				continue // a flush phase belongs to its own shard's flush
			}
			switch {
			case best < 0 || level(c) > level(&spans[best]):
				best, ties = order[q], 0
			case level(c) == level(&spans[best]):
				ties++
				if c.Start > spans[best].Start {
					best = order[q]
				}
			}
		}
		if ties > 0 {
			ambiguous++
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
	for i := range spans {
		if spans[i].Parent == 0 {
			spans[i].Req = spans[i].ID
		}
	}
	// Requests propagate down: parents are resolved before children because
	// a parent's level is always lower.
	for lv := 0; lv <= 3; lv++ {
		for i := range spans {
			if level(&spans[i]) == lv && spans[i].Parent != 0 {
				spans[i].Req = spans[spans[i].Parent-1].Req
			}
		}
	}
	children := map[int][][2]int64{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].dur() - covered(children[spans[i].ID], spans[i].Start, spans[i].End)
	}
	return ambiguous
}

// covered returns the length of the union of intervals within [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// layerTime is one layer's totals over the traced requests.
type layerTime struct {
	Name  string
	Count int
	DurMs []float64
	Self  time.Duration // summed span self times
	Time  time.Duration // the instants for which it was the deepest open span
}

// summary totals the linked spans per layer. Besides the self times it
// splits every request's end-to-end time among its spans: each instant goes
// to the deepest span open at that instant (the earliest started among
// equals), so concurrent shard phases are not counted twice and the
// layers' times add up to the requests' total. Layers are keyed
// "scope/name", with shard scopes collapsed to "shard". It also returns
// the requests' total and the part left to the benchmark's own spans —
// time inside a public call that no engine span covers.
func (t *tracer) summary() (layers []*layerTime, total, bench time.Duration) {
	key := func(s *span) string {
		if s.Scope != "bench" && s.Scope != "engine" {
			return "shard/" + s.Name
		}
		return s.Scope + "/" + s.Name
	}
	by := map[string]*layerTime{}
	get := func(s *span) *layerTime {
		k := key(s)
		if by[k] == nil {
			by[k] = &layerTime{Name: k}
			layers = append(layers, by[k])
		}
		return by[k]
	}
	children := map[int][]int{}
	for i := range t.spans {
		s := &t.spans[i]
		l := get(s)
		l.Count++
		l.DurMs = append(l.DurMs, float64(s.dur())/1e6)
		l.Self += time.Duration(s.Self)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		root := &t.spans[i]
		if root.Parent != 0 {
			continue
		}
		total += time.Duration(root.dur())
		// The request's spans with their depths, root first.
		tree := []int{i}
		depth := map[int]int{i: 0}
		for q := 0; q < len(tree); q++ {
			for _, c := range children[t.spans[tree[q]].ID] {
				depth[c] = depth[tree[q]] + 1
				tree = append(tree, c)
			}
		}
		var cuts []int64
		for _, j := range tree {
			cuts = append(cuts, max(t.spans[j].Start, root.Start), min(t.spans[j].End, root.End))
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		for c := 0; c+1 < len(cuts); c++ {
			a, b := cuts[c], cuts[c+1]
			owner := i
			for _, j := range tree {
				s := &t.spans[j]
				if s.Start <= a && s.End >= b && (depth[j] > depth[owner] ||
					depth[j] == depth[owner] && s.Start < t.spans[owner].Start) {
					owner = j
				}
			}
			get(&t.spans[owner]).Time += time.Duration(b - a)
			if t.spans[owner].Scope == "bench" {
				bench += time.Duration(b - a)
			}
		}
	}
	slices.SortFunc(layers, func(a, b *layerTime) int { return cmp.Compare(b.Time, a.Time) })
	return layers, total, bench
}

// durations returns the span durations in milliseconds of every span with
// the given engine name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Scope != "bench" && t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].dur())/1e6)
		}
	}
	return out
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
