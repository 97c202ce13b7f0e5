package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"dualindex"
)

func testInputs(t *testing.T) *inputs {
	t.Helper()
	in, err := generate(7, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// matches returns the documents that satisfy q; for a ranked bag, those
// containing any of its words.
func matches(in *inputs, q *mixQuery) []int32 {
	if q.class == classBag {
		return in.unionOf(q.bag)
	}
	return q.oracle
}

// answer builds the answer a correct engine could give: the first k
// matching live documents with non-increasing scores.
func answer(in *inputs, q *mixQuery, dead []bool) []dualindex.Match {
	var out []dualindex.Match
	for _, i := range matches(in, q) {
		if len(out) == queryK {
			break
		}
		if !dead[i] {
			out = append(out, dualindex.Match{Doc: dualindex.DocID(i + 1), Score: float64(queryK - len(out))})
		}
	}
	return out
}

// mixByClass returns the first query of each class with at least three
// answers and at least one non-answer, enough for every planted error to
// change what the checker sees.
func mixByClass(t *testing.T, in *inputs) map[string]*mixQuery {
	t.Helper()
	mix := in.makeMix(3, 2000, len(in.docs))
	out := map[string]*mixQuery{}
	for i := range mix {
		q := &mix[i]
		if n := len(matches(in, q)); out[q.class] == nil && n >= 3 && n < len(in.docs) {
			out[q.class] = q
		}
	}
	for _, c := range queryClasses {
		if out[c] == nil {
			t.Fatalf("no %s query with three answers", c)
		}
	}
	return out
}

func TestCheckerAcceptsCorrectAnswers(t *testing.T) {
	in := testInputs(t)
	dead := make([]bool, len(in.docs))
	for _, q := range mixByClass(t, in) {
		m := matches(in, q)
		dead[m[len(m)-1]] = true // a deletion the answer honours
		if err := checkQuery(in, q, answer(in, q, dead), staticView{dead}); err != nil {
			t.Errorf("correct answer rejected: %v", err)
		}
	}
}

// TestCheckerCatchesPlantedErrors is the vacuity check: each planted wrong
// answer must fail, so a check that cannot fail is caught.
func TestCheckerCatchesPlantedErrors(t *testing.T) {
	in := testInputs(t)
	dead := make([]bool, len(in.docs))
	byClass := mixByClass(t, in)
	plants := map[string]func(q *mixQuery, res []dualindex.Match) []dualindex.Match{
		"one result dropped": func(q *mixQuery, res []dualindex.Match) []dualindex.Match {
			return res[:len(res)-1]
		},
		"deleted document returned": func(q *mixQuery, res []dualindex.Match) []dualindex.Match {
			i := int(res[0].Doc) - 1
			dead[i] = true
			return res
		},
		"non-matching document returned": func(q *mixQuery, res []dualindex.Match) []dualindex.Match {
			res[len(res)-1].Doc = nonMatching(t, in, q)
			return res
		},
		"document returned twice": func(q *mixQuery, res []dualindex.Match) []dualindex.Match {
			res[1].Doc = res[0].Doc
			return res
		},
		"score rises down the list": func(q *mixQuery, res []dualindex.Match) []dualindex.Match {
			res[2].Score = res[0].Score + 1
			return res
		},
		"unknown document returned": func(q *mixQuery, res []dualindex.Match) []dualindex.Match {
			res[0].Doc = dualindex.DocID(len(in.docs) + 5)
			return res
		},
	}
	for name, plant := range plants {
		for _, c := range queryClasses {
			if c == classBag && name == "one result dropped" {
				continue // ranked bags are not held to a result count
			}
			clear(dead)
			q := byClass[c]
			res := plant(q, answer(in, q, dead))
			if err := checkQuery(in, q, res, staticView{dead}); err == nil {
				t.Errorf("%s: %s %q passed the checker", name, c, q.text)
			}
		}
	}
}

// nonMatching returns a document that does not satisfy q.
func nonMatching(t *testing.T, in *inputs, q *mixQuery) dualindex.DocID {
	for i := range in.docs {
		if q.class == classBag {
			if !slices.ContainsFunc(q.bag, func(w string) bool { return in.hasWord(i, w) }) {
				return dualindex.DocID(i + 1)
			}
			continue
		}
		if _, ok := slices.BinarySearch(q.oracle, int32(i)); !ok {
			return dualindex.DocID(i + 1)
		}
	}
	t.Fatalf("every document matches %q", q.text)
	return 0
}

// TestLiveViewBounds checks the concurrent view: a document deleted before
// the query may not be returned, one settled before it may not be missing,
// and one deleted while the query ran may be either.
func TestLiveViewBounds(t *testing.T) {
	in := testInputs(t)
	q := mixByClass(t, in)[classBool]
	st := newLiveState(len(in.docs), len(in.docs))
	dead := make([]bool, len(in.docs))
	res := answer(in, q, dead)
	view := func() liveView { return liveView{st: st, s0: st.seq.Load(), s1: st.seq.Load(), begun: len(in.docs)} }
	if err := checkQuery(in, q, res, view()); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := checkQuery(in, q, res[:len(res)-1], view()); err == nil {
		t.Error("missing settled document passed the checker")
	}
	gone := int(res[0].Doc) - 1
	st.delStart[gone].Store(st.seq.Add(1))
	st.delDone[gone].Store(st.seq.Add(1))
	if err := checkQuery(in, q, res, view()); err == nil {
		t.Error("document deleted before the query passed the checker")
	}
	// Deleted while the query ran: returning it and leaving it out both pass.
	during := liveView{st: st, s0: st.delStart[gone].Load() - 1, s1: st.seq.Load(), begun: len(in.docs)}
	if err := checkQuery(in, q, res, during); err != nil {
		t.Errorf("document deleted during the query, returned: %v", err)
	}
	dead[gone] = true
	if err := checkQuery(in, q, answer(in, q, dead), during); err != nil {
		t.Errorf("document deleted during the query, left out: %v", err)
	}
}

// TestEngineAnswersPassTheChecker runs the mix against a real engine with
// some documents deleted, so the checker is shown to accept the engine's
// answers and to reject them once the view forgets a deletion.
func TestEngineAnswersPassTheChecker(t *testing.T) {
	in := testInputs(t)
	eng, err := dualindex.Open(withGeometry(dualindex.Options{KeepDocuments: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dead := make([]bool, len(in.docs))
	for i := range in.docs {
		if err := checkID(eng.AddDocument(in.docs[i].text), i); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			eng.Delete(dualindex.DocID(i + 1))
			dead[i] = true
		}
		if i%100 == 99 {
			if _, err := eng.FlushBatch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	forgotten := 0
	for _, q := range in.makeMix(5, 200, len(in.docs)) {
		res, err := eng.Query(q.text, queryK)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkQuery(in, &q, res, staticView{dead}); err != nil {
			t.Errorf("engine answer rejected: %v", err)
		}
		// Resurrect one deleted match in the checker's view: the engine
		// rightly leaves it out, so a count check must now fail.
		if q.class == classBag || len(res) == queryK {
			continue
		}
		for _, i := range q.oracle {
			if dead[i] {
				dead[i] = false
				if checkQuery(in, &q, res, staticView{dead}) == nil {
					t.Errorf("%q: missing document %d passed the checker", q.text, i+1)
				}
				dead[i] = true
				forgotten++
				break
			}
		}
	}
	if forgotten == 0 {
		t.Fatal("no query exercised the missing-document check")
	}
	for i := range in.docs[:50] {
		res, err := eng.Query(markerWord(i+1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if found := contains(res, dualindex.DocID(i+1)); found == dead[i] {
			t.Errorf("marker of document %d: returned=%v deleted=%v", i+1, found, dead[i])
		}
	}
}

func TestMarkersAreUnique(t *testing.T) {
	in := testInputs(t)
	seen := map[string]bool{}
	for i := range in.docs {
		w := markerWord(i + 1)
		if seen[w] || in.index[w] != nil {
			t.Fatalf("marker %q of document %d is not unique", w, i+1)
		}
		seen[w] = true
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables the program prints
// from in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nprogram        %+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nprogram        %+v", b.PerLayer, perLayer)
	}
}
