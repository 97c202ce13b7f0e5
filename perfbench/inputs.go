package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"dualindex"
	"dualindex/internal/corpus"
	"dualindex/internal/experiments"
	"dualindex/internal/longlist"
)

// corpusScale is every workload's share of corpus.DefaultConfig's daily
// volume: about 135 documents a day, 10,000 documents and 800,000 postings
// over the 73 days.
const corpusScale = 0.25

// withGeometry sizes the index the way internal/experiments calibrates it
// for this corpus, in the paper's regime: the buckets hold the infrequent
// words, about two thousand frequent words overflow into long lists, and a
// typical long list spans a handful of blocks.
func withGeometry(o dualindex.Options) dualindex.Options {
	p := experiments.DefaultParams().Scaled(corpusScale)
	o.Buckets, o.BucketSize = p.Buckets, p.BucketSize
	o.BlockSize = int(p.BlockPosting) * longlist.PostingBytes
	return o
}

// doc is one generated document: the text the engine receives and the word
// set the oracle answers from. Documents are numbered from 1 in generation
// order, which is the DocID the engine assigns when they are added in that
// order to a fresh engine.
type doc struct {
	words []string // body words in text order (ascending word id), unique
	text  string
}

// inputs is a workload's generated corpus plus the oracle's inverted index
// over it. Everything is a pure function of the seed and the scale.
type inputs struct {
	docs  []doc   // docs[i] has DocID i+1
	days  [][]int // document indexes per day
	index map[string][]int32
	vocab []string // sorted distinct words, for prefix expansion
}

// markerWord names the marker carried by document id: a vowel followed by
// a corpus-style word. corpus.WordString starts every word with a
// consonant, so no corpus word is a marker, and it is a bijection, so no
// two documents share one. Markers are purely alphabetic and never a query
// keyword.
func markerWord(id int) string { return "u" + corpus.WordString(corpus.WordID(id)) }

// generate renders the corpus for seed; days > 0 overrides the number of
// days. With markers, every document's text ends with its own marker word.
func generate(seed int64, days int, markers bool) (*inputs, error) {
	cfg := corpus.DefaultConfig().Scaled(corpusScale)
	cfg.Seed = seed
	if days > 0 {
		cfg.Days = days
	}
	batches, err := corpus.GenerateAll(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{index: map[string][]int32{}}
	for _, b := range batches {
		var day []int
		for _, d := range b.Docs {
			if int(d.ID) != len(in.docs)+1 {
				return nil, fmt.Errorf("corpus: document %d out of order", d.ID)
			}
			words := make([]string, len(d.Words))
			for i, w := range d.Words {
				words[i] = corpus.WordString(w)
			}
			text := corpus.DocText(d, b.Day)
			if markers {
				text += markerWord(int(d.ID)) + "\n"
			}
			i := len(in.docs)
			in.docs = append(in.docs, doc{words: words, text: text})
			for _, w := range words {
				in.index[w] = append(in.index[w], int32(i))
			}
			day = append(day, i)
		}
		in.days = append(in.days, day)
	}
	in.vocab = make([]string, 0, len(in.index))
	for w := range in.index {
		in.vocab = append(in.vocab, w)
	}
	slices.Sort(in.vocab)
	return in, nil
}

// postings returns the sorted document indexes containing word.
func (in *inputs) postings(word string) []int32 { return in.index[word] }

// hasWord reports whether document i contains word.
func (in *inputs) hasWord(i int, word string) bool {
	_, ok := slices.BinarySearch(in.index[word], int32(i))
	return ok
}

// withPrefix returns every corpus word starting with p.
func (in *inputs) withPrefix(p string) []string {
	lo := sort.SearchStrings(in.vocab, p)
	hi := lo
	for hi < len(in.vocab) && strings.HasPrefix(in.vocab[hi], p) {
		hi++
	}
	return in.vocab[lo:hi]
}

// postingCount is the total (word, document) pairs of the corpus.
func (in *inputs) postingCount() int64 {
	var n int64
	for _, d := range in.docs {
		n += int64(len(d.words))
	}
	return n
}

// Query classes of the search mix.
const (
	classBag    = "bag"
	classBool   = "bool"
	classPrefix = "prefix"
	classPhrase = "phrase"
)

var queryClasses = []string{classBag, classBool, classPrefix, classPhrase}

// mixCycle is the order in which the mix draws its classes: half of the
// queries are boolean. A phrase query costs less than most prefix queries,
// a prefix query less than most boolean ones, and a bag far more. With
// boolean queries at a quarter or two fifths of the mix, the median fell
// where the prefix and boolean classes overlap thinly and moved by 10-25%
// between runs and seeds; at half it falls inside the boolean class.
var mixCycle = []string{classBag, classBool, classPrefix, classBool, classPhrase, classBool}

// mixQuery is one query of the seeded mix. For bool, prefix and phrase
// queries oracle is the set of documents that satisfy it; a ranked bag is
// checked word by word instead (see checkRanked).
type mixQuery struct {
	class  string
	text   string
	bag    []string // bag words, for the ranked-result check
	oracle []int32  // sorted document indexes
}

// queryK is the result budget of every query the benchmark sends.
const queryK = 10

// makeMix draws n queries over documents [0, limit): ranked bags of about
// twenty words taken from one document (the paper's vector query), two- or
// three-term and/or/not queries, prefix truncations and quoted two-word
// phrases, in the proportions of mixCycle.
func (in *inputs) makeMix(seed int64, n, limit int) []mixQuery {
	rng := rand.New(rand.NewSource(seed))
	pick := func() []string { return in.docs[rng.Intn(limit)].words }
	mix := make([]mixQuery, 0, n)
	for len(mix) < n {
		ws := pick()
		if len(ws) < 3 {
			continue
		}
		var q mixQuery
		switch mixCycle[len(mix)%len(mixCycle)] {
		case classBag:
			bag := make([]string, 0, 20)
			for _, j := range rng.Perm(len(ws)) {
				if len(bag) == 20 {
					break
				}
				bag = append(bag, ws[j])
			}
			q = mixQuery{class: classBag, text: strings.Join(bag, " "), bag: bag}
		case classBool:
			q = in.boolQuery(rng, ws, pick)
		case classPrefix:
			w := ws[rng.Intn(len(ws))]
			if len(w) < 4 {
				continue
			}
			p := w[:len(w)-1]
			q = mixQuery{class: classPrefix, text: p + "*", oracle: in.unionOf(in.withPrefix(p))}
		case classPhrase:
			// The second word is selective — in at most one document in a
			// hundred. A phrase of two frequent words verifies thousands of
			// candidates against their stored text, about 100 ms each, and
			// such queries dominated every timing they shared a run with
			// (see the package documentation).
			var js []int
			for j := 0; j+1 < len(ws); j++ {
				if len(in.postings(ws[j+1]))*100 <= len(in.docs) {
					js = append(js, j)
				}
			}
			if len(js) == 0 {
				continue
			}
			j := js[rng.Intn(len(js))]
			q = mixQuery{class: classPhrase, text: `"` + ws[j] + " " + ws[j+1] + `"`, oracle: in.adjacent(ws[j], ws[j+1])}
		}
		mix = append(mix, q)
	}
	return mix
}

// boolQuery builds one of the boolean shapes from two words of one document
// and, for the three-term shapes, a word of another.
func (in *inputs) boolQuery(rng *rand.Rand, ws []string, pick func() []string) mixQuery {
	a, b := ws[rng.Intn(len(ws))], ws[rng.Intn(len(ws))]
	for b == a {
		b = ws[rng.Intn(len(ws))]
	}
	other := pick()
	c := other[rng.Intn(len(other))]
	pa, pb, pc := in.postings(a), in.postings(b), in.postings(c)
	switch rng.Intn(4) {
	case 0:
		return mixQuery{class: classBool, text: a + " and " + b, oracle: intersect(pa, pb)}
	case 1:
		return mixQuery{class: classBool, text: a + " or " + c, oracle: union(pa, pc)}
	case 2:
		return mixQuery{class: classBool, text: a + " and not " + c, oracle: difference(pa, pc)}
	default:
		return mixQuery{class: classBool, text: "(" + a + " or " + c + ") and " + b, oracle: intersect(union(pa, pc), pb)}
	}
}

// unionOf returns the documents containing any of words.
func (in *inputs) unionOf(words []string) []int32 {
	var out []int32
	for _, w := range words {
		out = union(out, in.postings(w))
	}
	return out
}

// adjacent returns the documents whose body has a directly followed by b.
// A body lists a document's words in id order, so that means b is the
// next word after a in the document's word list.
func (in *inputs) adjacent(a, b string) []int32 {
	var out []int32
	for _, i := range intersect(in.postings(a), in.postings(b)) {
		ws := in.docs[i].words
		j := slices.Index(ws, a)
		if j >= 0 && j+1 < len(ws) && ws[j+1] == b {
			out = append(out, i)
		}
	}
	return out
}

func intersect(a, b []int32) []int32 {
	var out []int32
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func union(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func difference(a, b []int32) []int32 {
	var out []int32
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			out = append(out, x)
		}
	}
	return out
}
