package main

import (
	"time"

	"dualindex/internal/lexer"
	"dualindex/internal/query"
	"dualindex/internal/vocab"
)

// layerTimes are the layer replay's results: the lexer, vocabulary and
// query front end timed on a workload's exact inputs, outside the engine,
// for the layers the engine's own spans do not cover.
type layerTimes struct {
	tokenizeUs, positionsUs float64 // per document
	assignNs                float64 // per word
	parseUs, planUs         []float64
}

// layerPass is how long each layer is replayed; the reported figure is the
// median over passes.
const layerPass = 250 * time.Millisecond

// replayLayers times each layer in repeated passes over the inputs.
func replayLayers(in *inputs, mix []mixQuery) (layerTimes, error) {
	var lt layerTimes
	texts := make([]string, len(in.docs))
	for i := range in.docs {
		texts[i] = in.docs[i].text
	}
	var tokens [][]string
	lt.tokenizeUs = perItem(len(texts), func() {
		tokens = tokens[:0]
		for _, text := range texts {
			tokens = append(tokens, lexer.Tokenize(text, lexer.Options{}))
		}
	}) / 1e3
	lt.positionsUs = perItem(len(texts), func() {
		for _, text := range texts {
			lexer.TokenizePositions(text, lexer.Options{})
		}
	}) / 1e3
	words := 0
	for _, ts := range tokens {
		words += len(ts)
	}
	lt.assignNs = perItem(words, func() {
		v := vocab.New()
		for _, ts := range tokens {
			for _, w := range ts {
				v.GetOrAssign(w)
			}
		}
	})
	po := query.PlanOptions{Scoring: query.ScoringVector, K: queryK}
	for start := time.Now(); time.Since(start) < layerPass; {
		for i := range mix {
			p0 := time.Now()
			expr, err := query.ParseQuery(mix[i].text)
			p1 := time.Now()
			if err != nil {
				return lt, err
			}
			if _, err := query.NewPlan(expr, po); err != nil {
				return lt, err
			}
			lt.parseUs = append(lt.parseUs, us(p1.Sub(p0)))
			lt.planUs = append(lt.planUs, us(time.Since(p1)))
		}
	}
	return lt, nil
}

// perItem runs pass repeatedly for layerPass (at least three times) and
// returns the median pass time per item, in nanoseconds.
func perItem(items int, pass func()) float64 {
	var per []float64
	for start := time.Now(); len(per) < 3 || time.Since(start) < layerPass; {
		p0 := time.Now()
		pass()
		per = append(per, float64(time.Since(p0).Nanoseconds())/float64(max(items, 1)))
	}
	return median(per)
}
