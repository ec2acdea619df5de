package main

import (
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/tokenize"
)

// The reference scorer: SpamBayes' chi-square classifier written out
// again from the paper (§2.3, equations 1–4) with SpamBayes' default
// parameters, sharing nothing with the program but its tokenizer. It
// keeps its own document counts, its own clue selection and its own
// chi-square survival function, so a served score that agrees with it
// is a check on the program's counting, scoring and combining.
const (
	refX         = 0.5  // prior score of an unseen token
	refS         = 0.45 // strength of the prior
	refMinDist   = 0.1  // clues need |f(w) − 0.5| ≥ this
	refMaxClues  = 150
	refHamCutoff = 0.15
	refSpamCut   = 0.9
	// refTolerance is how far a served score may sit from the
	// reference: summation order differs, nothing else may.
	refTolerance = 1e-9
)

// refModel counts, per token, the training documents of each class
// that contain it.
type refModel struct {
	nspam, nham int
	spam, ham   map[string]int
}

func newRefModel() *refModel {
	return &refModel{spam: map[string]int{}, ham: map[string]int{}}
}

// refTokens is the distinct token set the filter would see, from the
// program's tokenizer (the one piece the reference shares).
func refTokens(tok *tokenize.Tokenizer, m *mail.Message) []string {
	return tok.TokenSet(m) //sbvet:retokenize reference tokenization, apart from the served token streams it checks
}

// addDocument counts one training document.
func (r *refModel) addDocument(tokens []string, spam bool) {
	counts := r.ham
	if spam {
		counts = r.spam
		r.nspam++
	} else {
		r.nham++
	}
	for _, t := range tokens {
		counts[t]++
	}
}

// tokenScore is f(w): Robinson's smoothing of the spam ratio PS(w).
func (r *refModel) tokenScore(t string) float64 {
	sc, hc := r.spam[t], r.ham[t]
	var spamRatio, hamRatio float64
	if r.nspam > 0 {
		spamRatio = float64(min(sc, r.nspam)) / float64(r.nspam)
	}
	if r.nham > 0 {
		hamRatio = float64(min(hc, r.nham)) / float64(r.nham)
	}
	if spamRatio+hamRatio == 0 {
		return refX
	}
	ps := spamRatio / (spamRatio + hamRatio)
	n := float64(sc + hc)
	return (refS*refX + n*ps) / (refS + n)
}

// score is I(E) over a distinct token set. δ(E) is the refMaxClues
// tokens furthest from 0.5 among those at least refMinDist from it.
// Ties in distance go to the larger f(w), as in SpamBayes' sort of
// (distance, f(w)) pairs; equal f(w) are ordered by token text, which
// cannot change the score.
func (r *refModel) score(tokens []string) float64 {
	type clue struct {
		tok  string
		f, d float64
	}
	var clues []clue
	for _, t := range tokens {
		f := r.tokenScore(t)
		if d := math.Abs(f - 0.5); d >= refMinDist {
			clues = append(clues, clue{t, f, d})
		}
	}
	sort.Slice(clues, func(i, j int) bool {
		a, b := clues[i], clues[j]
		if a.d != b.d {
			return a.d > b.d
		}
		if a.f != b.f {
			return a.f > b.f
		}
		return a.tok < b.tok
	})
	if len(clues) > refMaxClues {
		clues = clues[:refMaxClues]
	}
	if len(clues) == 0 {
		return 0.5
	}
	var sumLnF, sumLn1F float64
	for _, c := range clues {
		sumLnF += math.Log(c.f)
		sumLn1F += math.Log(1 - c.f)
	}
	n := len(clues)
	// SpamBayes' chi2_spamprob: S is the evidence for spam, H for ham.
	S := 1 - chi2Survival(-2*sumLn1F, 2*n)
	H := 1 - chi2Survival(-2*sumLnF, 2*n)
	return (S - H + 1) / 2
}

// chi2Survival is P(χ² ≥ x) with v (even) degrees of freedom: the
// Poisson sum e^{−m} Σ_{i<v/2} m^i/i! with m = x/2, each term taken in
// log space so large m cannot underflow the first term away.
func chi2Survival(x float64, v int) float64 {
	if x <= 0 {
		return 1
	}
	m := x / 2
	lnM := math.Log(m)
	var sum float64
	for i := 0; i < v/2; i++ {
		lg, _ := math.Lgamma(float64(i + 1))
		sum += math.Exp(-m + float64(i)*lnM - lg)
	}
	return math.Min(sum, 1)
}

// label thresholds a score with SpamBayes' default cutoffs.
func refLabel(score float64) engine.Label {
	switch {
	case score <= refHamCutoff:
		return engine.Ham
	case score > refSpamCut:
		return engine.Spam
	default:
		return engine.Unsure
	}
}

// refShard routes a message the way the reference assumes a
// recipient-sharded fleet does: FNV-1a of the lowercased To address,
// modulo the shard count. The benchmark stamps plain addresses, so no
// display-name handling is needed.
func refShard(m *mail.Message, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(strings.ToLower(strings.TrimSpace(m.Header.Get("To")))))
	return int(h.Sum64() % uint64(shards))
}

// refAgree reports whether a served verdict agrees with the reference.
func refAgree(served float64, servedLabel string, ref float64) bool {
	return math.Abs(served-ref) <= refTolerance && servedLabel == refLabel(ref).String()
}
