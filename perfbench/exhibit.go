package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/lexicon"
	"repro/internal/sbayes"
	"repro/internal/stats"
	"repro/internal/textgen"
)

// Figure 1 shape checks. The paper's optimal attack makes the filter
// unusable at 1% control, so a 10% attack must cost at least half the
// test ham; at the largest fraction the three dictionaries rank
// optimal ≥ Usenet ≥ Aspell up to shapeTolerance; the attack trains
// spam, so spam stays caught: at most spamMarginal misclassified.
const (
	minBaselineAccuracy = 0.9
	minHamLossAtTenPct  = 0.5
	shapeTolerance      = 0.02
	spamMarginal        = 0.02
)

// exhibitConfig is Table 1 (10 folds of 10,000-message training sets,
// six attack fractions, the 20M-token Usenet sample) with the run's
// seed and at most one fold worker per CPU.
func exhibitConfig(seed uint64) experiments.Config {
	cfg := experiments.FullScale()
	cfg.Seed = seed
	cfg.Workers = runtime.GOMAXPROCS(0)
	return cfg
}

// runExhibit regenerates Figure 1 with experiments.RunFig1 as often as
// whole regenerations fit in the run's time, and at least once.
func runExhibit(p params) (*workloadRun, error) {
	w := &workloadRun{}
	cfg := exhibitConfig(p.seed)
	var env *experiments.Env
	err := timeSetups(w, func() error {
		env = nil
		var err error
		env, err = experiments.NewEnv(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}

	if p.trace {
		return w, traceExhibit(p, w, env)
	}

	// Only whole regenerations that fit in the time are started (at
	// least one), so a run's count does not flip between one and two
	// when a regeneration takes about as long as the run.
	limit := time.Duration(p.seconds * float64(time.Second))
	var first *experiments.Fig1Result
	var last time.Duration
	m := startMeter()
	for w.attempted == 0 || time.Since(m.wall)+last <= limit {
		t0 := time.Now()
		res, err := experiments.RunFig1(env)
		last = time.Since(t0)
		w.latencies = append(w.latencies, last)
		w.attempted++
		if err != nil {
			w.failed++
			continue
		}
		w.msgs += int64(evaluations(res))
		if first == nil {
			first = res
		} else {
			w.checkf(sameFig1(first, res), "Figure 1 regeneration %d differs from the first", w.attempted)
		}
	}
	m.stop(w)
	if first == nil {
		w.checkf(false, "no Figure 1 regeneration succeeded")
		return w, nil
	}
	checkFig1(w, env, first)
	return w, nil
}

// evaluations counts the test-message evaluations behind a result:
// every cell's confusion total, baseline included.
func evaluations(r *experiments.Fig1Result) int {
	n := total(r.Baseline)
	for _, s := range r.Series {
		for _, pt := range s.Points {
			n += total(pt.Confusion)
		}
	}
	return n
}

func total(c eval.Confusion) int { return c.NumHam() + c.NumSpam() }

// sameFig1 reports whether two results hold the same confusions.
func sameFig1(a, b *experiments.Fig1Result) bool {
	if a.Baseline != b.Baseline || len(a.Series) != len(b.Series) {
		return false
	}
	for i := range a.Series {
		if a.Series[i].Attack != b.Series[i].Attack || len(a.Series[i].Points) != len(b.Series[i].Points) {
			return false
		}
		for j := range a.Series[i].Points {
			if a.Series[i].Points[j] != b.Series[i].Points[j] {
				return false
			}
		}
	}
	return true
}

// checkFig1 checks the result against the paper's Figure 1 shape and
// the configuration's arithmetic.
func checkFig1(w *workloadRun, env *experiments.Env, r *experiments.Fig1Result) {
	cfg := env.Cfg
	// K-fold cross-validation tests every inbox message exactly once.
	want := cfg.InboxSize()
	w.checkf(total(r.Baseline) == want, "baseline evaluated %d messages, want %d", total(r.Baseline), want)
	for _, s := range r.Series {
		for _, pt := range s.Points {
			w.checkf(total(pt.Confusion) == want, "%s at %.3f evaluated %d messages, want %d", s.Attack, pt.Fraction, total(pt.Confusion), want)
		}
	}
	w.checkf(r.Baseline.Accuracy() >= minBaselineAccuracy, "baseline accuracy %.4f < %.2f", r.Baseline.Accuracy(), minBaselineAccuracy)

	opt, use, asp := r.SeriesByName(env.Optimal.Name()), r.SeriesByName(env.Usenet.Name()), r.SeriesByName(env.Aspell.Name())
	if opt == nil || use == nil || asp == nil || len(opt.Points) == 0 {
		w.checkf(false, "missing a Figure 1 series")
		return
	}
	prev := -1.0
	for _, pt := range opt.Points {
		loss := pt.Confusion.HamMisclassifiedRate()
		w.checkf(loss >= prev, "optimal ham loss falls to %.4f at %.3f", loss, pt.Fraction)
		prev = loss
		if pt.Fraction == 0.10 {
			w.checkf(loss >= minHamLossAtTenPct, "optimal ham loss %.4f at 10%% < %.2f", loss, minHamLossAtTenPct)
		}
		w.checkf(pt.Confusion.SpamMisclassifiedRate() <= spamMarginal,
			"optimal attack misclassifies %.4f of spam at %.3f", pt.Confusion.SpamMisclassifiedRate(), pt.Fraction)
	}
	last := len(opt.Points) - 1
	o := opt.Points[last].Confusion.HamMisclassifiedRate()
	u := use.Points[last].Confusion.HamMisclassifiedRate()
	a := asp.Points[last].Confusion.HamMisclassifiedRate()
	w.checkf(o >= u-shapeTolerance && u >= a-shapeTolerance,
		"at %.3f ham loss optimal %.4f, usenet %.4f, aspell %.4f: not ranked", opt.Points[last].Fraction, o, u, a)
}

// traceExhibit replays experiments.NewEnv's two expensive steps and
// RunFig1's fold loop through their public calls, timing each, and
// compares the replay's confusions with RunFig1's.
func traceExhibit(p params, w *workloadRun, env *experiments.Env) error {
	tr := newTracer()
	cfg := env.Cfg
	w.layers = map[string]metric{}

	// NewEnv's steps, in its order, from the same seed.
	u, err := textgen.NewUniverse(cfg.Universe)
	if err != nil {
		return err
	}
	g, err := textgen.New(u, cfg.Gen)
	if err != nil {
		return err
	}
	root := stats.NewRNG(cfg.Seed)
	t0 := tr.now()
	pool := g.Corpus(root.Split("pool"), cfg.PoolHam, cfg.PoolSpam)
	t1 := tr.now()
	usenet := lexicon.UsenetFromGenerator(g, root.Split("usenet"), cfg.UsenetStreamTokens, cfg.UsenetK)
	t2 := tr.now()
	tr.add("textgen.pool", t0, t1, 0, 0)
	tr.add("lexicon.usenet", t1, t2, 0, 0)
	w.checkf(pool.Len() == env.Pool.Len() && pool.Examples[0].Msg.Body == env.Pool.Examples[0].Msg.Body,
		"replayed pool differs from NewEnv's")
	w.checkf(usenet.Len() == env.Usenet.Len(), "replayed Usenet lexicon has %d words, NewEnv's %d", usenet.Len(), env.Usenet.Len())

	// One untraced regeneration: the result to compare and the rate
	// tracing is measured against.
	tr.enabled.Store(false)
	start := time.Now()
	res, err := experiments.RunFig1(env)
	plainDur := time.Since(start)
	w.attempted++
	if err != nil {
		w.failed++
		return nil
	}
	checkFig1(w, env, res)
	tr.enabled.Store(true)

	start = time.Now()
	replay, err := replayFig1(env, tr)
	tracedDur := time.Since(start)
	w.attempted++
	if err != nil {
		w.failed++
		return nil
	}
	w.checkf(sameFig1(res, replay), "traced replay's confusions differ from RunFig1's")

	layers := w.layers
	layers["textgen.pool_s"] = metric{(t1 - t0).Seconds(), "s"}
	layers["lexicon.usenet_s"] = metric{(t2 - t1).Seconds(), "s"}
	layers["eval.train_ms"] = metric{tr.meanMS("eval.train"), "ms"}
	layers["eval.tokenize_ms"] = metric{tr.meanMS("eval.tokenize"), "ms"}
	layers["eval.evaluate_ms"] = metric{tr.meanMS("eval.evaluate"), "ms"}
	layers["core.attack_build_ms"] = metric{tr.meanMS("core.attack_build"), "ms"}
	layers["sbayes.attack_learn_ms"] = metric{tr.meanMS("sbayes.attack_learn"), "ms"}
	n := float64(evaluations(res))
	layers["trace.overhead_ratio"] = metric{(n / plainDur.Seconds()) / (n / tracedDur.Seconds()), "ratio"}
	fillLayers(layers)
	finishTrace(p, tr, layers)
	return nil
}

// replayFig1 is RunFig1's fold loop rebuilt from the public calls it
// makes, each timed: the same inbox and folds from the same RNG
// stream, the three dictionary attacks, then per fold a trained
// filter, a tokenized test set, and one evaluation per cell.
func replayFig1(env *experiments.Env, tr *tracer) (*experiments.Fig1Result, error) {
	cfg := env.Cfg
	rng := env.RNG("fig1")
	inbox, err := env.Pool.SampleInbox(rng, cfg.InboxSize(), cfg.SpamPrevalence)
	if err != nil {
		return nil, err
	}
	folds, err := inbox.KFold(cfg.Folds)
	if err != nil {
		return nil, err
	}
	attacks := []*core.DictionaryAttack{
		core.NewDictionaryAttack(env.Optimal),
		core.NewDictionaryAttack(env.Usenet),
		core.NewDictionaryAttack(env.Aspell),
	}
	attackTokens := make([][]string, len(attacks))
	for i, a := range attacks {
		t0 := tr.now()
		attackTokens[i] = env.Tok.TokenSet(a.BuildAttack(rng)) //sbvet:retokenize replays RunFig1's one-time attack tokenization to time it
		tr.add("core.attack_build", t0, tr.now(), 0, 0)
	}

	type foldOut struct {
		baseline eval.Confusion
		cells    [][]eval.Confusion
	}
	outs := make([]foldOut, len(folds))
	eval.Parallel(len(folds), cfg.Workers, func(fi int) {
		fold := folds[fi]
		req := int64(fi + 1)
		t0 := tr.now()
		base := eval.TrainFilter(fold.Train, sbayes.DefaultOptions(), env.Tok)
		t1 := tr.now()
		test := eval.TokenizeCorpus(fold.Test, env.Tok)
		t2 := tr.now()
		out := foldOut{cells: make([][]eval.Confusion, len(attacks))}
		out.baseline = eval.EvaluateTokenSet(base, test)
		t3 := tr.now()
		tr.add("eval.train", t0, t1, 0, req)
		tr.add("eval.tokenize", t1, t2, 0, req)
		tr.add("eval.evaluate", t2, t3, 0, req)
		trainN := fold.Train.Len()
		for ai := range attacks {
			f := base.Clone()
			prev := 0
			out.cells[ai] = make([]eval.Confusion, len(cfg.Fractions))
			for pi, frac := range cfg.Fractions {
				if n := core.AttackSize(frac, trainN); n > prev {
					a := tr.now()
					f.LearnTokens(attackTokens[ai], true, n-prev)
					tr.add("sbayes.attack_learn", a, tr.now(), 0, req)
					prev = n
				}
				a := tr.now()
				out.cells[ai][pi] = eval.EvaluateTokenSet(f, test)
				tr.add("eval.evaluate", a, tr.now(), 0, req)
			}
		}
		outs[fi] = out
	})

	res := &experiments.Fig1Result{TrainSize: cfg.TrainSize, Folds: cfg.Folds}
	for _, o := range outs {
		res.Baseline.Add(o.baseline)
	}
	for ai, a := range attacks {
		series := experiments.Fig1Series{Attack: a.Name()}
		for pi, frac := range cfg.Fractions {
			pt := experiments.Fig1Point{Fraction: frac, NumAttack: core.AttackSize(frac, folds[0].Train.Len())}
			for _, o := range outs {
				pt.Confusion.Add(o.cells[ai][pi])
			}
			series.Points = append(series.Points, pt)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}
