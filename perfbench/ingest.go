package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/sbayes"
	"repro/internal/serve"
	"repro/internal/stats"
)

// The ingest mix is sbload's default learn traffic: 30% attack mail
// labeled spam, split evenly between the §4.1 dictionary attack and
// the §4.2 focused attack (guess probability 0.3), and organic mail
// that is 40% spam. One cycle is ingestCycle submissions, then a flush
// and a save.
const (
	ingestCycle        = 32
	ingestAttackFrac   = 0.3
	focusedGuessProb   = 0.3
	ingestPool         = 8192
	ingestProbeOrganic = 96
)

// runIngest is the write path: POST /learn submissions through the
// admission chain, POST /admin/flush to publish them, and POST
// /admin/save into the snapshot store.
func runIngest(p params) (*workloadRun, error) {
	w := &workloadRun{}
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	f, err := buildSetups(w, func() (*fleet, error) { return buildFleet(p.seed, fleetConfig{}, tr) })
	if err != nil {
		return nil, err
	}
	defer f.close()

	subs, probes, err := ingestTraffic(p.seed, f)
	if err != nil {
		return nil, err
	}
	c := newClient(f.srv)
	cyc := &ingestCycles{w: w, f: f, c: c, subs: subs}

	limit := time.Duration(p.seconds * float64(time.Second))
	if p.trace {
		traceIngest(p, cyc, tr, limit)
	} else {
		m := startMeter()
		for time.Since(m.wall) < limit {
			t0 := time.Now()
			cyc.run(nil)
			w.latencies = append(w.latencies, time.Since(t0))
		}
		m.stop(w)
	}
	checkIngest(w, f, c, probes)
	return w, nil
}

// ingestTraffic generates the submissions and the probe set: organic
// ham and spam plus copies of each attack.
func ingestTraffic(seed uint64, f *fleet) (subs, probes []message, err error) {
	rng := stats.NewRNG(seed).Split("ingest-traffic")
	setup := rng.Split("attack-setup")
	target := f.gen.HamMessage(setup)
	headers := []*mail.Message{f.gen.HamMessage(setup), f.gen.HamMessage(setup), f.gen.HamMessage(setup)}
	focusedAttack, err := core.NewFocusedAttack(target, focusedGuessProb, headers)
	if err != nil {
		return nil, nil, err
	}
	dict := core.NewOptimalAttack(f.gen.Universe())

	learn := func(m *mail.Message, spam bool, k kind) (message, error) {
		body, err := json.Marshal(serve.LearnRequest{Message: serve.WireFromMail(m), Spam: spam})
		f.admit.kinds[m.Body] = k
		return message{msg: m, spam: spam, kind: k, body: body}, err
	}
	dictMsg, err := learn(dict.BuildAttack(rng), true, dictionary)
	if err != nil {
		return nil, nil, err
	}
	subs = make([]message, 0, ingestPool)
	for len(subs) < ingestPool {
		var sub message
		switch {
		case rng.Bernoulli(ingestAttackFrac) && rng.Bernoulli(0.5):
			sub = dictMsg
		case rng.Bernoulli(ingestAttackFrac):
			sub, err = learn(focusedAttack.BuildAttack(rng), true, focused)
		default:
			m, spam := organicMessage(f.gen, rng, organicSpamFrac)
			sub, err = learn(m, spam, organic)
		}
		if err != nil {
			return nil, nil, err
		}
		subs = append(subs, sub)
	}

	prng := rng.Split("probes")
	for i := 0; i < ingestProbeOrganic; i++ {
		m, spam := organicMessage(f.gen, prng, organicSpamFrac)
		probes = append(probes, message{msg: m, spam: spam, kind: organic})
	}
	probes = append(probes,
		message{msg: dictMsg.msg, spam: true, kind: dictionary},
		message{msg: focusedAttack.BuildAttack(prng), spam: true, kind: focused},
		message{msg: focusedAttack.BuildAttack(prng), spam: true, kind: focused},
		message{msg: target, kind: organic})
	return subs, probes, nil
}

// ingestCycles runs submit+flush+save cycles over the submission pool.
type ingestCycles struct {
	w       *workloadRun
	f       *fleet
	c       *client
	subs    []message
	next    int
	lastGen uint64
	cycles  int
}

// run performs one cycle. A traced cycle (tr non-nil and active)
// records each request as a span and replays each submission through
// the per-message layers.
func (cy *ingestCycles) run(tr *tracer) {
	w := cy.w
	traced := tr.active()
	var filter *sbayes.Filter
	if traced {
		filter = cy.f.filters()[0]
	}
	okCycle := true
	for j := 0; j < ingestCycle; j++ {
		sub := &cy.subs[cy.next%len(cy.subs)]
		cy.next++
		id := tr.reserve()
		t0 := tr.now()
		status, _ := cy.c.post("/learn", "application/json", sub.body)
		t1 := tr.now()
		w.attempted++
		if status != http.StatusAccepted {
			w.failed++
			okCycle = false
		}
		if traced {
			req := int64(cy.next)
			tr.addID(id, "serve.request", t0, t1, 0, req)
			replayMessage(tr, id, req, wireLearn, sub.body, func(*mail.Message) *sbayes.Filter { return filter })
		}
	}

	t0 := tr.now()
	status, body := cy.c.post("/admin/flush", "application/json", nil)
	t1 := tr.now()
	w.attempted++
	var flushed serve.FlushResponse
	if status != http.StatusOK || json.Unmarshal(body, &flushed) != nil {
		w.failed++
		okCycle = false
	}
	status, body = cy.c.post("/admin/save", "application/json", nil)
	t2 := tr.now()
	w.attempted++
	var saved serve.SaveResponse
	if status != http.StatusOK || json.Unmarshal(body, &saved) != nil || len(saved.Generations) != 1 {
		w.failed++
		okCycle = false
	} else {
		gen := saved.Generations[0]
		w.checkf(gen > cy.lastGen, "cycle %d saved generation %d after %d", cy.cycles, gen, cy.lastGen)
		cy.lastGen = gen
	}
	if traced {
		tr.add("serve.flush", t0, t1, 0, 0)
		tr.add("serve.save", t1, t2, 0, 0)
	}
	if okCycle {
		w.msgs += ingestCycle
	}
	cy.cycles++
}

// checkIngest checks the write path's invariants and the trained
// state: no dictionary attack admitted, the probe budget respected,
// nothing shed and everything queued trained, the last saved snapshot
// scoring as the serving filter does, and the serving filter equal to
// the reference trained on the bootstrap corpus plus exactly the
// submissions the guard's admitter accepted.
func checkIngest(w *workloadRun, f *fleet, c *client, probes []message) {
	a := f.admit
	a.mu.Lock()
	dictAccepted, dictReleased := a.verdicts[engine.AdmitAccept][dictionary], a.released[dictionary]
	a.mu.Unlock()
	w.checkf(dictAccepted == 0 && dictReleased == 0,
		"dictionary attack admitted %d times and released from quarantine %d times", dictAccepted, dictReleased)

	rs := f.roni.Stats()
	w.checkf(float64(rs.Probes) <= roniBurst+rs.CreditsGranted,
		"RONI ran %d probes on %.2f burst + %.2f credits", rs.Probes, float64(roniBurst), rs.CreditsGranted)

	ss := f.srv.Stats()
	w.checkf(ss.LearnShed == 0, "%d learn submissions shed", ss.LearnShed)
	w.checkf(ss.LearnQueued == ss.Trained, "%d queued but %d trained", ss.LearnQueued, ss.Trained)

	// The last saved envelope must decode and score as the server does.
	var env engine.Envelope
	var restored engine.Classifier
	gens, err := f.store.Generations(servedName)
	if err == nil && len(gens) == 0 {
		err = fmt.Errorf("nothing saved")
	}
	if err == nil {
		var data []byte
		if data, err = f.store.Read(servedName, gens[len(gens)-1]); err == nil {
			env, err = engine.DecodeEnvelope(data)
		}
	}
	if err == nil {
		restored, err = engine.NewFromEnvelope(env)
	}
	if err != nil {
		w.checkf(false, "last saved snapshot: %v", err)
		return
	}
	w.checkf(env.Generation == f.guarded.Generation(), "last save is generation %d, serving %d", env.Generation, f.guarded.Generation())

	tok := f.filters()[0].Tokenizer()
	ref := newRefModel()
	for _, ex := range f.boot.Examples {
		ref.addDocument(refTokens(tok, ex.Msg), ex.Spam)
	}
	for _, acc := range a.acceptedSnapshot() {
		ref.addDocument(refTokens(tok, acc.msg), acc.spam)
	}
	var kinds [numKinds]int
	for i, pr := range probes {
		body, _ := json.Marshal(serve.ClassifyRequest{Message: serve.WireFromMail(pr.msg)})
		status, resp := c.post("/classify", "application/json", body)
		var got serve.ClassifyResponse
		if status != http.StatusOK || json.Unmarshal(resp, &got) != nil {
			w.checkf(false, "probe %d: status %d", i, status)
			continue
		}
		label, score := restored.Classify(pr.msg)
		w.checkf(label.String() == got.Label && score == got.Score,
			"probe %d: restored snapshot %s %.17g, served %s %.17g", i, label, score, got.Label, got.Score)
		want := ref.score(refTokens(tok, pr.msg))
		w.checkf(refAgree(got.Score, got.Label, want),
			"probe %d (%s): served %s %.17g, reference %s %.17g", i, kindNames[pr.kind], got.Label, got.Score, refLabel(want), want)
		kinds[pr.kind]++
	}
	w.checkf(kinds[organic] > 0 && kinds[dictionary] > 0 && kinds[focused] > 0,
		"probe set lacks a kind: %v", kinds)
}

// traceIngest alternates untraced and traced blocks of whole cycles
// (the learn loop is idle between cycles, so every admission call
// falls in the block of its cycle) and reports the write path's
// layers from spans, Stats and GET /metrics.
func traceIngest(p params, cy *ingestCycles, tr *tracer, limit time.Duration) {
	w, f := cy.w, cy.f
	w.layers = map[string]metric{}
	var plain, traced blockRate
	var tracedCycles, tracedSubs int
	var servePubs, enginePubs, depthSum float64
	var probes, arrivals, memoHits, flagged float64
	start := time.Now()
	for block := 0; time.Since(start) < limit; block++ {
		on := block%2 == 1
		tr.enabled.Store(on)
		blockStart := time.Now()
		n := 0
		for time.Since(blockStart) < traceBlock {
			s0, e0, r0, g0 := f.srv.Stats(), f.guarded.Stats(), f.roni.Stats(), f.gate.Flagged()
			cy.run(tr)
			n += ingestCycle
			if !on {
				continue
			}
			s1, e1, r1 := f.srv.Stats(), f.guarded.Stats(), f.roni.Stats()
			servePubs += float64(s1.Publishes - s0.Publishes)
			enginePubs += float64(e1.Publishes - e0.Publishes)
			probes += float64(r1.Probes - r0.Probes)
			arrivals += float64(r1.Arrivals - r0.Arrivals)
			memoHits += float64(r1.MemoHits - r0.MemoHits)
			flagged += float64(f.gate.Flagged() - g0)
			if pm, err := cy.c.scrape(); err == nil {
				if d, ok := pm.Value("admission_quarantine_depth"); ok {
					depthSum += d
				}
			}
			tracedCycles++
			tracedSubs += ingestCycle
		}
		if on {
			traced.add(n, time.Since(blockStart))
		} else {
			plain.add(n, time.Since(blockStart))
		}
	}
	tr.enabled.Store(true)

	perCycle := func(v float64) float64 { return v / float64(max(tracedCycles, 1)) }
	layers := w.layers
	layers["serve.request_us"] = metric{tr.meanUS("serve.request"), "us"}
	layers["serve.flush_ms"] = metric{tr.meanMS("serve.flush"), "ms"}
	layers["serve.save_ms"] = metric{tr.meanMS("serve.save"), "ms"}
	layers["serve.publishes_per_cycle"] = metric{perCycle(servePubs), "count"}
	layers["engine.publish_ms"] = metric{tr.meanMS("engine.publish"), "ms"}
	layers["engine.publish_self_ms"] = metric{tr.meanMS("engine.publish_self"), "ms"}
	layers["engine.publishes"] = metric{perCycle(enginePubs), "count"}
	layers["engine.save_ms"] = metric{tr.meanMS("engine.save"), "ms"}
	layers["admission.floodgate_us"] = metric{tr.meanUS("admission.floodgate"), "us"}
	layers["admission.floodgate_flagged"] = metric{flagged, "count"}
	layers["admission.roni_admit_us"] = metric{tr.meanUS("admission.roni"), "us"}
	layers["admission.roni_probes"] = metric{probes, "count"}
	if arrivals > 0 {
		layers["admission.roni_memo_hit_ratio"] = metric{memoHits / arrivals, "ratio"}
	}
	layers["admission.arrivals_per_submission"] = metric{arrivals / float64(max(tracedSubs, 1)), "ratio"}
	layers["admission.review_ms"] = metric{tr.meanMS("admission.review"), "ms"}
	layers["admission.quarantine_depth"] = metric{perCycle(depthSum), "count"}
	f.admit.mu.Lock()
	for v, vname := range []string{"accept", "quarantine", "reject"} {
		for k := kind(0); k < numKinds; k++ {
			layers[fmt.Sprintf("admission.verdicts.%s.%s", vname, kindNames[k])] = metric{float64(f.admit.verdicts[v][k]), "count"}
		}
	}
	f.admit.mu.Unlock()
	addMessageLayers(layers, tr)
	addFilterLayers(layers, f, tr)
	layers["trace.overhead_ratio"] = metric{plain.rate() / traced.rate(), "ratio"}
	fillLayers(layers)
	finishTrace(p, tr, layers)
}
