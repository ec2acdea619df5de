package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/mail"
	"repro/internal/sbayes"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Organic traffic is 60% ham and 40% spam (sbload's default mix).
const organicSpamFrac = 0.4

// deliverPool is the number of distinct messages deliver cycles
// through; refSample of them are checked against the reference.
const (
	deliverPool = 4096
	refSample   = 256
)

// message is one generated input with its pre-encoded request body.
type message struct {
	msg  *mail.Message
	spam bool
	kind kind
	body []byte
}

// runDeliver is single-message POST /classify against one guarded
// engine: one closed-loop caller, no batching, no sharding, no
// admission traffic.
func runDeliver(p params) (*workloadRun, error) {
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

	rng := stats.NewRNG(p.seed).Split("deliver-traffic")
	pool := make([]message, deliverPool)
	for i := range pool {
		m, spam := organicMessage(f.gen, rng, organicSpamFrac)
		body, err := json.Marshal(serve.ClassifyRequest{Message: serve.WireFromMail(m)})
		if err != nil {
			return nil, err
		}
		pool[i] = message{msg: m, spam: spam, body: body}
	}
	c := newClient(f.srv)

	// Warm-up: one pass over the reference sample, whose responses are
	// kept for the reference check (the model does not change).
	sample := make([]serve.ClassifyResponse, refSample)
	for i := range sample {
		status, body := c.post("/classify", "application/json", pool[i].body)
		if status != http.StatusOK || json.Unmarshal(body, &sample[i]) != nil {
			return nil, fmt.Errorf("warm-up classify: status %d: %s", status, body)
		}
	}

	if p.trace {
		if err := traceDeliver(p, w, f, c, pool, tr); err != nil {
			return nil, err
		}
		checkDeliverReference(w, f, pool, sample)
		return w, nil
	}

	limit := time.Duration(p.seconds * float64(time.Second))
	m := startMeter()
	for i := 0; time.Since(m.wall) < limit; i++ {
		body := pool[i%len(pool)].body
		t0 := time.Now()
		status, _ := c.post("/classify", "application/json", body)
		w.latencies = append(w.latencies, time.Since(t0))
		w.attempted++
		if status != http.StatusOK {
			w.failed++
		}
	}
	m.stop(w)
	w.msgs = w.attempted - w.failed

	checkDeliverReference(w, f, pool, sample)
	return w, nil
}

// checkDeliverReference compares the sampled verdicts with the
// reference scorer trained on the bootstrap corpus.
func checkDeliverReference(w *workloadRun, f *fleet, pool []message, sample []serve.ClassifyResponse) {
	tok := f.filters()[0].Tokenizer()
	ref := newRefModel()
	for _, ex := range f.boot.Examples {
		ref.addDocument(refTokens(tok, ex.Msg), ex.Spam)
	}
	var kinds [2]int
	for i, got := range sample {
		want := ref.score(refTokens(tok, pool[i].msg))
		w.checkf(refAgree(got.Score, got.Label, want),
			"deliver message %d: served %s %.17g, reference %s %.17g", i, got.Label, got.Score, refLabel(want), want)
		if pool[i].spam {
			kinds[1]++
		} else {
			kinds[0]++
		}
	}
	w.checkf(kinds[0] > 0 && kinds[1] > 0, "reference sample lacks a kind: %d ham, %d spam", kinds[0], kinds[1])
}

// traceDeliver alternates untraced and traced blocks of requests. In
// a traced block each request is followed by a replay of its message
// through the layers' public calls: wire decode, tokenize, sbayes
// score, engine classify and wire encode, each a child span of the
// request.
func traceDeliver(p params, w *workloadRun, f *fleet, c *client, pool []message, tr *tracer) error {
	filter := f.filters()[0]
	w.layers = map[string]metric{}

	// Allocation per request: a block of prepared requests served with
	// nothing else running.
	const allocBlock = 1024
	reqs := make([]*http.Request, allocBlock)
	for i := range reqs {
		r, err := http.NewRequest(http.MethodPost, "/classify", bytes.NewReader(pool[i%len(pool)].body))
		if err != nil {
			return err
		}
		r.Header.Set("Content-Type", "application/json")
		reqs[i] = r
	}
	rw := &respWriter{header: http.Header{}}
	before := totalAlloc()
	for _, r := range reqs {
		rw.status = 0
		rw.body.Reset()
		f.srv.ServeHTTP(rw, r)
	}
	allocPerReq := float64(totalAlloc()-before) / allocBlock / 1024

	var plain, traced blockRate
	limit := time.Duration(p.seconds * float64(time.Second))
	start := time.Now()
	i := 0
	for block := 0; time.Since(start) < limit; block++ {
		on := block%2 == 1
		tr.enabled.Store(on)
		blockStart := time.Now()
		n := 0
		for time.Since(blockStart) < traceBlock {
			msg := &pool[i%len(pool)]
			i++
			reqID := int64(i)
			id := tr.reserve()
			t0 := tr.now()
			status, _ := c.post("/classify", "application/json", msg.body)
			t1 := tr.now()
			w.attempted++
			if status != http.StatusOK {
				w.failed++
			}
			n++
			if !on {
				continue
			}
			tr.addID(id, "serve.request", t0, t1, 0, reqID)
			m := replayMessage(tr, id, reqID, wireClassify, msg.body, func(*mail.Message) *sbayes.Filter { return filter })
			a := tr.now()
			f.guarded.Classify(m)
			tr.add("engine.classify", a, tr.now(), id, reqID)
		}
		if on {
			traced.add(n, time.Since(blockStart))
		} else {
			plain.add(n, time.Since(blockStart))
		}
	}
	tr.enabled.Store(true)

	layers := w.layers
	req := tr.meanUS("serve.request")
	layers["serve.request_us"] = metric{req, "us"}
	layers["serve.self_us"] = metric{req - tr.meanUS("engine.classify"), "us"}
	layers["serve.alloc_kb_per_req"] = metric{allocPerReq, "KB"}
	layers["engine.classify_us"] = metric{tr.meanUS("engine.classify"), "us"}
	addMessageLayers(layers, tr)
	addFilterLayers(layers, f, tr)
	layers["trace.overhead_ratio"] = metric{plain.rate() / traced.rate(), "ratio"}
	fillLayers(layers)
	finishTrace(p, tr, layers)
	return nil
}
