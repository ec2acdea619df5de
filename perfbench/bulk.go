package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/mail"
	"repro/internal/sbayes"
	"repro/internal/serve"
	"repro/internal/stats"
)

// The bulk fleet: more shards than the 2 cores of the reference host,
// recipients drawn from a fixed user population, NDJSON requests of a
// few hundred messages (the server scores them in chunks of 64).
const (
	bulkShards    = 4
	bulkUsers     = 64
	bulkBatch     = 256
	bulkBatches   = 16
	bulkChunk     = 64
	ndjsonContent = "application/x-ndjson"
)

// batchReq is one pre-encoded NDJSON request and its messages.
type batchReq struct {
	msgs  []message
	lines [][]byte
	body  []byte
}

// runBulk is NDJSON POST /classify/batch against a guarded sharded
// fleet: the workload through engine.Sharded routing and the
// ParallelFor worker pool.
func runBulk(p params) (*workloadRun, error) {
	w := &workloadRun{}
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	f, err := buildSetups(w, func() (*fleet, error) {
		return buildFleet(p.seed, fleetConfig{shards: bulkShards, users: bulkUsers}, tr)
	})
	if err != nil {
		return nil, err
	}
	defer f.close()

	rng := stats.NewRNG(p.seed).Split("bulk-traffic")
	batches := make([]batchReq, bulkBatches)
	for b := range batches {
		var body bytes.Buffer
		for i := 0; i < bulkBatch; i++ {
			m, spam := organicMessage(f.gen, rng, organicSpamFrac)
			m.Header.Set("To", f.users[rng.Intn(len(f.users))])
			line, err := json.Marshal(serve.WireFromMail(m))
			if err != nil {
				return nil, err
			}
			batches[b].msgs = append(batches[b].msgs, message{msg: m, spam: spam})
			batches[b].lines = append(batches[b].lines, line)
			body.Write(line)
			body.WriteByte('\n')
		}
		batches[b].body = body.Bytes()
	}
	c := newClient(f.srv)
	for b := range batches {
		if status, body := c.post("/classify/batch", ndjsonContent, batches[b].body); !batchOK(status, body) {
			return nil, fmt.Errorf("warm-up batch: status %d", status)
		}
	}

	if p.trace {
		if err := traceBulk(p, w, f, c, batches, tr); err != nil {
			return nil, err
		}
	} else {
		limit := time.Duration(p.seconds * float64(time.Second))
		m := startMeter()
		for i := 0; time.Since(m.wall) < limit; i++ {
			t0 := time.Now()
			status, body := c.post("/classify/batch", ndjsonContent, batches[i%len(batches)].body)
			w.latencies = append(w.latencies, time.Since(t0))
			w.attempted++
			if batchOK(status, body) {
				w.msgs += bulkBatch
			} else {
				w.failed++
			}
		}
		m.stop(w)
	}
	checkBulk(w, f, c, batches[0])
	return w, nil
}

// batchOK reports whether a batch response is a 200 with one verdict
// line per message and no in-stream error.
func batchOK(status int, body []byte) bool {
	return status == http.StatusOK && bytes.Count(body, []byte{'\n'}) == bulkBatch &&
		!bytes.Contains(body, []byte(`"error"`))
}

// checkBulk checks one batch three ways: its NDJSON verdicts must
// equal single-message verdicts for the same messages in order, and
// every verdict must match the reference scorer of the shard its
// recipient routes to, trained on that shard's bootstrap partition.
func checkBulk(w *workloadRun, f *fleet, c *client, b batchReq) {
	status, body := c.post("/classify/batch", ndjsonContent, b.body)
	if !batchOK(status, body) {
		w.checkf(false, "check batch: status %d", status)
		return
	}
	var batch []serve.ClassifyResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var r serve.ClassifyResponse
		if err := dec.Decode(&r); err != nil {
			w.checkf(false, "check batch: %v", err)
			return
		}
		batch = append(batch, r)
	}
	tok := f.filters()[0].Tokenizer()
	refs := make([]*refModel, bulkShards)
	for i := range refs {
		refs[i] = newRefModel()
	}
	for _, ex := range f.boot.Examples {
		refs[refShard(ex.Msg, bulkShards)].addDocument(refTokens(tok, ex.Msg), ex.Spam)
	}
	var kinds [2]int
	for i, m := range b.msgs {
		got := batch[i]
		body, _ := json.Marshal(serve.ClassifyRequest{Message: serve.WireFromMail(m.msg)})
		status, resp := c.post("/classify", "application/json", body)
		var single serve.ClassifyResponse
		if status != http.StatusOK || json.Unmarshal(resp, &single) != nil {
			w.checkf(false, "check single %d: status %d", i, status)
			continue
		}
		w.checkf(single.Label == got.Label && single.Score == got.Score,
			"message %d: batch %s %.17g, single %s %.17g", i, got.Label, got.Score, single.Label, single.Score)
		want := refs[refShard(m.msg, bulkShards)].score(refTokens(tok, m.msg))
		w.checkf(refAgree(got.Score, got.Label, want),
			"message %d: served %s %.17g, reference %s %.17g", i, got.Label, got.Score, refLabel(want), want)
		if m.spam {
			kinds[1]++
		} else {
			kinds[0]++
		}
	}
	w.checkf(kinds[0] > 0 && kinds[1] > 0, "reference sample lacks a kind: %d ham, %d spam", kinds[0], kinds[1])
}

// traceBulk alternates untraced and traced blocks of batch requests.
// In a traced block each request is followed by replays of its chunks
// through GuardedSharded.ClassifyBatch (engine.batch) and of each of
// its messages through the per-message layers.
func traceBulk(p params, w *workloadRun, f *fleet, c *client, batches []batchReq, tr *tracer) error {
	filters := f.filters()
	sh := f.sharded.Sharded()
	shardFilter := func(m *mail.Message) *sbayes.Filter { return filters[sh.ShardFor(m)] }
	w.layers = map[string]metric{}
	var plain, traced blockRate
	var serial time.Duration
	var shareSum float64
	var chunks, requests int
	limit := time.Duration(p.seconds * float64(time.Second))
	start := time.Now()
	i := 0
	for block := 0; time.Since(start) < limit; block++ {
		on := block%2 == 1
		tr.enabled.Store(on)
		blockStart := time.Now()
		n := 0
		for time.Since(blockStart) < traceBlock {
			b := &batches[i%len(batches)]
			i++
			reqID := int64(i)
			id := tr.reserve()
			t0 := tr.now()
			status, body := c.post("/classify/batch", ndjsonContent, b.body)
			t1 := tr.now()
			w.attempted++
			if !batchOK(status, body) {
				w.failed++
			}
			n += bulkBatch
			if !on {
				continue
			}
			tr.addID(id, "serve.request", t0, t1, 0, reqID)
			var inEngine time.Duration
			for lo := 0; lo < bulkBatch; lo += bulkChunk {
				chunk := make([]*mail.Message, 0, bulkChunk)
				var per [bulkShards]int
				for _, line := range b.lines[lo : lo+bulkChunk] {
					m := replayMessage(tr, id, reqID, wireLine, line, shardFilter)
					chunk = append(chunk, m)
					per[sh.ShardFor(m)]++
				}
				a := tr.now()
				if _, err := f.sharded.ClassifyBatch(context.Background(), chunk); err != nil {
					return err
				}
				z := tr.now()
				tr.add("engine.batch", a, z, id, reqID)
				inEngine += z - a
				most := 0
				for _, k := range per {
					most = max(most, k)
				}
				shareSum += float64(most) / float64(len(chunk))
				chunks++
			}
			serial += (t1 - t0) - inEngine
			requests++
		}
		if on {
			traced.add(n, time.Since(blockStart))
		} else {
			plain.add(n, time.Since(blockStart))
		}
	}
	tr.enabled.Store(true)

	layers := w.layers
	layers["serve.request_us"] = metric{tr.meanUS("serve.request"), "us"}
	layers["serve.batch_serial_ms"] = metric{float64(serial) / float64(max(requests, 1)) / float64(time.Millisecond), "ms"}
	layers["engine.batch_ms"] = metric{tr.meanMS("engine.batch"), "ms"}
	layers["engine.shard_max_share"] = metric{shareSum / float64(max(chunks, 1)), "ratio"}
	addMessageLayers(layers, tr)
	addFilterLayers(layers, f, tr)
	layers["trace.overhead_ratio"] = metric{plain.rate() / traced.rate(), "ratio"}
	fillLayers(layers)
	finishTrace(p, tr, layers)
	return nil
}
