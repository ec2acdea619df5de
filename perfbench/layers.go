package main

import (
	"bytes"
	"encoding/json"
	"time"

	"repro/internal/mail"
	"repro/internal/sbayes"
	"repro/internal/serve"
)

// traceBlock is the length of one block of a traced run; blocks
// alternate untraced and traced, so both rates see the same drift.
const traceBlock = 500 * time.Millisecond

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"serve.request_us", "us"},
	{"serve.self_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.alloc_kb_per_req", "KB"},
	{"serve.batch_serial_ms", "ms"},
	{"serve.flush_ms", "ms"},
	{"serve.save_ms", "ms"},
	{"serve.publishes_per_cycle", "count"},
	{"tokenize.stream_us", "us"},
	{"tokenize.distinct_per_msg", "count"},
	{"sbayes.score_us", "us"},
	{"sbayes.learn_us", "us"},
	{"sbayes.clone_ms", "ms"},
	{"sbayes.vocab", "count"},
	{"sbayes.snapshot_kb", "KB"},
	{"sbayes.attack_learn_ms", "ms"},
	{"engine.classify_us", "us"},
	{"engine.batch_ms", "ms"},
	{"engine.shard_max_share", "ratio"},
	{"engine.publish_ms", "ms"},
	{"engine.publish_self_ms", "ms"},
	{"engine.publishes", "count"},
	{"engine.save_ms", "ms"},
	{"admission.floodgate_us", "us"},
	{"admission.floodgate_flagged", "count"},
	{"admission.roni_admit_us", "us"},
	{"admission.roni_probes", "count"},
	{"admission.roni_memo_hit_ratio", "ratio"},
	{"admission.arrivals_per_submission", "ratio"},
	{"admission.review_ms", "ms"},
	{"admission.quarantine_depth", "count"},
	{"admission.verdicts.accept.organic", "count"},
	{"admission.verdicts.accept.dictionary", "count"},
	{"admission.verdicts.accept.focused", "count"},
	{"admission.verdicts.quarantine.organic", "count"},
	{"admission.verdicts.quarantine.dictionary", "count"},
	{"admission.verdicts.quarantine.focused", "count"},
	{"admission.verdicts.reject.organic", "count"},
	{"admission.verdicts.reject.dictionary", "count"},
	{"admission.verdicts.reject.focused", "count"},
	{"eval.train_ms", "ms"},
	{"eval.tokenize_ms", "ms"},
	{"eval.evaluate_ms", "ms"},
	{"core.attack_build_ms", "ms"},
	{"textgen.pool_s", "s"},
	{"lexicon.usenet_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// fillLayers adds every per-layer metric the workload did not set, as
// 0 in its unit.
func fillLayers(layers map[string]metric) {
	for _, l := range perLayer {
		if _, ok := layers[l.name]; !ok {
			layers[l.name] = metric{0, l.unit}
		}
	}
}

// blockRate accumulates operations and time over a run's blocks.
type blockRate struct {
	n int
	d time.Duration
}

func (b *blockRate) add(n int, d time.Duration) { b.n += n; b.d += d }

func (b blockRate) rate() float64 {
	if b.d <= 0 {
		return 0
	}
	return float64(b.n) / b.d.Seconds()
}

// wireKind names the request body a replayed message came in.
type wireKind int

const (
	wireClassify wireKind = iota // POST /classify body
	wireLine                     // one NDJSON line of POST /classify/batch
	wireLearn                    // POST /learn body
)

// replayMessage replays one served message through the per-message
// layers' public calls, each a child span of the request: the wire
// decode, the tokenizer and sbayes score of the filter that serves it
// (filterFor), and the wire encode of the verdict. It returns the
// decoded message.
func replayMessage(tr *tracer, parent int32, req int64, wk wireKind, body []byte, filterFor func(*mail.Message) *sbayes.Filter) *mail.Message {
	t0 := tr.now()
	var wm serve.WireMessage
	switch wk {
	case wireClassify:
		var r serve.ClassifyRequest
		json.Unmarshal(body, &r)
		wm = r.Message
	case wireLine:
		json.Unmarshal(body, &wm)
	case wireLearn:
		var r serve.LearnRequest
		json.Unmarshal(body, &r)
		wm = r.Message
	}
	m := wm.Mail()
	filter := filterFor(m)
	t1 := tr.now()
	ts := filter.Tokenizer().Stream(m) //sbvet:retokenize traced replay times the tokenizer on its own
	t2 := tr.now()
	label, score := filter.ClassifyTokenStream(ts)
	t3 := tr.now()
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(serve.ClassifyResponse{Label: label.String(), Score: score, Generation: 1})
	t4 := tr.now()
	tr.add("serve.decode", t0, t1, parent, req)
	tr.add("tokenize.stream", t1, t2, parent, req)
	tr.add("sbayes.score", t2, t3, parent, req)
	tr.add("serve.encode", t3, t4, parent, req)
	tr.count("tokenize.distinct", float64(ts.Len()))
	tr.count("tokenize.messages", 1)
	return m
}

// addMessageLayers reports the per-message replay spans.
func addMessageLayers(layers map[string]metric, tr *tracer) {
	layers["serve.decode_us"] = metric{tr.meanUS("serve.decode"), "us"}
	layers["serve.encode_us"] = metric{tr.meanUS("serve.encode"), "us"}
	layers["tokenize.stream_us"] = metric{tr.meanUS("tokenize.stream"), "us"}
	layers["sbayes.score_us"] = metric{tr.meanUS("sbayes.score"), "us"}
	if n := tr.counter("tokenize.messages"); n > 0 {
		layers["tokenize.distinct_per_msg"] = metric{tr.counter("tokenize.distinct") / n, "count"}
	}
}

// cloneRounds is how many timed clones of each serving filter a
// traced run makes.
const cloneRounds = 8

// addFilterLayers reports the serving filters' state and the timed
// bootstrap learns, and times clones of the serving filters: the
// whole fleet's vocabulary, snapshot size and clone time.
func addFilterLayers(layers map[string]metric, f *fleet, tr *tracer) {
	var vocab, snapBytes int
	var cloneTotal time.Duration
	for _, sf := range f.filters() {
		vocab += sf.VocabSize()
		var buf bytes.Buffer
		if err := sf.Save(&buf); err == nil {
			snapBytes += buf.Len()
		}
		for i := 0; i < cloneRounds; i++ {
			t0 := tr.now()
			sf.Clone()
			t1 := tr.now()
			tr.add("sbayes.clone", t0, t1, 0, 0)
			cloneTotal += t1 - t0
		}
	}
	layers["sbayes.vocab"] = metric{float64(vocab), "count"}
	layers["sbayes.snapshot_kb"] = metric{float64(snapBytes) / 1024, "KB"}
	layers["sbayes.clone_ms"] = metric{float64(cloneTotal) / cloneRounds / float64(time.Millisecond), "ms"}
	layers["sbayes.learn_us"] = metric{tr.meanUS("sbayes.learn"), "us"}
}
