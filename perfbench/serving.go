package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/sbayes"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// The served system's settings: cmd/sbserved's flag defaults, except
// the bootstrap corpus, which is the paper's 10,000-message training
// set (Table 1, half spam) instead of the daemon's 300 + 300.
const (
	bootHam, bootSpam = 5000, 5000
	calibPool         = 200
	maxDistinct       = 2000
	roniBudget        = 0.05
	roniBurst         = 4
	swapGrant         = 4
	quarantineCap     = 256
	learnQueue        = 256
	learnBatch        = 64
	traceEvery        = 16
	traceBuf          = 1024
	servedName        = "served"
	backendName       = "sbayes"
)

// newGenerator is sbserved's (and sbload's) mail universe: 1,810
// words, so the optimal dictionary attack carries 1,810 distinct
// tokens.
func newGenerator() *textgen.Generator {
	u := textgen.MustUniverse(textgen.UniverseConfig{
		CommonWords:     50,
		StandardWords:   700,
		FormalWords:     250,
		ColloquialWords: 290,
		SpamWords:       120,
		PersonalWords:   400,
	})
	return textgen.MustNew(u, textgen.DefaultConfig())
}

// kind classifies a message the benchmark sends, so the wrapped
// admitter can split verdicts and the checks can follow attack mail.
type kind int8

const (
	organic kind = iota
	dictionary
	focused
	numKinds
)

var kindNames = [numKinds]string{"organic", "dictionary", "focused"}

// fleetConfig selects the shape of the served system.
type fleetConfig struct {
	// shards > 0 serves a guarded sharded fleet; 0 one guarded engine.
	shards int
	// users > 0 stamps every bootstrap message's To from a population
	// of that many recipients.
	users int
}

// fleet is one served system, wired as cmd/sbserved wires it: flood
// gate then incremental RONI, quarantine with post-publish review,
// one metrics registry and one decision tracer shared by every layer,
// and an in-memory snapshot store.
type fleet struct {
	srv        *serve.Server
	guarded    *engine.Guarded
	sharded    *engine.GuardedSharded
	gate       *admission.TokenFloodGate
	roni       *admission.IncrementalRONI
	quarantine *admission.Quarantine
	admit      *recordingAdmitter
	store      *timedStore
	gen        *textgen.Generator
	boot       *corpus.Corpus
	users      []string
}

// buildFleet builds the served system from the seed. With a tracer it
// also times the bootstrap's tokenize and learn calls and the
// admission links.
func buildFleet(seed uint64, cfg fleetConfig, tr *tracer) (*fleet, error) {
	b, err := engine.Lookup(backendName)
	if err != nil {
		return nil, err
	}
	gen := newGenerator()
	rng := stats.NewRNG(seed)
	reg := obs.NewRegistry()
	decisions := obs.NewTracer(traceBuf, traceEvery)

	calib := gen.Corpus(rng.Split("calib"), calibPool/2, calibPool-calibPool/2)
	roni, err := admission.NewIncrementalRONI(
		admission.IncrementalRONIConfig{BudgetPerMessage: roniBudget, Burst: roniBurst},
		calib, b.New, rng.Split("roni"))
	if err != nil {
		return nil, err
	}
	gate := admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: maxDistinct})
	// A traced run times each link; an untraced one chains the links
	// themselves, exactly as sbserved does.
	link := func(a admission.Admitter, span string) admission.Admitter {
		if tr == nil {
			return a
		}
		return &timedAdmitter{Admitter: a, tr: tr, span: span}
	}
	chain := admission.NewChain(link(gate, "admission.floodgate"), link(roni, "admission.roni"))
	quarantine := admission.NewQuarantine(admission.QuarantineConfig{Capacity: quarantineCap, Trace: decisions})
	roni.Register(reg)
	quarantine.Register(reg)

	f := &fleet{
		gate: gate, roni: roni, quarantine: quarantine, gen: gen,
		admit: newRecordingAdmitter(chain, tr),
		store: &timedStore{SnapshotStore: engine.NewMemStore(), tr: tr},
	}
	gcfg := engine.GuardedConfig{Quarantine: quarantine}
	gcfg.PrePublish = append(gcfg.PrePublish, f.admit.prePublish)
	gcfg.PostPublish = append(gcfg.PostPublish, func() {
		// sbserved's review hook: grant budget, re-vet the held mail
		// under it, and report releases rather than train them.
		start := f.admit.postStart()
		roni.Grant(swapGrant)
		released, _ := quarantine.Review(func(m *mail.Message, ts *tokenize.TokenStream, spam bool) admission.Decision {
			return chain.Admit(context.Background(), m, ts, spam)
		})
		f.admit.noteReleased(released)
		f.admit.postEnd(start)
	})

	f.boot = gen.Corpus(rng.Split("boot"), bootHam, bootSpam)
	if cfg.users > 0 {
		f.users = make([]string, cfg.users)
		for i := range f.users {
			f.users[i] = fmt.Sprintf("user%03d@bench.example", i)
		}
		urng := rng.Split("recipients")
		for _, ex := range f.boot.Examples {
			ex.Msg.Header.Set("To", f.users[urng.Intn(len(f.users))])
		}
	}

	scfg := serve.Config{
		LearnQueue: learnQueue, LearnBatch: learnBatch, RetryAfter: time.Second,
		Store: f.store, Name: servedName, Backend: backendName, Obs: reg, Trace: decisions,
	}
	if cfg.shards > 0 {
		parts := engine.PartitionByKey(f.boot, cfg.shards, engine.RecipientKey)
		clfs := make([]engine.Classifier, cfg.shards)
		for i := range clfs {
			clfs[i] = b.New()
			trainBootstrap(clfs[i], parts[i], tr)
		}
		sh := engine.NewSharded(clfs, engine.ShardedConfig{Name: servedName, Obs: reg, Trace: decisions})
		f.sharded = engine.NewGuardedSharded(sh, f.admit, gcfg)
		f.srv = serve.NewSharded(f.sharded, scfg)
	} else {
		clf := b.New()
		trainBootstrap(clf, f.boot, tr)
		e := engine.New(clf, engine.Config{Name: servedName, Obs: reg, Trace: decisions})
		f.guarded = engine.NewGuarded(e, f.admit, gcfg)
		f.srv = serve.NewSingle(f.guarded, scfg)
	}
	return f, nil
}

// trainBootstrap trains the bootstrap corpus into a fresh classifier
// before serving starts, as sbserved does. A traced run splits each
// message into its tokenize and learn calls and times both.
func trainBootstrap(clf engine.Classifier, c *corpus.Corpus, tr *tracer) {
	sf, ok := clf.(*sbayes.Filter)
	if tr == nil || !ok {
		for _, ex := range c.Examples {
			clf.Learn(ex.Msg, ex.Spam) //sbvet:unguarded benchmark bootstrap of the served filter from a locally generated corpus, as sbserved trains its own
		}
		return
	}
	tok := sf.Tokenizer()
	for _, ex := range c.Examples {
		t0 := tr.now()
		ts := tok.Stream(ex.Msg) //sbvet:retokenize traced bootstrap times tokenizing apart from learning
		t1 := tr.now()
		sf.LearnTokenStream(ts, ex.Spam, 1)
		t2 := tr.now()
		tr.add("tokenize.stream", t0, t1, 0, 0)
		tr.add("sbayes.learn", t1, t2, 0, 0)
	}
}

// close stops the server's learn loop.
func (f *fleet) close() { f.srv.Close() }

// filters returns the serving sbayes filters (one per shard).
func (f *fleet) filters() []*sbayes.Filter {
	var out []*sbayes.Filter
	if f.guarded != nil {
		clf, _ := f.guarded.Engine().Snapshot()
		if sf, ok := clf.(*sbayes.Filter); ok {
			out = append(out, sf)
		}
		return out
	}
	sh := f.sharded.Sharded()
	for i := 0; i < sh.NumShards(); i++ {
		clf, _ := sh.Shard(i).Snapshot()
		if sf, ok := clf.(*sbayes.Filter); ok {
			out = append(out, sf)
		}
	}
	return out
}

// respWriter is an in-process http.ResponseWriter that keeps the
// status and body, reused across requests.
type respWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.header }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

// client drives a handler in process, one request at a time.
type client struct {
	h http.Handler
	w respWriter
}

func newClient(h http.Handler) *client {
	return &client{h: h, w: respWriter{header: http.Header{}}}
}

// do serves one request and returns its status and body; the body is
// valid until the next call.
func (c *client) do(method, path, contentType string, body []byte) (int, []byte) {
	req, err := http.NewRequestWithContext(context.Background(), method, path, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	clear(c.w.header)
	c.w.status = 0
	c.w.body.Reset()
	c.h.ServeHTTP(&c.w, req)
	return c.w.status, c.w.body.Bytes()
}

func (c *client) post(path, contentType string, body []byte) (int, []byte) {
	return c.do(http.MethodPost, path, contentType, body)
}

// scrape reads GET /metrics through the server's own handler.
func (c *client) scrape() (*obs.ParsedMetrics, error) {
	status, body := c.do(http.MethodGet, "/metrics", "", nil)
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return obs.ParseText(bytes.NewReader(body))
}

// organicMessage draws one message of the organic mix.
func organicMessage(gen *textgen.Generator, r *stats.RNG, spamFrac float64) (*mail.Message, bool) {
	spam := r.Bernoulli(spamFrac)
	return gen.Message(r, spam), spam
}

// buildSetups builds the served system setupRounds times (see
// timeSetups), closing each build but the last, which it returns.
func buildSetups(w *workloadRun, build func() (*fleet, error)) (*fleet, error) {
	var f *fleet
	err := timeSetups(w, func() error {
		if f != nil {
			f.close()
			f = nil
		}
		var err error
		f, err = build()
		return err
	})
	return f, err
}
