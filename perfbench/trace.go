package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/tokenize"
)

// traceDir is where a traced run writes its spans, inside the
// checkout's build directory.
const traceDir = ".bench_build/traces"

// maxKeptSpans bounds the spans a traced run keeps for writing out;
// the per-name aggregates count every span either way.
const maxKeptSpans = 200_000

// span is one timed call the benchmark made into a layer, or one call
// a layer made into an interface the benchmark supplied. Times are
// nanoseconds since the tracer started; Parent is the id of the span
// that caused it (0 for none) and Req the request it belongs to.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	n     int64
	total time.Duration
}

// tracer records spans in memory and writes them out when the run
// ends. A nil tracer records nothing, and recording can be paused so a
// traced run can alternate traced and untraced blocks.
type tracer struct {
	t0      time.Time
	enabled atomic.Bool

	mu      sync.Mutex
	nextID  int32
	spans   []span
	dropped int64
	agg     map[string]*spanAgg
	counts  map[string]float64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), agg: map[string]*spanAgg{}, counts: map[string]float64{}}
	t.enabled.Store(true)
	return t
}

// active reports whether spans are being recorded right now.
func (t *tracer) active() bool { return t != nil && t.enabled.Load() }

// now is the time since the tracer started.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// reserve allocates a span id ahead of recording the span, so children
// finishing first can name their parent.
func (t *tracer) reserve() int32 {
	if !t.active() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records one span and returns its id.
func (t *tracer) add(name string, start, end time.Duration, parent int32, req int64) int32 {
	if !t.active() {
		return 0
	}
	return t.addID(t.reserve(), name, start, end, parent, req)
}

// addID records a span under a reserved id.
func (t *tracer) addID(id int32, name string, start, end time.Duration, parent int32, req int64) int32 {
	if !t.active() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.n++
	a.total += end - start
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(start), End: int64(end), Parent: parent, Req: req})
	} else {
		t.dropped++
	}
	return id
}

// count adds v to a named counter recorded at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// stat returns the number of spans of a name and their mean duration.
func (t *tracer) stat(name string) (int64, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil || a.n == 0 {
		return 0, 0
	}
	return a.n, a.total / time.Duration(a.n)
}

// meanUS and meanMS are a span name's mean duration in µs and ms.
func (t *tracer) meanUS(name string) float64 {
	_, d := t.stat(name)
	return float64(d) / float64(time.Microsecond)
}

func (t *tracer) meanMS(name string) float64 {
	_, d := t.stat(name)
	return float64(d) / float64(time.Millisecond)
}

// counter returns a named counter's total.
func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// write stores the kept spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace writes the spans out and adds the tracer's own
// bookkeeping to the per-layer metrics.
func finishTrace(p params, tr *tracer, layers map[string]metric) {
	file := fmt.Sprintf("%s-seed%d.jsonl", p.workload, p.seed)
	if err := tr.write(traceDir, file); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	tr.mu.Lock()
	kept, dropped := len(tr.spans), tr.dropped
	tr.mu.Unlock()
	layers["trace.spans"] = metric{float64(int64(kept) + dropped), "count"}
}

// timedAdmitter times one admission link. It forwards the link's
// durable state, so the chain saves and restores exactly what it would
// without the wrapper.
type timedAdmitter struct {
	admission.Admitter
	tr   *tracer
	span string
}

func (a *timedAdmitter) Admit(ctx context.Context, m *mail.Message, ts *tokenize.TokenStream, spam bool) admission.Decision {
	if !a.tr.active() {
		return a.Admitter.Admit(ctx, m, ts, spam)
	}
	t0 := a.tr.now()
	d := a.Admitter.Admit(ctx, m, ts, spam)
	a.tr.add(a.span, t0, a.tr.now(), 0, 0)
	return d
}

func (a *timedAdmitter) SaveState(w io.Writer) error {
	if p, ok := a.Admitter.(engine.AdmissionStatePersister); ok {
		return p.SaveState(w)
	}
	return nil
}

func (a *timedAdmitter) LoadState(r io.Reader) error {
	if p, ok := a.Admitter.(engine.AdmissionStatePersister); ok {
		return p.LoadState(r)
	}
	return nil
}

// accepted is one submission the guard's admitter accepted.
type accepted struct {
	msg  *mail.Message
	spam bool
}

// recordingAdmitter is the Admitter the benchmark hands the guard: it
// runs the admission chain and records every decision by the kind of
// mail submitted, and the submissions it accepted, which are exactly
// what the guard trains. Traced, it also times each decision and,
// with the publish hooks below, each publish from its first admission
// call to the end of its PostPublish hook.
type recordingAdmitter struct {
	chain *admission.Chain
	tr    *tracer
	// kinds maps a submitted body to its kind; written before the
	// timed phase, read-only after.
	kinds map[string]kind

	mu       sync.Mutex
	verdicts [3][numKinds]int64
	released [numKinds]int64
	accepts  []accepted

	// Publish timing of a traced run.
	inPublish  bool
	pubStart   time.Duration
	admitTotal time.Duration
}

func newRecordingAdmitter(chain *admission.Chain, tr *tracer) *recordingAdmitter {
	return &recordingAdmitter{chain: chain, tr: tr, kinds: map[string]kind{}}
}

func (a *recordingAdmitter) Name() string { return a.chain.Name() }

func (a *recordingAdmitter) Admit(ctx context.Context, m *mail.Message, ts *tokenize.TokenStream, spam bool) admission.Decision {
	traced := a.tr.active()
	var t0 time.Duration
	if traced {
		t0 = a.tr.now()
	}
	d := a.chain.Admit(ctx, m, ts, spam)
	k := a.kinds[m.Body]
	a.mu.Lock()
	defer a.mu.Unlock()
	if v := int(d.Verdict); v >= 0 && v < len(a.verdicts) {
		a.verdicts[v][k]++
	}
	if d.Verdict == engine.AdmitAccept {
		a.accepts = append(a.accepts, accepted{msg: m, spam: spam})
	}
	if traced {
		t1 := a.tr.now()
		if !a.inPublish {
			a.inPublish, a.pubStart, a.admitTotal = true, t0, 0
		}
		a.admitTotal += t1 - t0
		a.tr.add("admission.admit", t0, t1, 0, 0)
	}
	return d
}

func (a *recordingAdmitter) SaveState(w io.Writer) error { return a.chain.SaveState(w) }
func (a *recordingAdmitter) LoadState(r io.Reader) error { return a.chain.LoadState(r) }

// noteReleased counts the held submissions a quarantine review
// released, by kind.
func (a *recordingAdmitter) noteReleased(released []admission.HeldMessage) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, h := range released {
		a.released[a.kinds[h.Msg.Body]]++
	}
}

// prePublish is the benchmark's PrePublish hook: it changes nothing
// and, traced, marks where clone and train ended.
func (a *recordingAdmitter) prePublish(engine.Classifier) error {
	if !a.tr.active() {
		return nil
	}
	t := a.tr.now()
	a.tr.add("engine.prepublish", t, t, 0, 0)
	return nil
}

// postStart and postEnd bracket the PostPublish hook.
func (a *recordingAdmitter) postStart() time.Duration { return a.tr.now() }

func (a *recordingAdmitter) postEnd(start time.Duration) {
	if !a.tr.active() {
		return
	}
	end := a.tr.now()
	a.tr.add("admission.review", start, end, 0, 0)
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPublish {
		return
	}
	a.inPublish = false
	total := end - a.pubStart
	self := total - a.admitTotal - (end - start)
	a.tr.add("engine.publish", a.pubStart, end, 0, 0)
	a.tr.add("engine.publish_self", a.pubStart, a.pubStart+self, 0, 0)
}

// acceptedSnapshot copies the accepted submissions.
func (a *recordingAdmitter) acceptedSnapshot() []accepted {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]accepted(nil), a.accepts...)
}

// timedStore is the SnapshotStore the benchmark hands the server; a
// traced run times its Write calls.
type timedStore struct {
	engine.SnapshotStore
	tr *tracer
}

func (s *timedStore) Write(name string, gen uint64, data []byte) error {
	if !s.tr.active() {
		return s.SnapshotStore.Write(name, gen, data)
	}
	t0 := s.tr.now()
	err := s.SnapshotStore.Write(name, gen, data)
	s.tr.add("engine.save", t0, s.tr.now(), 0, 0)
	return err
}
