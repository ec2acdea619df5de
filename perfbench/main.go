// Command perfbench is the repository's benchmark: one process that
// runs one workload against the program's own layers, checks every
// output against a computation made apart from the program, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// one JSON object on the last line of standard output.
//
// Usage, from the root of the checkout:
//
//	bash perfbench/run.sh --workload deliver --seed 1 --seconds 15 --trace 0
//
// Workloads: deliver, bulk, ingest, exhibit (see README.md). The seed
// is the only source of the inputs; the program receives only the
// messages generated from it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart approximates the process start: package variables are
// initialized before main runs, so set-up is timed from here.
var processStart = time.Now()

// setupRounds is how many times a run builds its whole set-up; setup_s
// is the median, so one slow build does not move it.
const setupRounds = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are the command-line arguments every workload receives.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// workloadRun is what one workload hands back: operation counts, the
// per-operation latencies of the timed phase, the messages it counted,
// the set-up durations, the failed checks, and the per-layer metrics
// (traced runs only).
type workloadRun struct {
	attempted, failed int64
	latencies         []time.Duration
	msgs              int64
	elapsed           time.Duration
	cpu               time.Duration
	allocBytes        uint64
	setups            []time.Duration
	problems          []string
	layers            map[string]metric
}

func (w *workloadRun) checkf(ok bool, format string, args ...any) {
	if !ok {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(p params) (*workloadRun, error){
	"deliver": runDeliver,
	"bulk":    runBulk,
	"ingest":  runIngest,
	"exhibit": runExhibit,
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload to run: deliver, bulk, ingest or exhibit")
	flag.Uint64Var(&p.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&p.seconds, "seconds", 15, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	p.trace = trace == 1

	run, ok := workloads[p.workload]
	if !ok || p.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload deliver|bulk|ingest|exhibit, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	// GOMAXPROCS at most the CPUs present; before Go 1.25 the runtime
	// does not read a container's CPU quota, so this is the host count.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))

	wr, err := run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.workload, err)
		os.Exit(1)
	}
	res := result{
		Correct:   len(wr.problems) == 0,
		Attempted: wr.attempted,
		Failed:    wr.failed,
	}
	if p.trace {
		res.Metrics = wr.layers
	} else {
		res.Metrics = endToEnd(wr)
	}
	for _, msg := range wr.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", p.workload, msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// endToEnd derives the user-visible metrics from a workload's timed
// phase.
func endToEnd(w *workloadRun) map[string]metric {
	lat := append([]time.Duration(nil), w.latencies...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	msgs := float64(max(w.msgs, 1))
	return map[string]metric{
		"setup_s":          {median(w.setups).Seconds(), "s"},
		"latency_p50_ms":   {ms(quantile(lat, 0.50)), "ms"},
		"msgs_per_s":       {float64(w.msgs) / w.elapsed.Seconds(), "msg/s"},
		"cpu_us_per_msg":   {float64(w.cpu) / float64(time.Microsecond) / msgs, "us"},
		"alloc_kb_per_msg": {float64(w.allocBytes) / 1024 / msgs, "KB"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
}

// timeSetups runs build setupRounds times after a full collection
// each, timing every round (the first from process start) into
// w.setups.
func timeSetups(w *workloadRun, build func() error) error {
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		runtime.GC()
		if err := build(); err != nil {
			return err
		}
		w.setups = append(w.setups, time.Since(start))
	}
	return nil
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the middle of ds (the mean of the middle two for an even
// count).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative heap bytes allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB is the process's peak resident set in MB (Linux reports
// ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter brackets a timed phase: wall time, process CPU and heap bytes
// allocated between start and stop.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter {
	runtime.GC()
	return meter{wall: time.Now(), cpu: cpuTime(), alloc: totalAlloc()}
}

// stop records the phase into w.
func (m meter) stop(w *workloadRun) {
	w.elapsed = time.Since(m.wall)
	w.cpu = cpuTime() - m.cpu
	w.allocBytes = totalAlloc() - m.alloc
}
