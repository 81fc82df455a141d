// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads against the library packages and prints a
// human-readable report followed, as the last line of standard output,
// by one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//   - sweep: the reference single-process ppastorm sweep (medium preset
//     topology, planners sa and greedy, anti-affinity placement, all four
//     burst models, horizon 150 s, tentative outputs, Workers = nproc).
//   - confidence: a StopTol campaign run through coord.Pool against
//     nproc in-process workers over net.Pipe, timed from submit until
//     the stopped report returns.
//   - plan: cold correlation-aware planning requests (sa-corr and
//     structured-corr at a 30 % budget) over a fleet of medium random
//     topologies drawn from the seed, issued one at a time.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it runs the traced runners instead, which record spans around calls
// into each package (campaign, engine, cluster, plan, sketch, coord)
// and report the per-layer metrics. The seed only chooses inputs: the
// same seed gives the same scenarios, topologies and plans.
//
// Every run checks the program's outputs. A failed check is counted in
// "failed", sets "correct" to false and makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// options are the command-line inputs shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// workload runs one workload: timed end-to-end measurement, or the
// traced per-layer run.
type workload struct {
	name string
	why  string
	run  func(o options, r *report) error
	// traced runs the workload's own traced runner at full size
	// (probe false) or at probe size (probe true). A traced run of one
	// workload runs the other workloads' runners at probe size first,
	// so that every per-layer metric is measured in every traced run.
	traced func(o options, r *report, tr *tracer, parent int, probe bool) error
	// inclusive names, per layer, the work of other layers its self
	// time holds because it runs inside a call the benchmark can only
	// trace from outside.
	inclusive map[string]string
}

var workloads = []workload{
	{
		name:   "sweep",
		why:    "reference ppastorm sweep: the engine and sim kernel do nearly all the work",
		run:    runSweep,
		traced: traceSweep,
		inclusive: map[string]string{
			"campaign": "includes the engine and sim work campaign.Run does inside it",
			"engine":   "only the engine runner's reruns; the engine work inside campaign.Run counts as campaign",
		},
	},
	{
		name:   "confidence",
		why:    "StopTol campaign over coord: range execution, shard-state codec, merge and stop monitor",
		run:    runConfidence,
		traced: traceConfidence,
		inclusive: map[string]string{
			"coord":    "includes the engine and sim work the workers do inside RunJob",
			"campaign": "includes the engine and sim work inside campaign.Run and RunRange",
			"engine":   "only the engine runner's reruns; the engine work inside RunJob, campaign.Run and RunRange counts as coord or campaign",
		},
	},
	{
		name:   "plan",
		why:    "cold sa-corr and structured-corr planning requests over a fleet of random topologies",
		run:    runPlan,
		traced: tracePlan,
	},
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sweep, confidence or plan")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: chooses scenarios, topologies and fleet")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long the timed phase measures at least (it always completes whole units of work)")
	flag.IntVar(&trace, "trace", 0, "0 = timed end-to-end run, 1 = traced per-layer run")
	flag.StringVar(&o.outDir, "out", ".bench_build/spans", "directory for span files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %v", o.seconds))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fail(fmt.Errorf("unknown --workload %q (known: %s)", o.workload, strings.Join(names, ", ")))
	}

	r := newReport()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v nproc=%d %s\n",
		w.name, o.seed, o.seconds, o.trace, nproc(), runtime.Version())
	fmt.Printf("why: %s\n", w.why)
	var err error
	if o.trace {
		err = runTraced(o, w, r)
	} else {
		err = w.run(o, r)
	}
	if err != nil {
		// An operation that errors is a failed run, not a measurement.
		fail(err)
	}
	r.print(os.Stdout)
	if r.failed > 0 {
		os.Exit(1)
	}
}

// nproc is the worker and connection count of every workload.
func nproc() int { return runtime.NumCPU() }

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the run's metrics and its operation tally.
type report struct {
	metrics   map[string]metric
	notes     map[string]string
	attempted int
	failed    int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; note, when non-empty, is printed next to it in
// the human-readable report (sample counts, exactness, provenance).
func (r *report) set(name string, value float64, unit, note string) {
	r.metrics[name] = metric{value, unit}
	if note != "" {
		r.notes[name] = note
	} else {
		delete(r.notes, name)
	}
}

// ops counts n operations (scenarios, jobs, plan requests) that
// completed without error.
func (r *report) ops(n int) { r.attempted += n }

// check counts one output check and records it as failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (r *report) print(f *os.File) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", n, m.Value, m.Unit)
		if note := r.notes[n]; note != "" {
			line += "  " + note
		}
		fmt.Fprintln(f, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(f, "operations attempted=%d failed=%d\n", r.attempted, r.failed)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(f, string(b))
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// quantile returns the nearest-rank q-quantile of xs (campaign.NewDist
// uses the same rule); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupRounds runs a workload's set-up n times and returns the state
// of the last round with the median round time. Earlier rounds are
// released with drop. Set-up is repeated so that setup_s is a median,
// not one noisy sample; the garbage of every round is collected before
// the next.
func setupRounds[T any](n int, build func() (T, error), drop func(T)) (T, float64, error) {
	var (
		cur   T
		times []float64
	)
	quiesce()
	for i := 0; i < n; i++ {
		t := time.Now()
		v, err := build()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, since(t))
		if i > 0 {
			drop(cur)
		}
		cur = v
		quiesce()
	}
	return cur, median(times), nil
}

// setupRoundCount is how many times each workload sets up per run.
const setupRoundCount = 15

// rssWatch samples the process's resident set size every rssEvery and
// keeps the largest value seen since the last call of peak. The timed
// runners call peak once per pass or job and report the median. How
// high the sweep's memory goes depends on when the collector finishes
// a cycle relative to the workers' multi-megabyte checkpoint bodies:
// the process's high-water mark over a whole run swung from 68 to
// 97 MB between runs of the same code on a 2-vCPU VM.
type rssWatch struct {
	mu   sync.Mutex
	max  float64
	stop chan struct{}
	done chan struct{}
}

const rssEvery = 10 * time.Millisecond

// watchRSS starts the sampler. Where /proc/self/statm cannot be read,
// peak falls back to the Go runtime's total obtained memory.
func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	w.max = rssMB()
	go func() {
		defer close(w.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				m := rssMB()
				w.mu.Lock()
				w.max = max(w.max, m)
				w.mu.Unlock()
			}
		}
	}()
	return w
}

// peak returns the largest resident set size in MB since the previous
// call (or the start) and starts a new window at the current size.
func (w *rssWatch) peak() float64 {
	cur := rssMB()
	w.mu.Lock()
	defer w.mu.Unlock()
	p := max(w.max, cur)
	w.max = cur
	if p == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p = float64(ms.Sys) / (1 << 20)
	}
	return p
}

// close stops the sampler and waits until it has returned.
func (w *rssWatch) close() {
	close(w.stop)
	<-w.done
}

// rssMB reads the resident set size in MB from /proc/self/statm; 0 when
// it cannot.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

// endToEnd records the metrics every untraced run reports.
type endToEnd struct {
	scenariosPerS float64
	timeToCI      float64
	planLat       [][]float64 // ms, one slice per window
	setup         float64
	rss           []float64 // MB, the peak of every pass or job
}

func (e endToEnd) report(r *report, rateNote, ttcNote, planNote, setupNote, rssNote string) {
	r.set("scenarios_per_s", e.scenariosPerS, "1/s", rateNote)
	r.set("time_to_ci_s", e.timeToCI, "s", ttcNote)
	// A quantile is taken per window and the median over the windows
	// is reported: a slowdown of the host that lasts one window (a
	// burst of steal time, a neighbour's job) then moves no figure,
	// while pooled over the run its slow requests land above the p95.
	var p50, p95 []float64
	n := 0
	for _, w := range e.planLat {
		p50 = append(p50, quantile(w, 0.50))
		p95 = append(p95, quantile(w, 0.95))
		n += len(w)
	}
	note := fmt.Sprintf("n=%d in %d windows, median of the windows' quantiles: %s", n, len(e.planLat), planNote)
	r.set("plan_p50_ms", median(p50), "ms", note)
	r.set("plan_p95_ms", median(p95), "ms", note)
	r.set("setup_s", e.setup, "s", fmt.Sprintf("median of %d set-ups: %s", setupRoundCount, setupNote))
	r.set("peak_rss_mb", median(e.rss), "MB", fmt.Sprintf("resident set sampled every %v, median over %d %s of each one's peak", rssEvery, len(e.rss), rssNote))
}
