package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/topology"
)

// refTopoSeed fixes the reference topology of the sweep and confidence
// workloads: the medium preset (the paper's §VI-C baseline) at the
// topology seed ppastorm uses by default. The workload seed draws the
// failure scenarios; it does not redraw the topology, whose size would
// otherwise swing the per-scenario cost by an order of magnitude.
const refTopoSeed = 1

// refTopology builds the reference topology inside a campaign.topology
// span.
func refTopology(tr *tracer, parent int) (*topology.Topology, error) {
	var topo *topology.Topology
	_, err := tr.do("campaign.topology", parent, -1, func() (err error) {
		topo, err = campaign.PresetTopology(campaign.TopoMedium, refTopoSeed)
		return err
	})
	return topo, err
}

// newEnv builds a campaign environment inside a campaign.env span.
func newEnv(tr *tracer, parent int, spec campaign.EnvSpec) (*campaign.Env, error) {
	var env *campaign.Env
	_, err := tr.do("campaign.env", parent, -1, func() (err error) {
		env, err = campaign.NewEnv(spec)
		return err
	})
	return env, err
}

// planStep times the plan step a workload runs in its set-up: one cold
// campaign.NewEnv per planner on the reference topology, each with a
// fresh plan.Context, as ppastorm does for a topology before its first
// cell. One request covers every planner. The input never changes, so
// the samples differ only by the state the host is in.
type planStep struct {
	topo     *topology.Topology
	planners []string
	lat      [][]float64 // ms, one slice per window of planStepWindow groups
}

func newPlanStep(planners []string) (*planStep, error) {
	topo, err := refTopology(nil, -1)
	if err != nil {
		return nil, err
	}
	return &planStep{topo: topo, planners: planners}, nil
}

// The plan step is timed in small groups, each after a short idle gap
// and at least planStepWarm of untimed requests, on a collected heap.
// Requests timed back to back take the speed of whatever the host ran
// just before: on a 2-vCPU VM the median of a tight loop of greedy
// requests settled at one of two levels 1.6x apart, a different one
// from run to run, while the median of groups after an idle gap moved
// only with the host's overall speed. The warm-up is a time, not a
// request count, so that the 0.06 ms greedy step warms up for as long
// as the 1 ms sa step. The workloads spread 200 groups or more (1,000
// requests or more) over the whole run, so that a passing slowdown of
// the host moves few of them. The samples fall into windows of
// planStepWindow consecutive groups (about a second), and the workloads
// report the median over the windows of each window's quantile (see
// endToEnd): on a shared host the steal time came and went from second
// to second, and a window's p95 moves only with the steal inside that
// window.
const (
	planStepGroup  = 5
	planStepGap    = 10 * time.Millisecond
	planStepWarm   = time.Millisecond
	planStepWindow = 8 // groups
)

// count is the number of requests timed so far.
func (ps *planStep) count() int {
	n := 0
	for _, w := range ps.lat {
		n += len(w)
	}
	return n
}

// sample times groups more groups of requests.
func (ps *planStep) sample(groups int) error {
	request := func() error {
		for _, p := range ps.planners {
			if _, err := campaign.NewEnv(campaign.EnvSpec{Topo: ps.topo, Planner: p, Tentative: true}); err != nil {
				return err
			}
		}
		return nil
	}
	quiesce()
	for g := 0; g < groups; g++ {
		if len(ps.lat) == 0 || len(ps.lat[len(ps.lat)-1]) == planStepWindow*planStepGroup {
			ps.lat = append(ps.lat, nil)
		}
		cur := &ps.lat[len(ps.lat)-1]
		time.Sleep(planStepGap)
		for w := time.Now(); ; {
			if err := request(); err != nil {
				return err
			}
			if time.Since(w) >= planStepWarm {
				break
			}
		}
		for i := 0; i < planStepGroup; i++ {
			t := time.Now()
			if err := request(); err != nil {
				return err
			}
			*cur = append(*cur, since(t)*1e3)
		}
	}
	return nil
}

// quiesce collects the garbage set-up left behind before a timed phase
// starts, so that a collection it triggered does not run during the
// phase (testing.B does the same before every benchmark).
func quiesce() { runtime.GC() }

// scenarioOutcome is the part of a campaign.ScenarioResult the traced
// engine runner recomputes, compared field by field.
type scenarioOutcome struct {
	failedTasks int
	recovered   bool
	latency     sim.Time
	sinkTuples  int
	loss        float64
	tentative   float64
	corrected   float64
	delays      []float64
}

func outcomeOf(r campaign.ScenarioResult) scenarioOutcome {
	return scenarioOutcome{
		failedTasks: r.FailedTasks,
		recovered:   r.Recovered,
		latency:     r.WorstLatency,
		sinkTuples:  r.SinkTuples,
		loss:        r.OutputLoss,
		tentative:   r.TentativeFrac,
		corrected:   r.CorrectedFrac,
		delays:      append([]float64(nil), r.CorrectionDelays...),
	}
}

func (a scenarioOutcome) equal(b scenarioOutcome) bool {
	if a.failedTasks != b.failedTasks || a.recovered != b.recovered || a.latency != b.latency ||
		a.sinkTuples != b.sinkTuples || a.loss != b.loss || a.tentative != b.tentative ||
		a.corrected != b.corrected || len(a.delays) != len(b.delays) {
		return false
	}
	for i := range a.delays {
		if a.delays[i] != b.delays[i] {
			return false
		}
	}
	return true
}

// engineTally accumulates the traced engine runner's measurements.
type engineTally struct {
	runMS, newMS, resetUS, statsUS, setupUS []float64
	allocKB                                 []float64
	runs                                    int
	sinkTuples, failedTasks, unrecovered    int
	tentative, corrected                    int
	procCPU, ckptCPU                        float64
}

// engineSample runs scenarios itself, the way campaign.Run does inside
// its workers but with a span around every layer call:
// Env.SetupFor -> engine.New (first scenario) or Reset (later ones) ->
// ScheduleNodeFailures + Run -> the stats accessors. Each outcome must
// equal the result campaign.Run streamed for the same scenario (want,
// keyed by scenario index).
func engineSample(tr *tracer, parent int, r *report, et *engineTally, setup func() (engine.Setup, error),
	scs []campaign.Scenario, horizon sim.Time, base int, want map[int]scenarioOutcome) error {
	var e *engine.Engine
	var ms runtime.MemStats
	for _, sc := range scs {
		req := sc.Index
		if e == nil {
			var s engine.Setup
			d, err := tr.do("cluster.setup", parent, req, func() (err error) {
				s, err = setup()
				return err
			})
			if err != nil {
				return err
			}
			et.setupUS = append(et.setupUS, d*1e6)
			d, err = tr.do("engine.new", parent, req, func() (err error) {
				e, err = engine.New(s)
				return err
			})
			if err != nil {
				return err
			}
			et.newMS = append(et.newMS, d*1e3)
		} else {
			d, _ := tr.do("engine.reset", parent, req, func() error { e.Reset(); return nil })
			et.resetUS = append(et.resetUS, d*1e6)
		}
		// Reading the allocation count stops the world, so it is part
		// of the tracing and the untraced runner (nil tr) skips it.
		var before uint64
		if tr != nil {
			runtime.ReadMemStats(&ms)
			before = ms.TotalAlloc
		}
		d, _ := tr.do("engine.run", parent, req, func() error {
			for _, w := range sc.Waves {
				e.ScheduleNodeFailures(w.Nodes, w.At)
			}
			e.Run(horizon)
			return nil
		})
		if tr != nil {
			runtime.ReadMemStats(&ms)
			et.allocKB = append(et.allocKB, float64(ms.TotalAlloc-before)/1024)
		}
		et.runMS = append(et.runMS, d*1e3)

		var (
			got  = scenarioOutcome{recovered: true}
			acc  engine.AccuracyStats
			recs []engine.RecoveryStat
			cpu  []engine.CPUStat
		)
		d, _ = tr.do("engine.stats", parent, req, func() error {
			got.sinkTuples = e.SinkTupleCount()
			acc = e.AccuracyStats()
			recs = e.RecoveryStats()
			cpu = e.CPUStats()
			return nil
		})
		et.statsUS = append(et.statsUS, d*1e6)

		// The outcome as campaign.Run derives it from the same accessors.
		got.tentative = acc.TentativeFraction()
		got.corrected = acc.CorrectedFraction()
		for _, cd := range acc.CorrectionDelays {
			got.delays = append(got.delays, float64(cd))
		}
		for _, st := range recs {
			got.failedTasks++
			if !st.Recovered {
				got.recovered = false
				et.unrecovered++
				continue
			}
			got.latency = max(got.latency, st.RecoveredAt-st.DetectedAt)
		}
		if base > 0 {
			got.loss = 1 - float64(got.sinkTuples)/float64(base)
		}
		et.runs++
		et.sinkTuples += got.sinkTuples
		et.failedTasks += got.failedTasks
		et.tentative += acc.TentativeBatches
		et.corrected += acc.CorrectedBatches
		for _, c := range cpu {
			et.procCPU += float64(c.ProcCPU)
			et.ckptCPU += float64(c.CkptCPU)
		}
		w, ok := want[sc.Index]
		r.check(ok && w.equal(got), "traced engine run of scenario %d (%s) differs from campaign.Run's result", sc.Index, sc.Label)
	}
	return nil
}

// traceCost measures the tracing overhead where the traced runners
// trace densely: the engine runner over the same scenarios with spans
// and allocation readings, and without either. The order alternates
// from one sample to the next, so a drift of the host's speed during
// the run does not fall on one side only.
type traceCost struct {
	traced, untraced float64 // seconds
	runs, samples    int
}

// engineSample runs engineSample over scs untraced and traced, in the
// order the sample count so far gives. The untraced run's results are
// checked too; its tally is discarded.
func (tc *traceCost) engineSample(tr *tracer, parent int, r *report, et *engineTally, setup func() (engine.Setup, error),
	scs []campaign.Scenario, horizon sim.Time, base int, want map[int]scenarioOutcome) error {
	untraced := func() error {
		id := tr.begin(untracedLayer+".engine_sample", parent, -1)
		t := time.Now()
		err := engineSample(nil, -1, r, &engineTally{}, setup, scs, horizon, base, want)
		tc.untraced += since(t)
		tr.end(id)
		return err
	}
	traced := func() error {
		t := time.Now()
		err := engineSample(tr, parent, r, et, setup, scs, horizon, base, want)
		tc.traced += since(t)
		return err
	}
	first, second := untraced, traced
	if tc.samples%2 == 1 {
		first, second = traced, untraced
	}
	tc.samples++
	tc.runs += len(scs)
	if err := first(); err != nil {
		return err
	}
	return second()
}

func (tc *traceCost) report(r *report) {
	r.set("trace.overhead_pct", 100*(tc.traced-tc.untraced)/tc.untraced, "%",
		fmt.Sprintf("engine runner over the same %d scenarios in %d samples of alternating order: traced %.3f s vs untraced %.3f s",
			tc.runs, tc.samples, tc.traced, tc.untraced))
}

func (et *engineTally) report(r *report) {
	r.set("engine.runs", float64(et.runs), "count", "exact: scenarios the traced engine runner ran (base of the engine.* figures)")
	r.set("engine.run_ms_p50", quantile(et.runMS, 0.50), "ms", fmt.Sprintf("ScheduleNodeFailures+Run, n=%d", len(et.runMS)))
	r.set("engine.run_ms_p99", quantile(et.runMS, 0.99), "ms", fmt.Sprintf("n=%d", len(et.runMS)))
	r.set("engine.alloc_kb_per_run", median(et.allocKB), "KB", "median bytes allocated by one Run")
	r.set("engine.new_ms", median(et.newMS), "ms", fmt.Sprintf("median, n=%d", len(et.newMS)))
	r.set("engine.reset_us", median(et.resetUS), "us", fmt.Sprintf("median, n=%d", len(et.resetUS)))
	r.set("engine.stats_us", median(et.statsUS), "us", "median of SinkTupleCount+AccuracyStats+RecoveryStats+CPUStats")
	r.set("engine.sink_tuples", float64(et.sinkTuples), "count", "exact")
	r.set("engine.failed_tasks", float64(et.failedTasks), "count", "exact")
	r.set("engine.unrecovered", float64(et.unrecovered), "count", "exact: failed tasks not caught up by the horizon")
	r.set("engine.tentative_batches", float64(et.tentative), "count", "exact")
	r.set("engine.corrected_batches", float64(et.corrected), "count", "exact")
	share := 0.0
	if t := et.procCPU + et.ckptCPU; t > 0 {
		share = et.ckptCPU / t
	}
	r.set("engine.ckpt_cpu_share", share, "ratio", "exact: modelled checkpoint CPU / (processing + checkpoint) CPU")
	r.set("cluster.setup_us", median(et.setupUS), "us", fmt.Sprintf("Env.SetupFor (domains + placement), median, n=%d", len(et.setupUS)))
}

// sketchProbe times the sketch layer on a workload's real loss stream:
// Add into an unweighted sketch, Add with unit weight into a weighted
// one, and the codec and merge on sketches built from the stream. Each
// operation repeats until it has run for a few milliseconds, so the
// per-call figures are not clock-resolution noise.
func sketchProbe(tr *tracer, parent int, r *report, losses []float64) error {
	if len(losses) == 0 {
		return fmt.Errorf("sketch probe: empty loss stream")
	}
	const minSpan = 20 * time.Millisecond
	repeat := func(name string, f func() int) float64 {
		id := tr.begin(name, parent, -1)
		t := time.Now()
		calls := 0
		for calls == 0 || time.Since(t) < minSpan {
			calls += f()
		}
		d := since(t)
		tr.end(id)
		return d / float64(calls)
	}
	addNS := repeat("sketch.add", func() int {
		s := sketch.NewSeeded(campaign.SketchK, 1)
		for _, x := range losses {
			s.Add(x)
		}
		return len(losses)
	}) * 1e9
	waddNS := repeat("sketch.weighted_add", func() int {
		s := sketch.NewSeededWeighted(campaign.SketchK, 1)
		for _, x := range losses {
			s.Add(x, 1)
		}
		return len(losses)
	}) * 1e9

	half := len(losses) / 2
	whole, a, b := sketch.NewSeeded(campaign.SketchK, 1), sketch.NewSeeded(campaign.SketchK, 2), sketch.NewSeeded(campaign.SketchK, 3)
	for i, x := range losses {
		whole.Add(x)
		if i < half {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	state, err := whole.MarshalBinary()
	if err != nil {
		return err
	}
	aState, err := a.MarshalBinary()
	if err != nil {
		return err
	}
	var codecErr error
	marshalUS := repeat("sketch.marshal", func() int {
		if _, err := whole.MarshalBinary(); err != nil {
			codecErr = err
		}
		return 1
	}) * 1e6
	unmarshalUS := repeat("sketch.unmarshal", func() int {
		var s sketch.Sketch
		if err := s.UnmarshalBinary(state); err != nil {
			codecErr = err
		}
		return 1
	}) * 1e6
	// Merge mutates its receiver, so every call merges b into a fresh,
	// untimed decode of a.
	mergeID := tr.begin("sketch.merge", parent, -1)
	var merged time.Duration
	merges := 0
	for merges == 0 || merged < minSpan {
		var s sketch.Sketch
		if err := s.UnmarshalBinary(aState); err != nil {
			return err
		}
		t := time.Now()
		s.Merge(b)
		merged += time.Since(t)
		merges++
	}
	tr.end(mergeID)
	mergeUS := merged.Seconds() / float64(merges) * 1e6
	if codecErr != nil {
		return codecErr
	}
	var round sketch.Sketch
	r.check(round.UnmarshalBinary(state) == nil && round.Count() == uint64(len(losses)),
		"sketch codec round trip lost samples")
	n := fmt.Sprintf("stream of %d losses", len(losses))
	r.set("sketch.add_ns", addNS, "ns", n)
	r.set("sketch.weighted_add_ns", waddNS, "ns", n+", unit weight")
	r.set("sketch.marshal_us", marshalUS, "us", n)
	r.set("sketch.unmarshal_us", unmarshalUS, "us", n)
	r.set("sketch.merge_us", mergeUS, "us", "merge of the two halves of the stream")
	r.set("sketch.state_bytes", float64(len(state)), "B", "exact: encoded sketch of the whole stream")
	return nil
}

// runtimeMetrics reports the Go runtime's GC figures: the cumulative
// GC CPU fraction of the process and the collections since gcBefore.
func runtimeMetrics(r *report, gcBefore uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("runtime.gc_cpu_fraction", ms.GCCPUFraction, "ratio", "since process start")
	r.set("runtime.num_gc", float64(ms.NumGC-gcBefore), "count", "during the workload's traced runner; not exact")
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// workerSet is a coord.Pool with n in-process workers, each serving the
// protocol over its own net.Pipe. The coordinator's ends count the
// bytes that cross them.
type workerSet struct {
	pool   *coord.Pool
	bytes  atomic.Int64
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// countingConn counts every byte read from or written to a connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// workerHeartbeat is the workers' heartbeat period. The pool reports
// progress on heartbeats, so a short period keeps
// coord.scenarios_executed within a few scenarios of the truth; the
// heartbeat frames are a small share of coord.bytes_moved.
const workerHeartbeat = 100 * time.Millisecond

// startWorkers connects n workers to a new pool and waits until every
// one has completed the protocol handshake.
func startWorkers(n int, heartbeat time.Duration, opts coord.PoolOptions) (*workerSet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ws := &workerSet{pool: coord.NewPool(opts), cancel: cancel}
	for i := 0; i < n; i++ {
		a, b := net.Pipe()
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			defer b.Close()
			// The worker ends on shutdown, EOF or cancel; its error
			// says which and is of no further use here.
			_ = coord.ServeWorker(ctx, b, b, coord.WorkerOptions{HeartbeatInterval: heartbeat})
		}()
		ws.pool.AddConn(countingConn{a, &ws.bytes})
	}
	wctx, wcancel := context.WithTimeout(ctx, time.Minute)
	defer wcancel()
	if err := ws.pool.WaitReady(wctx, n); err != nil {
		ws.close()
		return nil, err
	}
	return ws, nil
}

// close shuts the workers down and waits until each has returned.
func (ws *workerSet) close() {
	ws.pool.Close()
	ws.cancel()
	ws.wg.Wait()
}

// antiAffinity is the placement policy of every workload.
const antiAffinity = cluster.PlacementAntiAffinity
