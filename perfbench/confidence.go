package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/sim"
)

// The confidence workload: a StopTol campaign (greedy plan, cascade
// bursts, horizon 60 s, tolerance 0.002) in shard blocks of 100
// scenarios, run through coord.Pool with one range per worker. The stop
// fires after 200 to 1,500 scenarios depending on the seed; the cap of
// 3,200 keeps every stop inside the first range, so the coordinator
// waits for both ranges to finish and the work it schedules past the
// stop stays visible. One range per worker makes that wait the same on
// every job: with the pool's default of four, a worker that finishes
// its first range before the range holding the stop picks up another,
// and the coordinator waits for that one too, so the job time would
// flip between one and two range times from run to run.
const (
	confScenarios = 3200
	confShards    = 32
	confTol       = 0.002
	confHorizon   = sim.Time(60)
	confSample    = 64 // summarised scenarios the traced engine runner reruns

	confPlanGroups = 80 // plan-step groups before the jobs, after every job and after the reference run

	probeConfScenarios = 400
	probeConfShards    = 4
	probeConfSample    = 8
)

type confSetup struct {
	env      *campaign.Env
	wire     campaign.WireSpec
	cfg      campaign.Config // as every worker rebuilds it: Workers = 1
	block    int
	ws       *workerSet
	executed atomic.Int64 // highest scenario count the pool reported in the current job
}

// buildConfidence sets the workload up: topology and plan, the capped
// scenario list, the baseline the coordinator ships to its workers, and
// nproc in-process workers that have completed the handshake.
func buildConfidence(tr *tracer, parent int, seed int64, scenarios, shards int) (*confSetup, error) {
	topo, err := refTopology(tr, parent)
	if err != nil {
		return nil, err
	}
	spec := campaign.EnvSpec{Topo: topo, Planner: "greedy", Tentative: true}
	env, err := newEnv(tr, parent, spec)
	if err != nil {
		return nil, err
	}
	gen := campaign.GenSpec{Seed: seed, Scenarios: scenarios, Model: campaign.Cascade, Correlation: campaign.DefaultCorrelation}
	s := &confSetup{env: env}
	if s.wire, err = campaign.NewWireSpec(spec, []campaign.GenSpec{gen}); err != nil {
		return nil, err
	}
	s.wire.Horizon, s.wire.Workers, s.wire.Shards, s.wire.StopTol = confHorizon, 1, shards, confTol

	// The Config the workers rebuild from the wire spec; the output
	// check compares the coordinator's summary with campaign.Run on it.
	var scs []campaign.Scenario
	if _, err := tr.do("campaign.generate", parent, -1, func() error {
		c, err := env.Cluster()
		if err != nil {
			return err
		}
		scs, err = campaign.Generate(c, gen)
		return err
	}); err != nil {
		return nil, err
	}
	s.cfg = campaign.Config{Setup: env.Setup, Scenarios: scs, Horizon: confHorizon, Workers: 1, Shards: shards, StopTol: confTol}
	s.block = (scenarios + shards - 1) / shards
	if _, err := tr.do("campaign.baseline", parent, -1, func() (err error) {
		s.cfg.Baseline, err = campaign.BaselineVolume(s.cfg)
		return err
	}); err != nil {
		return nil, err
	}
	s.wire.Baseline = s.cfg.Baseline

	_, err = tr.do("coord.ready", parent, -1, func() (err error) {
		s.ws, err = startWorkers(nproc(), workerHeartbeat, coord.PoolOptions{RangesPerWorker: 1, OnProgress: func(done int) {
			for {
				cur := s.executed.Load()
				if int64(done) <= cur || s.executed.CompareAndSwap(cur, int64(done)) {
					return
				}
			}
		}})
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// reference runs the same Config single-process at nproc workers.
func (s *confSetup) reference(tr *tracer, parent int) (*campaign.Report, float64, error) {
	cfg := s.cfg
	cfg.Workers = nproc()
	var rep *campaign.Report
	d, err := tr.do("campaign.run", parent, -1, func() (err error) {
		rep, err = campaign.Run(cfg)
		return err
	})
	return rep, d, err
}

// jobRun is what one job returned.
type jobRun struct {
	rep     *campaign.Report
	seconds float64 // from submit until RunJob returned
	// executed is the scenarios the workers ran for the job, as their
	// heartbeats and range results reported it (OnProgress). It is not
	// exact: a worker's count reaches the coordinator on its heartbeat,
	// so the figure can trail the work by one heartbeat per worker.
	// Every summarised scenario ran, so it is at least that many.
	executed int
}

// job submits the campaign to the pool and waits for the stopped
// report.
func (s *confSetup) job(tr *tracer, parent int) (jobRun, error) {
	s.executed.Store(0)
	s.ws.bytes.Store(0)
	var out jobRun
	d, err := tr.do("coord.job", parent, -1, func() (err error) {
		out.rep, err = s.ws.pool.RunJob(context.Background(), s.wire)
		return err
	})
	if err != nil {
		return out, err
	}
	out.seconds = d
	out.executed = max(int(s.executed.Load()), out.rep.Summary.Scenarios)
	return out, nil
}

// checkJob compares a distributed report with the single-process one:
// the same summary digest and the same stop decision. Where the stop
// falls is a property of the seed's scenarios, not of the program, so
// it is printed, not checked.
func (s *confSetup) checkJob(r *report, rep, ref *campaign.Report) {
	r.check(campaign.SummaryDigest(rep.Summary) == campaign.SummaryDigest(ref.Summary) && rep.Stopped == ref.Stopped,
		"coord summary (%d scenarios, stopped=%v) differs from campaign.Run's (%d scenarios, stopped=%v)",
		rep.Summary.Scenarios, rep.Stopped, ref.Summary.Scenarios, ref.Stopped)
	fmt.Printf("stop: stopped=%v after %d scenarios (%d of %d shard blocks)\n",
		rep.Stopped, rep.Summary.Scenarios, (rep.Summary.Scenarios+s.block-1)/s.block, (len(s.cfg.Scenarios)+s.block-1)/s.block)
}

// runConfidence is the timed workload: jobs until the run time is spent,
// then one single-process run of the same Config as the reference every
// job's summary must equal.
func runConfidence(o options, r *report) error {
	s, setupS, err := setupRounds(setupRoundCount,
		func() (*confSetup, error) { return buildConfidence(nil, -1, o.seed, confScenarios, confShards) },
		func(s *confSetup) { s.ws.close() })
	if err != nil {
		return err
	}
	defer s.ws.close()
	ps, err := newPlanStep([]string{"greedy"})
	if err != nil {
		return err
	}
	if err := ps.sample(confPlanGroups); err != nil {
		return err
	}

	var (
		times    []float64
		reps     []*campaign.Report
		executed int
		rss      []float64
	)
	quiesce()
	w := watchRSS()
	defer w.close()
	start := time.Now()
	for len(times) == 0 || since(start) < o.seconds {
		j, err := s.job(nil, -1)
		if err != nil {
			return err
		}
		rss = append(rss, w.peak())
		times = append(times, j.seconds)
		reps = append(reps, j.rep)
		executed += j.executed
		r.ops(1 + j.rep.Summary.Scenarios)
		if err := ps.sample(confPlanGroups); err != nil {
			return err
		}
		w.peak() // the next job's window starts after the plan step
	}
	ref, _, err := s.reference(nil, -1)
	if err != nil {
		return err
	}
	r.ops(ref.Summary.Scenarios)
	for _, rep := range reps {
		s.checkJob(r, rep, ref)
	}
	if err := ps.sample(confPlanGroups); err != nil {
		return err
	}
	r.ops(ps.count())
	// The rate counts the scenarios the workers ran, not the ones
	// summarised: the stop point moves with the seed (200 to 1,500
	// scenarios), so a rate of summarised scenarios would measure the
	// seed rather than the program.
	endToEnd{
		scenariosPerS: float64(executed) / sum(times),
		timeToCI:      median(times),
		planLat:       ps.lat,
		setup:         setupS,
		rss:           rss,
	}.report(r,
		fmt.Sprintf("scenarios the workers ran (%d over %d jobs, from OnProgress, not exact; cap %d, %d summarised per job) per second of job time",
			executed, len(times), len(s.cfg.Scenarios), reps[0].Summary.Scenarios),
		fmt.Sprintf("median of %d jobs, %d workers over net.Pipe, cap %d", len(times), nproc(), confScenarios),
		"the workload's cold plan step, NewEnv for greedy on the reference topology",
		"topology, plan, scenarios, baseline, worker readiness",
		"jobs")
	return nil
}

// traceConfidence is the confidence workload's traced runner: a traced
// set-up, a traced job, the single-process reference run, a
// block-by-block replay of the stop rule through the public range API,
// the engine runner over a sample of the summarised scenarios (traced
// and untraced, for the tracing overhead), and the sketch layer on the
// replay's loss stream.
func traceConfidence(o options, r *report, tr *tracer, parent int, probe bool) error {
	scenarios, shards, sample := confScenarios, confShards, confSample
	if probe {
		scenarios, shards, sample = probeConfScenarios, probeConfShards, probeConfSample
	}
	gc0 := numGC()
	s, err := buildConfidence(tr, parent, o.seed, scenarios, shards)
	if err != nil {
		return err
	}
	defer s.ws.close()

	// The job carries one span, around RunJob, so its time is the
	// untraced time.
	j, err := s.job(tr, parent)
	if err != nil {
		return err
	}
	rep, moved := j.rep, s.ws.bytes.Load()
	r.ops(1 + rep.Summary.Scenarios)

	before := totalAlloc()
	ref, refS, err := s.reference(tr, parent)
	if err != nil {
		return err
	}
	alloc := totalAlloc() - before
	s.checkJob(r, rep, ref)

	// Replay the stop rule one shard block at a time, as the
	// coordinator and campaign.Run both do internally.
	cfg := s.cfg
	cfg.Workers = nproc()
	results := map[int]scenarioOutcome{}
	var losses []float64
	cfg.OnResult = func(res campaign.ScenarioResult) {
		results[res.Scenario.Index] = outcomeOf(res)
		losses = append(losses, res.OutputLoss)
	}
	mon := campaign.NewStopMonitor(cfg)
	var states []campaign.ShardState
	checks := 0
	for lo := 0; lo < len(cfg.Scenarios) && !mon.Fired(); lo += s.block {
		hi := min(lo+s.block, len(cfg.Scenarios))
		var st []campaign.ShardState
		if _, err := tr.do("campaign.run_range", parent, lo/s.block, func() (err error) {
			st, err = campaign.RunRange(cfg, campaign.Range{Lo: lo, Hi: hi})
			return err
		}); err != nil {
			return err
		}
		states = append(states, st...)
		if _, err := tr.do("campaign.stop_observe", parent, lo/s.block, func() error { return mon.Observe(st[0]) }); err != nil {
			return err
		}
		checks++
	}
	var merged campaign.Summary
	mergeS, err := tr.do("campaign.merge", parent, -1, func() (err error) {
		merged, err = campaign.MergeShardStates(states)
		return err
	})
	if err != nil {
		return err
	}
	r.check(campaign.SummaryDigest(merged) == campaign.SummaryDigest(ref.Summary),
		"block-by-block replay summary (%d scenarios) differs from campaign.Run's (%d)", merged.Scenarios, ref.Summary.Scenarios)
	r.ops(merged.Scenarios)

	var scs []campaign.Scenario
	for k := 0; k < sample; k++ {
		scs = append(scs, cfg.Scenarios[k*merged.Scenarios/sample])
	}
	// The sample runs in four parts, so that the tracing overhead
	// alternates its order.
	var (
		et engineTally
		tc traceCost
	)
	for k := 0; k < 4; k++ {
		part := scs[k*len(scs)/4 : (k+1)*len(scs)/4]
		if err := tc.engineSample(tr, parent, r, &et, s.env.Setup, part, confHorizon, cfg.Baseline, results); err != nil {
			return err
		}
	}
	r.ops(2 * len(scs))
	if err := sketchProbe(tr, parent, r, losses); err != nil {
		return err
	}

	if !probe {
		tc.report(r)
	}
	r.set("campaign.env_s", sum(tr.durations("campaign.env", parent)), "s", "NewEnv (includes the greedy plan)")
	r.set("campaign.generate_s", sum(tr.durations("campaign.generate", parent)), "s", fmt.Sprintf("%d cascade scenarios", scenarios))
	r.set("campaign.baseline_s", sum(tr.durations("campaign.baseline", parent)), "s", "")
	r.set("campaign.run_s", refS, "s", "single-process campaign.Run of the same Config at nproc workers")
	r.set("campaign.alloc_mb_per_scenario", float64(alloc)/float64(ref.Summary.Scenarios)/(1<<20), "MB", "bytes allocated by that run / scenarios it summarised")
	r.set("campaign.stop_checks", float64(checks), "count", "exact: StopMonitor.Observe calls until the rule fired")
	r.set("campaign.stop_observe_us", median(tr.durations("campaign.stop_observe", parent))*1e6, "us", fmt.Sprintf("median, n=%d", checks))
	r.set("campaign.merge_ms", mergeS*1e3, "ms", fmt.Sprintf("MergeShardStates of %d shard states", len(states)))
	r.set("campaign.scenarios_summarised", float64(merged.Scenarios), "count", "exact")
	et.report(r)
	readyS := sum(tr.durations("coord.ready", parent))
	r.set("coord.ready_ms", readyS*1e3, "ms", fmt.Sprintf("%d in-process workers to handshake", nproc()))
	r.set("coord.scenarios_executed", float64(j.executed), "count", "not exact: from OnProgress, depends on heartbeat and cancel timing")
	r.set("coord.useful_ratio", float64(rep.Summary.Scenarios)/float64(j.executed), "ratio", "summarised / executed; not exact")
	r.set("coord.bytes_moved", float64(moved), "B", "both directions on the coordinator's pipe ends; not exact")
	r.set("coord.overhead_x", j.seconds/refS, "x", fmt.Sprintf("time to the stop via coord %.3f s / single-process campaign.Run %.3f s", j.seconds, refS))
	runtimeMetrics(r, gc0)
	return nil
}
