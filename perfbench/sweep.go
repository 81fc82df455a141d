package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// The reference sweep: ppastorm's defaults (medium preset, planners sa
// and greedy, anti-affinity placement, all four burst models, fail-at
// 30.5 s, correlation 0.5, horizon 150 s, tentative outputs) at 150
// scenarios per cell.
const (
	sweepPerCell   = 150
	sweepHorizon   = sim.Time(150)
	sweepFailAt    = sim.Time(30.5)
	sweepSampleLen = 16 // scenarios per cell the traced engine runner reruns

	probeSweepPerCell   = 8
	probeSweepSampleLen = 2
)

var sweepPlanners = []string{"sa", "greedy"}

// sweepCell is one planner × burst-model campaign of the sweep.
type sweepCell struct {
	planner string
	model   campaign.Model
	env     *campaign.Env
	cfg     campaign.Config
}

type sweepSetup struct {
	perCell int
	cells   []sweepCell
}

// buildSweep sets the sweep up: topology, one environment (and plan)
// per planner, the scenarios of every burst model, and the failure-free
// baseline of every planner.
func buildSweep(tr *tracer, parent int, seed int64, perCell int) (*sweepSetup, error) {
	topo, err := refTopology(tr, parent)
	if err != nil {
		return nil, err
	}
	s := &sweepSetup{perCell: perCell}
	envs := make([]*campaign.Env, len(sweepPlanners))
	for i, p := range sweepPlanners {
		if envs[i], err = newEnv(tr, parent, campaign.EnvSpec{Topo: topo, Planner: p, Tentative: true}); err != nil {
			return nil, err
		}
	}
	// Every planner's environment has the same cluster layout, so one
	// scenario list per model serves all planners, as in ppastorm.
	var scenarios [][]campaign.Scenario
	for _, m := range campaign.Models {
		var scs []campaign.Scenario
		_, err := tr.do("campaign.generate", parent, -1, func() error {
			c, err := envs[0].Cluster()
			if err != nil {
				return err
			}
			scs, err = campaign.Generate(c, campaign.GenSpec{
				Seed:        seed,
				Scenarios:   perCell,
				Model:       m,
				FailAt:      campaign.Ptr(sweepFailAt),
				Correlation: campaign.DefaultCorrelation,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, scs)
	}
	for i, p := range sweepPlanners {
		cfg := campaign.Config{
			Setup:     envs[i].SetupFor(antiAffinity),
			Scenarios: scenarios[0],
			Horizon:   sweepHorizon,
			Workers:   nproc(),
		}
		_, err := tr.do("campaign.baseline", parent, -1, func() (err error) {
			cfg.Baseline, err = campaign.BaselineVolume(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		for j, m := range campaign.Models {
			c := cfg
			c.Scenarios = scenarios[j]
			s.cells = append(s.cells, sweepCell{planner: p, model: m, env: envs[i], cfg: c})
		}
	}
	return s, nil
}

// cellRun is what one campaign.Run of a cell returned.
type cellRun struct {
	seconds float64
	summary campaign.Summary
	results map[int]scenarioOutcome // when keep was set: every result by index
	losses  []float64
	alloc   uint64
}

// runCell runs one cell and checks its output: the scenario count, and
// that every loss and fraction lies in [0, 1]. With keep, it retains
// every streamed result for the traced engine runner's comparison.
func (s *sweepSetup) runCell(tr *tracer, parent, req int, r *report, c sweepCell, keep bool) (cellRun, error) {
	var out cellRun
	if keep {
		out.results = map[int]scenarioOutcome{}
	}
	streamed, inRange := 0, true
	cfg := c.cfg
	cfg.OnResult = func(res campaign.ScenarioResult) {
		streamed++
		for _, v := range []float64{res.OutputLoss, res.TentativeFrac, res.CorrectedFrac} {
			if v < 0 || v > 1 {
				inRange = false
			}
		}
		if keep {
			out.results[res.Scenario.Index] = outcomeOf(res)
			out.losses = append(out.losses, res.OutputLoss)
		}
	}
	var rep *campaign.Report
	var before uint64
	if tr != nil {
		before = totalAlloc()
	}
	d, err := tr.do("campaign.run", parent, req, func() (err error) {
		rep, err = campaign.Run(cfg)
		return err
	})
	if err != nil {
		return out, fmt.Errorf("sweep cell %s/%s: %w", c.planner, c.model, err)
	}
	if tr != nil {
		out.alloc = totalAlloc() - before
	}
	out.seconds, out.summary = d, rep.Summary
	r.ops(rep.Summary.Scenarios)
	r.check(rep.Summary.Scenarios == s.perCell && streamed == s.perCell,
		"sweep cell %s/%s summarised %d and streamed %d scenarios, want %d", c.planner, c.model, rep.Summary.Scenarios, streamed, s.perCell)
	r.check(inRange, "sweep cell %s/%s has a loss or fraction outside [0, 1]", c.planner, c.model)
	return out, nil
}

// planGroupsPerCell is how many groups of plan-step requests the timed
// sweep takes after every cell: with as many before the first pass,
// three passes give 200 groups.
const planGroupsPerCell = 8

// pass runs every cell once and returns the digest of all summaries
// with every cell's seconds. With ps set, planGroupsPerCell groups of
// plan-step requests follow every cell.
func (s *sweepSetup) pass(r *report, ps *planStep) (string, []float64, error) {
	h := sha256.New()
	var secs []float64
	for _, c := range s.cells {
		cr, err := s.runCell(nil, -1, -1, r, c, false)
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(h, "%s/%s:%s\n", c.planner, c.model, campaign.SummaryDigest(cr.summary))
		secs = append(secs, cr.seconds)
		if ps != nil {
			if err := ps.sample(planGroupsPerCell); err != nil {
				return "", nil, err
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), secs, nil
}

// sweepMinPasses is the fewest passes a timed run makes, so that every
// cell's time is a median of at least three.
const sweepMinPasses = 3

// runSweep is the timed sweep: complete passes over every cell until
// the run time is spent. Every pass must reproduce the first pass's
// summaries exactly. A pass's time is the sum of every cell's median
// time over the passes, so a passing slowdown of the host during one
// cell moves one sample, not the figure.
func runSweep(o options, r *report) error {
	s, setupS, err := setupRounds(setupRoundCount,
		func() (*sweepSetup, error) { return buildSweep(nil, -1, o.seed, sweepPerCell) },
		func(*sweepSetup) {})
	if err != nil {
		return err
	}
	ps, err := newPlanStep(sweepPlanners)
	if err != nil {
		return err
	}
	if err := ps.sample(planGroupsPerCell); err != nil {
		return err
	}

	cellSecs := make([][]float64, len(s.cells))
	var (
		first string
		rss   []float64
	)
	passes := 0
	quiesce()
	w := watchRSS()
	defer w.close()
	start := time.Now()
	for passes < sweepMinPasses || since(start) < o.seconds {
		digest, secs, err := s.pass(r, ps)
		if err != nil {
			return err
		}
		rss = append(rss, w.peak())
		passes++
		for i, d := range secs {
			cellSecs[i] = append(cellSecs[i], d)
		}
		if first == "" {
			first = digest
		} else {
			r.check(digest == first, "sweep pass %d summaries differ from pass 1", passes)
		}
	}
	pass := 0.0
	for _, secs := range cellSecs {
		pass += median(secs)
	}
	r.ops(ps.count())
	perPass := len(s.cells) * s.perCell
	endToEnd{
		scenariosPerS: float64(perPass) / pass,
		timeToCI:      pass,
		planLat:       ps.lat,
		setup:         setupS,
		rss:           rss,
	}.report(r,
		fmt.Sprintf("%d scenarios per pass of %d cells x %d, %d passes", perPass, len(s.cells), s.perCell, passes),
		fmt.Sprintf("seconds to the whole sweep's answer: sum of per-cell medians over %d passes", passes),
		"the sweep's cold plan step, NewEnv for sa and greedy on the reference topology",
		"topology, plans, scenarios, baselines",
		"passes")
	return nil
}

// traceSweep is the sweep's traced runner: a traced set-up, one traced
// pass, the engine runner over a sample of every cell compared with
// campaign.Run's results (traced and untraced, for the tracing
// overhead), and the sketch layer on the pass's loss stream.
func traceSweep(o options, r *report, tr *tracer, parent int, probe bool) error {
	perCell, sample := sweepPerCell, sweepSampleLen
	if probe {
		perCell, sample = probeSweepPerCell, probeSweepSampleLen
	}
	gc0 := numGC()
	s, err := buildSweep(tr, parent, o.seed, perCell)
	if err != nil {
		return err
	}

	var (
		runS       float64
		alloc      uint64
		summarised int
		losses     []float64
		et         engineTally
		tc         traceCost
	)
	for i, c := range s.cells {
		cr, err := s.runCell(tr, parent, i, r, c, true)
		if err != nil {
			return err
		}
		runS += cr.seconds
		alloc += cr.alloc
		summarised += cr.summary.Scenarios
		losses = append(losses, cr.losses...)

		// Rerun an evenly spaced sample of the cell through the engine
		// runner and compare with what campaign.Run streamed.
		var scs []campaign.Scenario
		for k := 0; k < sample; k++ {
			scs = append(scs, c.cfg.Scenarios[k*perCell/sample])
		}
		if err := tc.engineSample(tr, parent, r, &et, c.env.SetupFor(antiAffinity), scs, sweepHorizon, c.cfg.Baseline, cr.results); err != nil {
			return err
		}
		r.ops(2 * len(scs))
	}
	if err := sketchProbe(tr, parent, r, losses); err != nil {
		return err
	}

	r.set("campaign.env_s", sum(tr.durations("campaign.env", parent)), "s", "NewEnv, one per planner (includes planning)")
	r.set("campaign.generate_s", sum(tr.durations("campaign.generate", parent)), "s", "")
	r.set("campaign.baseline_s", sum(tr.durations("campaign.baseline", parent)), "s", "")
	r.set("campaign.run_s", runS, "s", fmt.Sprintf("campaign.Run over %d cells", len(s.cells)))
	r.set("campaign.alloc_mb_per_scenario", float64(alloc)/float64(summarised)/(1<<20), "MB", "bytes allocated by campaign.Run / scenarios")
	r.set("campaign.scenarios_summarised", float64(summarised), "count", "exact")
	et.report(r)
	runtimeMetrics(r, gc0)
	if !probe {
		tc.report(r)
	}
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
