package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/topology"
)

// The plan workload: one client issues cold correlation-aware planning
// requests one at a time, sa-corr and structured-corr in turn over a
// fleet of medium random topologies drawn from the seed. Each request
// samples the environment's failure distribution and plans on a fresh
// plan.Context, as campaign.NewEnv and ppaplan do.
//
// Planning cost grows steeply with a topology's task count (about
// tenfold from 30 to 50 tasks), so the fleet's median request sits on a
// steep slope and a plain random fleet would carry the luck of its draw
// into every latency figure (a quarter of the median from seed to
// seed). The fleet is therefore a stratified sample: the seed draws a
// pool of 2,000 medium topologies and the fleet takes the topologies at
// 200 evenly spaced ranks of the pool ordered by task count, then
// operator count, so its size profile follows the preset's distribution
// on every seed while the seed still picks every topology.
const (
	planFleet         = 200 // topologies; two requests each per pass
	planPool          = 2000
	probePlanFleet    = 2
	planFraction      = 0.3
	planCorrScenarios = 24 // per burst model, NewEnv's default
	planCorrSeed      = 1  // NewEnv's default
)

var planPlanners = []string{"sa-corr", "structured-corr"}

// planTarget is one topology of the fleet with the environment whose
// cluster layout its failure distribution is sampled from.
type planTarget struct {
	topo   *topology.Topology
	env    *campaign.Env
	budget int
}

// buildPlan draws the fleet: a pool of medium preset topologies from
// the workload seed, stratified by task count into n fleet topologies,
// each with a plan-free environment whose cluster layout requests
// sample their failure distribution from.
func buildPlan(tr *tracer, parent int, seed int64, n int) ([]planTarget, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*topology.Topology, planPool)
	if _, err := tr.do("campaign.topology", parent, -1, func() error {
		for i := range pool {
			t, err := campaign.PresetTopology(campaign.TopoMedium, rng.Int63())
			if err != nil {
				return err
			}
			pool[i] = t
		}
		return nil
	}); err != nil {
		return nil, err
	}
	sort.SliceStable(pool, func(i, j int) bool {
		a, b := pool[i], pool[j]
		if a.NumTasks() != b.NumTasks() {
			return a.NumTasks() < b.NumTasks()
		}
		return a.NumOps() < b.NumOps()
	})
	fleet := make([]planTarget, n)
	for i := range fleet {
		t := &fleet[i]
		t.topo = pool[(2*i+1)*len(pool)/(2*n)]
		env, err := newEnv(tr, parent, campaign.EnvSpec{Topo: t.topo})
		if err != nil {
			return nil, err
		}
		t.env = env
		t.budget = int(math.Round(planFraction * float64(t.topo.NumTasks())))
	}
	// Requests go out in draw order, not size order.
	rng.Shuffle(len(fleet), func(i, j int) { fleet[i], fleet[j] = fleet[j], fleet[i] })
	return fleet, nil
}

// planOutcome is one answered request.
type planOutcome struct {
	ctx     *plan.Context
	set     *plan.ScenarioSet
	plan    plan.Plan
	sampled int
	seconds float64
}

// request answers one planning request with the named planner.
func (t planTarget) request(tr *tracer, parent, req int, planner string) (planOutcome, error) {
	var out planOutcome
	pl, ok := plan.Lookup(planner)
	if !ok {
		return out, fmt.Errorf("planner %q is not registered", planner)
	}
	id := tr.begin("bench.request", parent, req)
	start := time.Now()
	var c *cluster.Cluster
	if _, err := tr.do("cluster.layout", id, req, func() (err error) {
		c, err = t.env.Cluster()
		return err
	}); err != nil {
		return out, err
	}
	if _, err := tr.do("plan.sample", id, req, func() error {
		sets, err := campaign.SampleTaskScenarios(c, campaign.GenSpec{
			Seed:        planCorrSeed,
			Scenarios:   planCorrScenarios,
			Correlation: campaign.DefaultCorrelation,
		}, campaign.Models)
		if err != nil {
			return err
		}
		out.sampled = len(sets)
		out.set, err = plan.NewScenarioSet(t.topo.NumTasks(), sets)
		return err
	}); err != nil {
		return out, err
	}
	if _, err := tr.do("plan.set_scenarios", id, req, func() error {
		out.ctx = plan.NewContext(t.topo)
		return out.ctx.SetScenarios(out.set)
	}); err != nil {
		return out, err
	}
	if _, err := tr.do("plan."+planner, id, req, func() (err error) {
		out.plan, err = pl.Plan(out.ctx, t.budget)
		return err
	}); err != nil {
		return out, fmt.Errorf("%s on fleet topology %d: %w", planner, req, err)
	}
	out.seconds = since(start)
	tr.end(id)
	return out, nil
}

// check verifies an answered request: the plan is within budget, and
// its correlation-aware objective is no worse than that of the inner
// planner's plan for the same context (the -corr planner starts from
// that plan and only takes strictly improving moves). It returns the
// objective gain of the -corr plan over the inner plan.
func (t planTarget) check(tr *tracer, parent, req int, r *report, planner string, out planOutcome) (float64, error) {
	inner, ok := plan.Lookup(strings.TrimSuffix(planner, "-corr"))
	if !ok {
		return 0, fmt.Errorf("inner planner of %q is not registered", planner)
	}
	// A fresh context, so the inner plan's time is a cold request too.
	ctx := plan.NewContext(t.topo)
	if err := ctx.SetScenarios(out.set); err != nil {
		return 0, err
	}
	var ip plan.Plan
	if _, err := tr.do("plan.inner", parent, req, func() (err error) {
		ip, err = inner.Plan(ctx, t.budget)
		return err
	}); err != nil {
		return 0, err
	}
	corr, base := out.ctx.CorrObjective(out.plan), out.ctx.CorrObjective(ip)
	r.check(out.plan.Size() <= t.budget, "%s plan for fleet topology %d replicates %d tasks, budget %d", planner, req, out.plan.Size(), t.budget)
	r.check(corr >= base, "%s plan for fleet topology %d has CorrObjective %v below its inner plan's %v", planner, req, corr, base)
	return corr - base, nil
}

// planPass issues one request per (topology, planner) in fleet order.
// With checks, every answer is checked after its latency was taken.
func planPass(tr *tracer, parent int, r *report, fleet []planTarget, checks bool, pc *planCounts) ([]float64, int, error) {
	var lat []float64
	sampled := 0
	for i, t := range fleet {
		for _, p := range planPlanners {
			out, err := t.request(tr, parent, i, p)
			if err != nil {
				return nil, 0, err
			}
			r.ops(1)
			lat = append(lat, out.seconds*1e3)
			sampled += out.sampled
			if !checks {
				continue
			}
			gain, err := t.check(tr, parent, i, r, p, out)
			if err != nil {
				return nil, 0, err
			}
			if pc != nil {
				pc.requests++
				pc.distinct += out.set.Len()
				pc.gain += gain
			}
		}
	}
	return lat, sampled, nil
}

// planCounts are the exact work counts of a checked pass.
type planCounts struct {
	requests, distinct int
	gain               float64
}

// runPlan is the timed workload: passes over the fleet until the run
// time is spent (one pass usually takes longer than that). The first
// pass checks every answer. A pass's time is the sum of every request's
// median time over the passes.
func runPlan(o options, r *report) error {
	fleet, setupS, err := setupRounds(setupRoundCount,
		func() ([]planTarget, error) { return buildPlan(nil, -1, o.seed, planFleet) },
		func([]planTarget) {})
	if err != nil {
		return err
	}
	var (
		lat     [][]float64 // every request, ms, one slice per pass
		reqLat  [][]float64 // per request over the passes, ms
		sampled int         // per pass
		passes  int
		rss     []float64
	)
	quiesce()
	w := watchRSS()
	defer w.close()
	start := time.Now()
	for passes == 0 || since(start) < o.seconds {
		l, n, err := planPass(nil, -1, r, fleet, passes == 0, nil)
		if err != nil {
			return err
		}
		rss = append(rss, w.peak())
		if reqLat == nil {
			reqLat = make([][]float64, len(l))
		}
		for i, ms := range l {
			reqLat[i] = append(reqLat[i], ms)
		}
		lat = append(lat, l)
		sampled = n
		passes++
	}
	pass := 0.0
	for _, ls := range reqLat {
		pass += median(ls) / 1e3
	}
	endToEnd{
		scenariosPerS: float64(sampled) / pass,
		timeToCI:      pass,
		planLat:       lat,
		setup:         setupS,
		rss:           rss,
	}.report(r,
		"failure scenarios sampled and planned over per second of request time",
		fmt.Sprintf("request seconds of one pass over %d topologies x %d planners: sum of per-request medians over %d passes", len(fleet), len(planPlanners), passes),
		fmt.Sprintf("cold %s requests, 1 client, closed loop", strings.Join(planPlanners, " and ")),
		"fleet: topology pool and environments",
		"passes")
	return nil
}

// tracePlan is the plan workload's traced runner: a traced fleet set-up,
// an untraced pass over a quarter of the fleet (for the tracing
// overhead) and one traced, checked pass whose spans split every
// request into cluster layout, sampling, context set-up and planning,
// plus the inner planner alone.
func tracePlan(o options, r *report, tr *tracer, parent int, probe bool) error {
	n := planFleet
	if probe {
		n = probePlanFleet
	}
	gc0 := numGC()
	fleet, err := buildPlan(tr, parent, o.seed, n)
	if err != nil {
		return err
	}
	// The tracing overhead compares the first quarter of the fleet,
	// untraced and then traced.
	quarter := len(fleet) / 4
	untraced := 0.0
	if !probe {
		id := tr.begin(untracedLayer+".pass", parent, -1)
		l, _, err := planPass(nil, -1, r, fleet[:quarter], false, nil)
		tr.end(id)
		if err != nil {
			return err
		}
		untraced = sum(l)
	}
	var pc planCounts
	lat, _, err := planPass(tr, parent, r, fleet, true, &pc)
	if err != nil {
		return err
	}
	ms := func(name string, q float64) float64 { return quantile(tr.durations(name, parent), q) * 1e3 }
	if !probe {
		traced := sum(lat[:quarter*len(planPlanners)])
		r.set("trace.overhead_pct", 100*(traced-untraced)/untraced, "%",
			fmt.Sprintf("request time of %d traced requests %.1f ms vs the same requests untraced %.1f ms", quarter*len(planPlanners), traced, untraced))
		r.set("campaign.env_s", sum(tr.durations("campaign.env", parent)), "s", "NewEnv without a planner, one per fleet topology")
	}
	r.set("plan.requests", float64(pc.requests), "count", "exact: requests of the traced pass (base of the plan.* figures)")
	r.set("plan.sample_ms", ms("plan.sample", 0.5), "ms", "median SampleTaskScenarios + NewScenarioSet")
	r.set("plan.set_scenarios_ms", ms("plan.set_scenarios", 0.5), "ms", "median NewContext + SetScenarios")
	for _, p := range planPlanners {
		r.set("plan."+p+"_ms_p95", ms("plan."+p, 0.95), "ms", fmt.Sprintf("n=%d", len(tr.durations("plan."+p, parent))))
	}
	r.set("plan.inner_ms_p50", ms("plan.inner", 0.5), "ms", "sa or structured alone on a fresh context")
	r.set("plan.distinct_scenarios", float64(pc.distinct), "count", "exact: distinct sampled failure sets, summed over requests")
	r.set("plan.corr_gain", pc.gain/float64(max(pc.requests, 1)), "ratio", "exact: mean CorrObjective gain of the -corr plan over its inner plan")
	runtimeMetrics(r, gc0)
	return nil
}
