// Package core implements the PPA plan manager — the orchestrating
// component of Su & Zhou (ICDE 2016): given a query topology and an
// active-replication resource budget, it produces a PPA replication
// plan (checkpoints for every task plus active replicas for a selected
// subset chosen by one of the §IV algorithms), exposes the plan's
// predicted quality metrics (OF, IC), converts plans into per-task
// engine strategies, and supports dynamic plan adaptation (§V-C) by
// diffing successive plans.
package core

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/topology"
)

// Algorithm selects the partially-active-plan optimiser.
type Algorithm int

const (
	// AlgorithmSA is the structure-aware planner (Alg. 5), the paper's
	// recommended choice for general topologies.
	AlgorithmSA Algorithm = iota
	// AlgorithmDP is the optimal dynamic programming planner (Alg. 1);
	// exponential in the number of MC-trees.
	AlgorithmDP
	// AlgorithmGreedy is the task-level greedy baseline (Alg. 2).
	AlgorithmGreedy
	// AlgorithmSAIC is the structure-aware planner optimising the IC
	// metric instead of OF — the paper's Fig. 12 "SA algorithm with IC
	// as the optimization metric".
	AlgorithmSAIC
	// AlgorithmPortfolio races every registered planner concurrently
	// and keeps the best plan.
	AlgorithmPortfolio

	// AlgorithmOther marks a Result produced by a registry planner with
	// no Algorithm enum value (structured, full, or a
	// user-registered planner); Result.Planner carries the name.
	AlgorithmOther Algorithm = -1
)

// String names the algorithm as in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmDP:
		return "DP"
	case AlgorithmGreedy:
		return "Greedy"
	case AlgorithmSAIC:
		return "SA-IC"
	case AlgorithmPortfolio:
		return "Portfolio"
	case AlgorithmOther:
		return "Other"
	default:
		return "SA"
	}
}

// AlgorithmFor maps a registry planner name back to its Algorithm
// value; ok is false for planners without one.
func AlgorithmFor(name string) (Algorithm, bool) {
	for a, n := range algorithmNames {
		if n == name {
			return a, true
		}
	}
	return AlgorithmOther, false
}

// algorithmNames is the single Algorithm <-> planner-name table both
// PlannerName and AlgorithmFor derive from.
var algorithmNames = map[Algorithm]string{
	AlgorithmSA:        "sa",
	AlgorithmDP:        "dp",
	AlgorithmGreedy:    "greedy",
	AlgorithmSAIC:      "sa-ic",
	AlgorithmPortfolio: "portfolio",
}

// PlannerName maps the algorithm to its plan-registry planner name.
func (a Algorithm) PlannerName() string {
	if name, ok := algorithmNames[a]; ok {
		return name
	}
	return "sa"
}

// Result is a computed PPA replication plan with its predicted quality.
type Result struct {
	Algorithm Algorithm
	// Planner is the registry name of the planner that produced the
	// plan (e.g. "sa", "dp", "portfolio").
	Planner string
	Budget  int
	Plan    plan.Plan
	// OF is the worst-case Output Fidelity of the plan (Eq. 4 under the
	// §IV correlated-failure assumption).
	OF float64
	// IC is the worst-case Internal Completeness (the EDBT'14 baseline
	// metric).
	IC float64
	// CorrOF is the expected OF under the manager's domain-correlated
	// failure distribution (see Manager.SetScenarios); it equals OF when
	// no distribution is installed.
	CorrOF float64
}

// Manager plans PPA replication for one topology.
type Manager struct {
	topo *topology.Topology
	ctx  *plan.Context
}

// NewManager builds a plan manager for the topology.
func NewManager(t *topology.Topology) *Manager {
	return &Manager{topo: t, ctx: plan.NewContext(t)}
}

// Topology returns the managed topology.
func (m *Manager) Topology() *topology.Topology { return m.topo }

// Context exposes the planning context (for custom evaluation).
func (m *Manager) Context() *plan.Context { return m.ctx }

// BudgetForFraction converts a replication ratio (e.g. 0.5 for PPA-0.5)
// into a task budget.
func (m *Manager) BudgetForFraction(frac float64) int {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return int(math.Round(frac * float64(m.topo.NumTasks())))
}

// Plan computes a partially active replication plan with the given
// algorithm and budget (number of actively replicated tasks).
func (m *Manager) Plan(alg Algorithm, budget int) (Result, error) {
	switch alg {
	case AlgorithmSA, AlgorithmDP, AlgorithmGreedy, AlgorithmSAIC, AlgorithmPortfolio:
	default:
		return Result{}, fmt.Errorf("core: unknown algorithm %d", alg)
	}
	res, err := m.PlanByName(alg.PlannerName(), budget)
	if err != nil {
		return Result{}, err
	}
	res.Algorithm = alg
	return res, nil
}

// PlanByName computes a plan with any planner registered in the plan
// package (see plan.Names), including user-registered ones.
func (m *Manager) PlanByName(name string, budget int) (Result, error) {
	pl, ok := plan.Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("core: unknown planner %q (registered: %v)", name, plan.Names())
	}
	p, err := pl.Plan(m.ctx, budget)
	if err != nil {
		return Result{}, fmt.Errorf("core: %s planning: %w", name, err)
	}
	alg, _ := AlgorithmFor(name)
	return Result{
		Algorithm: alg,
		Planner:   name,
		Budget:    budget,
		Plan:      p,
		OF:        m.ctx.OF(p),
		IC:        m.ctx.IC(p),
		CorrOF:    m.ctx.CorrObjective(p),
	}, nil
}

// SetScenarios installs a domain-correlated failure distribution on the
// manager's planning context: the *-corr planners optimise against it
// and Result.CorrOF reports the expected OF under it.
func (m *Manager) SetScenarios(s *plan.ScenarioSet) error { return m.ctx.SetScenarios(s) }

// Planners lists the names of the registered planners.
func Planners() []string { return plan.Names() }

// Strategies converts a plan into the per-task engine strategy vector:
// tasks in the plan get active replicas, all others use the passive
// default (checkpoints are taken for every task regardless — PPA's
// passive layer covers the whole set M).
func (m *Manager) Strategies(p plan.Plan, passive engine.Strategy) []engine.Strategy {
	out := make([]engine.Strategy, m.topo.NumTasks())
	for i := range out {
		if p.Has(topology.TaskID(i)) {
			out[i] = engine.StrategyActive
		} else {
			out[i] = passive
		}
	}
	return out
}

// Diff computes the dynamic-plan-adaptation delta of §V-C: which tasks
// need a new active replica and which replicas can be deactivated when
// switching from the old plan to the new one.
func Diff(old, new plan.Plan) (activate, deactivate []topology.TaskID) {
	for _, id := range new.Tasks() {
		if !old.Has(id) {
			activate = append(activate, id)
		}
	}
	for _, id := range old.Tasks() {
		if !new.Has(id) {
			deactivate = append(deactivate, id)
		}
	}
	return activate, deactivate
}
