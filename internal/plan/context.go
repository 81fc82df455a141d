package plan

import (
	"sync"

	"repro/internal/fidelity"
	"repro/internal/topology"
)

// maxMemoEntries bounds each objective cache so that exhaustive
// searches (huge DP levels) cannot exhaust memory; once a
// cache is full further values are still computed, just not retained.
const maxMemoEntries = 1 << 20

// Context bundles the topology and the fidelity evaluator shared by the
// planners. It memoizes objective evaluations keyed on Plan.Key so that
// the repeated candidate evaluations of the planners (and planners
// racing each other inside a Portfolio) share work, and it is safe for
// concurrent use by multiple goroutines.
type Context struct {
	Topo *topology.Topology
	// Metric selects the objective used by the metric-agnostic entry
	// points Objective/ScopedObjective and by Portfolio when ranking the
	// plans of its inner planners. Planners with a fixed objective
	// (e.g. the sa-ic variant) pass their metric explicitly and never
	// mutate this field.
	Metric Metric

	model *fidelity.Model
	evals sync.Pool // *fidelity.Evaluator

	mu     sync.Mutex
	memo   bool
	ofMemo map[string]float64
	icMemo map[string]float64
	// corr is the domain-correlated failure distribution of the
	// correlation-aware objective; corrMemo caches CorrObjective values
	// per plan key and is invalidated whenever corr changes.
	corr     *ScenarioSet
	corrMemo map[string]float64
	// scopedMemo caches scoped objectives keyed on scope signature,
	// metric and plan key.
	scopedMemo map[scopedMemoKey]float64
	scopes     map[string]*Scope
}

type scopedMemoKey struct {
	scope  string
	metric Metric
	plan   string
}

// NewContext builds a planning context for the topology. Memoization is
// enabled by default; see SetMemoize.
func NewContext(t *topology.Topology) *Context {
	c := &Context{
		Topo:       t,
		model:      fidelity.NewModel(t),
		memo:       true,
		ofMemo:     map[string]float64{},
		icMemo:     map[string]float64{},
		corrMemo:   map[string]float64{},
		scopedMemo: map[scopedMemoKey]float64{},
		scopes:     map[string]*Scope{},
	}
	c.evals.New = func() any { return c.model.NewEvaluator() }
	return c
}

// SetMemoize enables or disables memoization of objective values (it
// is on by default). Disabling clears the OF/IC and scoped-objective
// caches; it exists so benchmarks can quantify the value-memoization
// win and is not needed in normal use. The per-Scope base-vector reuse
// that powers incremental Extend evaluation is part of the planning
// algorithms themselves and is not affected by this switch.
func (c *Context) SetMemoize(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memo = on
	if !on {
		c.ofMemo = map[string]float64{}
		c.icMemo = map[string]float64{}
		c.corrMemo = map[string]float64{}
		c.scopedMemo = map[scopedMemoKey]float64{}
	}
}

// Objective evaluates the context's configured metric of a plan under
// the worst-case correlated failure.
func (c *Context) Objective(p Plan) float64 { return c.ObjectiveWith(c.Metric, p) }

// ObjectiveWith evaluates the given metric of a plan under the
// worst-case correlated failure, memoized on the plan key. The hit
// path takes the context mutex once; planners' worker pools hammer
// this, so the critical sections stay minimal.
func (c *Context) ObjectiveWith(m Metric, p Plan) float64 {
	key := p.Key()
	c.mu.Lock()
	if !c.memo {
		c.mu.Unlock()
		return c.evalGlobal(m, p)
	}
	if v, ok := c.globalCache(m)[key]; ok {
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	v := c.evalGlobal(m, p)
	c.mu.Lock()
	if cache := c.globalCache(m); c.memo && len(cache) < maxMemoEntries {
		cache[key] = v
	}
	c.mu.Unlock()
	return v
}

func (c *Context) globalCache(m Metric) map[string]float64 {
	if m == MetricIC {
		return c.icMemo
	}
	return c.ofMemo
}

// evalGlobal computes the metric directly, bypassing the caches (used
// by the memo miss path and by the brute-force test oracle, whose 2^N
// distinct plans would only pollute them).
func (c *Context) evalGlobal(m Metric, p Plan) float64 {
	e := c.evals.Get().(*fidelity.Evaluator)
	defer c.evals.Put(e)
	if m == MetricIC {
		return e.ICPlan(p.replicated)
	}
	return e.OFPlan(p.replicated)
}

// OF evaluates the worst-case Output Fidelity of a plan: every
// non-replicated task is failed.
func (c *Context) OF(p Plan) float64 { return c.ObjectiveWith(MetricOF, p) }

// IC evaluates the worst-case Internal Completeness of a plan.
func (c *Context) IC(p Plan) float64 { return c.ObjectiveWith(MetricIC, p) }

// OFSingleFailure evaluates OF when only the given task fails (greedy
// ranking criterion). The per-task values are computed once per model
// and shared.
func (c *Context) OFSingleFailure(id topology.TaskID) float64 {
	return c.model.SingleFailureOFs()[id]
}

// ScopeOf returns the (cached) precomputed evaluation scope for the
// given operator set. Scopes are keyed by their sorted operator
// signature, so planners working on the same sub-topology share one
// scope and its memoized base vectors.
func (c *Context) ScopeOf(ops []int) *Scope {
	sig := scopeSig(ops)
	c.mu.Lock()
	if s, ok := c.scopes[sig]; ok {
		c.mu.Unlock()
		return s
	}
	c.mu.Unlock()
	s := newScope(c, sig, ops)
	c.mu.Lock()
	if prev, ok := c.scopes[sig]; ok {
		s = prev
	} else {
		c.scopes[sig] = s
	}
	c.mu.Unlock()
	return s
}

// ScopedObjective evaluates the context's configured metric restricted
// to a sub-topology scope.
func (c *Context) ScopedObjective(ops []int, p Plan) float64 {
	return c.ScopeOf(ops).Eval(c.Metric, p)
}

// ScopedObjectiveWith evaluates the given metric restricted to a
// sub-topology scope.
func (c *Context) ScopedObjectiveWith(m Metric, ops []int, p Plan) float64 {
	return c.ScopeOf(ops).Eval(m, p)
}

// ScopedOF evaluates the worst-case OF of a plan restricted to a
// sub-topology: within the scope operators, non-replicated tasks are
// failed; tasks outside the scope are alive. Fidelity is measured at the
// scope's own sink tasks (operators without a downstream operator inside
// the scope), treating the scope as a standalone topology. This is the
// evaluation the sub-topology planners use so that segment selection in
// different sub-topologies stays independent (§IV-C3).
func (c *Context) ScopedOF(ops []int, p Plan) float64 {
	return c.ScopeOf(ops).Eval(MetricOF, p)
}

// ScopedIC evaluates the worst-case Internal Completeness restricted to
// a sub-topology scope: the fraction of tuples still processed by the
// scope's tasks relative to failure-free operation, with out-of-scope
// tasks alive. Like IC, it propagates plain rates and credits partial
// processing even when a join's other input is lost.
func (c *Context) ScopedIC(ops []int, p Plan) float64 {
	return c.ScopeOf(ops).Eval(MetricIC, p)
}

// scopedMemoGet looks up a memoized scoped objective.
func (c *Context) scopedMemoGet(k scopedMemoKey) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.memo {
		return 0, false
	}
	v, ok := c.scopedMemo[k]
	return v, ok
}

// scopedMemoPut stores a memoized scoped objective.
func (c *Context) scopedMemoPut(k scopedMemoKey, v float64) {
	c.mu.Lock()
	if c.memo && len(c.scopedMemo) < maxMemoEntries {
		c.scopedMemo[k] = v
	}
	c.mu.Unlock()
}
