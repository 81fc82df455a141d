package plan

import (
	"errors"
	"math/bits"

	"repro/internal/topology"
)

// errTooLarge is returned by the brute-force oracle when the topology
// exceeds the feasible exhaustive-search size.
var errTooLarge = errors.New("plan: topology too large for brute-force search")

// Brute is the test oracle for planner optimality: it exhaustively
// searches every subset of at most budget tasks and returns a plan with
// the maximal worst-case OF (ties broken by smaller size, then by first
// occurrence in ascending-bitmask order, matching the DP planner's
// keep-first convention). It is limited to topologies with at most 24
// tasks and is not registered.
type Brute struct{}

// Plan returns the exhaustive-search optimum.
func (Brute) Plan(c *Context, budget int) (Plan, error) {
	n := c.Topo.NumTasks()
	if n > 24 {
		return Plan{}, errTooLarge
	}
	if budget > n {
		budget = n
	}
	best := New(n)
	// Evaluate directly: the 2^N distinct plans of the exhaustive sweep
	// are each seen once, so memoizing them would only burn memory.
	bestOF := c.evalGlobal(MetricOF, best)
	for mask := uint32(0); mask < 1<<n; mask++ {
		if bits.OnesCount32(mask) > budget {
			continue
		}
		p := New(n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				p.Add(topology.TaskID(i))
			}
		}
		of := c.evalGlobal(MetricOF, p)
		if of > bestOF || (of == bestOF && p.Size() < best.Size()) {
			best = p
			bestOF = of
		}
	}
	return best, nil
}
