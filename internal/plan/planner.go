package plan

import (
	"fmt"
	"sort"
	"sync"
)

// Planner is the uniform interface of every replication-plan optimiser:
// given a shared planning context and a budget of actively replicated
// tasks, produce a plan. Implementations are stateless option structs —
// a Planner value may be used concurrently and reused across contexts.
type Planner interface {
	// Name is the planner's registry name (e.g. "dp", "sa", "greedy").
	Name() string
	// Plan computes a replication plan within the budget.
	Plan(c *Context, budget int) (Plan, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Planner{}
)

// Register adds a planner to the package registry under its Name. It
// panics on an empty or duplicate name; the default planners are
// registered at package init.
func Register(p Planner) {
	name := p.Name()
	if name == "" {
		panic("plan: Register with empty planner name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("plan: Register called twice for planner %q", name))
	}
	registry[name] = p
}

// Lookup returns the registered planner with the given name.
func Lookup(name string) (Planner, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// MustLookup returns the registered planner or panics; for tests and
// internal call sites that name built-in planners.
func MustLookup(name string) Planner {
	p, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("plan: unknown planner %q", name))
	}
	return p
}

// Names lists the registered planner names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register(DP{})
	Register(Greedy{})
	Register(SA{})
	Register(SA{Opts: SAOptions{Metric: MetricIC}})
	Register(Structured{})
	Register(Full{})
	Register(Portfolio{})
	// Correlation-aware variants: inner planner seeds, hill-climbing
	// under the context's domain-correlated failure distribution
	// refines (see corr.go).
	Register(Corr{Inner: DP{}})
	Register(Corr{Inner: Structured{}})
	Register(Corr{Inner: SA{}})
}
