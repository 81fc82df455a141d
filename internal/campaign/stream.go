package campaign

import (
	"sync"

	"repro/internal/sketch"
)

// DefaultShards is the default number of reduction shards. The summary
// depends on the shard count (sketch state folds per shard), so it is
// part of a campaign's reproducibility key alongside the seed — but
// never on Workers.
const DefaultShards = 8

// SketchK is the accuracy parameter of the campaign summary sketches
// (sketch.Weighted): quantiles in Summary are exact while a merged
// summary holds fewer than 4·SketchK samples per metric, and within the
// rank-error bound 2.56/SketchK (1% of the scenario weight for the
// default 256) of the exact weighted nearest-rank value beyond.
const SketchK = sketch.DefaultK

// delayPool recycles the per-scenario correction-delay buffers on the
// flat-memory path (KeepResults off): a buffer lives from runOne until
// the reducer has streamed its delays into the time-to-correction
// sketch, then returns to the pool.
var delayPool = sync.Pool{New: func() any { return new([]float64) }}

// entry is one in-flight scenario result awaiting in-order reduction.
type entry struct {
	res ScenarioResult
	// box, when non-nil, is the pooled backing of res.CorrectionDelays,
	// returned to delayPool after the reducer consumed the delays.
	box *[]float64
}

func (e *entry) release() {
	if e.box != nil {
		*e.box = e.res.CorrectionDelays[:0]
		delayPool.Put(e.box)
		e.box = nil
		e.res.CorrectionDelays = nil
	}
}

// streamer delivers scenario results to a consume function in strict
// scenario-index order, whatever order the workers finish in. A
// bounded reorder window applies backpressure: a worker that finished
// an index far ahead of the reduction frontier blocks until the
// frontier catches up, so buffered results — the only per-scenario
// state the campaign retains — stay O(workers), not O(scenarios).
//
// Deadlock-freedom: the worker pool claims indices in ascending order,
// so the scenario at the frontier (next) is always already claimed by
// some worker; that worker's deliver never blocks (i == next bypasses
// the window check), and consuming it advances the frontier and wakes
// the blocked ones.
type streamer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	next    int
	window  int
	pending map[int]entry
	aborted bool
	consume func(i int, e *entry)
}

func newStreamer(window int, consume func(int, *entry)) *streamer {
	st := &streamer{
		window:  window,
		pending: make(map[int]entry),
		consume: consume,
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// deliver hands the result of scenario i to the reducer. It blocks
// while i is more than window ahead of the reduction frontier. The
// consume callback runs under the streamer lock — serially, in index
// order.
func (st *streamer) deliver(i int, e entry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.aborted && i != st.next && i-st.next >= st.window {
		st.cond.Wait()
	}
	if st.aborted {
		e.release()
		return
	}
	if i != st.next {
		st.pending[i] = e
		return
	}
	st.consume(i, &e)
	st.next++
	for {
		ne, ok := st.pending[st.next]
		if !ok {
			break
		}
		delete(st.pending, st.next)
		st.consume(st.next, &ne)
		st.next++
	}
	st.cond.Broadcast()
}

// abort releases every waiter and drops all buffered results; called
// on the first scenario error so the fail-fast campaign cannot wedge
// workers blocked on the reorder window.
func (st *streamer) abort() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.aborted = true
	for i, e := range st.pending {
		e.release()
		delete(st.pending, i)
	}
	st.cond.Broadcast()
}

// aggregator folds scenario results of one reduction shard into
// mergeable weighted summaries — constant memory per shard,
// independent of the scenario count. Every sample carries its
// scenario's importance weight; an untilted campaign is the same path
// with w = 1, which makes every mean exact and the effective sample
// size exactly the scenario count.
type aggregator struct {
	scenarios   int
	unrecovered int

	lat   *sketch.Weighted
	loss  *sketch.Weighted
	blast *sketch.Weighted
	tent  *sketch.Weighted
	corr  *sketch.Weighted
	t2c   *sketch.Weighted

	// Exact moment counters over (weight, OutputLoss), folded in shard
	// order like everything else: Σw, Σw², Σwx, Σwx², Σw²x, Σw²x². They
	// determine both the classic ESS (Σw)²/Σw² and the variance-ratio
	// ESS reported in Summary.ESS.
	sumW, sumW2, sumWX, sumWX2, sumW2X, sumW2X2 float64
}

// newAggregator builds one shard accumulator. Every shard seeds each
// metric's summary identically, so shard summaries merge into the same
// deterministic state regardless of which shard the merge starts from.
func newAggregator() *aggregator {
	return &aggregator{
		lat:   sketch.NewSeededWeighted(SketchK, 1),
		loss:  sketch.NewSeededWeighted(SketchK, 2),
		blast: sketch.NewSeededWeighted(SketchK, 3),
		tent:  sketch.NewSeededWeighted(SketchK, 4),
		corr:  sketch.NewSeededWeighted(SketchK, 5),
		t2c:   sketch.NewSeededWeighted(SketchK, 6),
	}
}

// add folds one scenario result: latency only over recovered
// scenarios that lost tasks, corrected fraction only over scenarios
// with tentative output, delays pooled across scenarios. Every sample
// carries the scenario's likelihood ratio (zero, from hand-built
// scenarios, counts as 1).
func (a *aggregator) add(r *ScenarioResult) {
	a.scenarios++
	w := r.Scenario.Weight
	if w == 0 {
		w = 1
	}
	x := r.OutputLoss
	a.sumW += w
	a.sumW2 += w * w
	a.sumWX += w * x
	a.sumWX2 += w * x * x
	a.sumW2X += w * w * x
	a.sumW2X2 += w * w * x * x
	a.loss.Add(x, w)
	a.blast.Add(float64(r.FailedTasks), w)
	a.tent.Add(r.TentativeFrac, w)
	if r.TentativeFrac > 0 {
		a.corr.Add(r.CorrectedFrac, w)
	}
	for _, d := range r.CorrectionDelays {
		a.t2c.Add(d, w)
	}
	if !r.Recovered {
		a.unrecovered++
		return
	}
	if r.FailedTasks > 0 {
		a.lat.Add(float64(r.WorstLatency), w)
	}
}

// merge folds shard b into a (called in shard order).
func (a *aggregator) merge(b *aggregator) {
	a.scenarios += b.scenarios
	a.unrecovered += b.unrecovered
	a.sumW += b.sumW
	a.sumW2 += b.sumW2
	a.sumWX += b.sumWX
	a.sumWX2 += b.sumWX2
	a.sumW2X += b.sumW2X
	a.sumW2X2 += b.sumW2X2
	a.lat.Merge(b.lat)
	a.loss.Merge(b.loss)
	a.blast.Merge(b.blast)
	a.tent.Merge(b.tent)
	a.corr.Merge(b.corr)
	a.t2c.Merge(b.t2c)
}

// ess returns the campaign's effective sample size: the variance-ratio
// ESS of the self-normalised loss estimator — naive-Monte-Carlo
// variance over importance-sampling variance — i.e. the number of
// plain scenarios that would estimate the mean loss equally well. With
// Sw = Σw, μ = Σwx/Σw, A = Σw(x-μ)² and B = Σw²(x-μ)²:
// ESS = (A/B)·Sw (delta-method variance of the reweighted mean). A
// good tilt makes this EXCEED N — the whole point of tilting — where
// the classic (Σw)²/Σw² (the fallback when the loss is empirically
// constant, B = 0) can only reach N. With unit weights A and B are
// computed from bit-identical counters, so A/B is exactly 1 and the
// ESS is exactly N (the ratio is taken first for that reason:
// (A·N)/A need not round back to N).
func (a *aggregator) ess() float64 {
	if a.sumW <= 0 {
		return 0
	}
	mu := a.sumWX / a.sumW
	varA := a.sumWX2 - 2*mu*a.sumWX + mu*mu*a.sumW
	varB := a.sumW2X2 - 2*mu*a.sumW2X + mu*mu*a.sumW2
	if varB <= 0 || varA <= 0 {
		return a.sumW * a.sumW / a.sumW2
	}
	return (varA / varB) * a.sumW
}

func (a *aggregator) summary() Summary {
	return Summary{
		Scenarios:        a.scenarios,
		Unrecovered:      a.unrecovered,
		ESS:              a.ess(),
		Latency:          distOf(a.lat),
		Loss:             distOf(a.loss),
		FailedTasks:      distOf(a.blast),
		TentativeFrac:    distOf(a.tent),
		CorrectedFrac:    distOf(a.corr),
		TimeToCorrection: distOf(a.t2c),
	}
}

// distOf renders one metric summary as the summary distribution: means
// and quantiles are taken against the reweighted (nominal)
// distribution. Mean and Max are exact; quantiles carry the summary's
// rank-error bound.
func distOf(s *sketch.Weighted) Dist {
	if s.Count() == 0 {
		return Dist{}
	}
	return Dist{
		Mean: s.Mean(),
		P50:  s.Quantile(0.50),
		P95:  s.Quantile(0.95),
		P99:  s.Quantile(0.99),
		Max:  s.Max(),
	}
}
