package campaign

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/sim"
)

// exactSummarise is the pre-sketch exact reference reduction (the old
// summarise): full sample arrays through NewDist. Kept in tests as the
// ground truth the sketch path is cross-checked against.
func exactSummarise(results []ScenarioResult) Summary {
	sum := Summary{Scenarios: len(results)}
	var lats, losses, blast, tent, corr, t2c []float64
	for _, r := range results {
		losses = append(losses, r.OutputLoss)
		blast = append(blast, float64(r.FailedTasks))
		tent = append(tent, r.TentativeFrac)
		if r.TentativeFrac > 0 {
			corr = append(corr, r.CorrectedFrac)
		}
		t2c = append(t2c, r.CorrectionDelays...)
		if !r.Recovered {
			sum.Unrecovered++
			continue
		}
		if r.FailedTasks > 0 {
			lats = append(lats, float64(r.WorstLatency))
		}
	}
	sum.Latency = NewDist(lats)
	sum.Loss = NewDist(losses)
	sum.FailedTasks = NewDist(blast)
	sum.TentativeFrac = NewDist(tent)
	sum.CorrectedFrac = NewDist(corr)
	sum.TimeToCorrection = NewDist(t2c)
	return sum
}

// checkDistWithinBound asserts the sketch-path distribution matches
// the exact reference within the documented rank-error bound eps: Max
// bit-identical, Mean within float-reassociation noise, and every
// quantile an actual sample whose rank is within eps*n of the target.
func checkDistWithinBound(t *testing.T, metric string, got, exact Dist, sample []float64, eps float64) {
	t.Helper()
	if len(sample) == 0 {
		if got != (Dist{}) {
			t.Errorf("%s: empty sample but dist %+v", metric, got)
		}
		return
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	if got.Max != exact.Max {
		t.Errorf("%s: max %v, want exact %v", metric, got.Max, exact.Max)
	}
	if d := math.Abs(got.Mean - exact.Mean); d > 1e-9*(math.Abs(exact.Mean)+1) {
		t.Errorf("%s: mean %v, want %v", metric, got.Mean, exact.Mean)
	}
	n := len(sorted)
	slack := int(math.Ceil(eps * float64(n)))
	for _, qv := range []struct {
		q   float64
		got float64
	}{{0.50, got.P50}, {0.95, got.P95}, {0.99, got.P99}} {
		target := int(math.Ceil(qv.q * float64(n)))
		if target < 1 {
			target = 1
		}
		lo := sort.SearchFloat64s(sorted, qv.got)
		hi := sort.Search(n, func(i int) bool { return sorted[i] > qv.got })
		if lo >= hi {
			t.Errorf("%s: q=%v answer %v not in sample", metric, qv.q, qv.got)
			continue
		}
		if lo+1-slack > target || hi+slack < target {
			t.Errorf("%s: q=%v answer %v at ranks [%d,%d], target %d, slack %d",
				metric, qv.q, qv.got, lo+1, hi, target, slack)
		}
	}
}

// syntheticResults draws n plausible scenario results.
func syntheticResults(n int, seed int64) []ScenarioResult {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ScenarioResult, n)
	for i := range out {
		r := &out[i]
		r.Scenario = Scenario{Index: i}
		r.FailedTasks = rng.Intn(20)
		r.Recovered = rng.Float64() < 0.9
		if r.Recovered && r.FailedTasks > 0 {
			r.WorstLatency = sim.Time(1 + 20*rng.Float64()*rng.Float64())
		}
		r.SinkTuples = 1000 + rng.Intn(1000)
		r.OutputLoss = rng.Float64() * rng.Float64()
		if rng.Float64() < 0.7 {
			r.TentativeFrac = rng.Float64()
			r.CorrectedFrac = rng.Float64()
			for d := rng.Intn(5); d > 0; d-- {
				r.CorrectionDelays = append(r.CorrectionDelays, 30*rng.Float64())
			}
		}
	}
	return out
}

// reduceSynthetic pushes pre-computed results through the production
// reduction machinery (streamer + sharded sketch aggregators) on a
// worker pool, exactly as Run does.
func reduceSynthetic(t *testing.T, results []ScenarioResult, workers, shards int) Summary {
	t.Helper()
	aggs := make([]*aggregator, shards)
	for s := range aggs {
		aggs[s] = newAggregator()
	}
	block := blockSize(len(results), shards)
	st := newStreamer(64, func(i int, e *entry) { aggs[i/block].add(&e.res) })
	par.Each(len(results), workers, func(i int) {
		st.deliver(i, entry{res: results[i]})
	})
	agg := aggs[0]
	for s := 1; s < shards; s++ {
		agg.merge(aggs[s])
	}
	return agg.summary()
}

// TestShardedReductionCrossCheck runs a 10k-result reduction through
// the sketch path and cross-checks every summary distribution against
// the exact NewDist reference within the documented rank-error bound —
// the acceptance check for sketch accuracy at campaign scale, minus
// the simulation cost.
func TestShardedReductionCrossCheck(t *testing.T) {
	results := syntheticResults(10_000, 42)
	exact := exactSummarise(results)
	sum := reduceSynthetic(t, results, 8, DefaultShards)
	if sum.Scenarios != exact.Scenarios || sum.Unrecovered != exact.Unrecovered {
		t.Fatalf("counts %d/%d, want %d/%d", sum.Scenarios, sum.Unrecovered, exact.Scenarios, exact.Unrecovered)
	}
	var lats, losses, blast, tent, corr, t2c []float64
	for _, r := range results {
		losses = append(losses, r.OutputLoss)
		blast = append(blast, float64(r.FailedTasks))
		tent = append(tent, r.TentativeFrac)
		if r.TentativeFrac > 0 {
			corr = append(corr, r.CorrectedFrac)
		}
		t2c = append(t2c, r.CorrectionDelays...)
		if r.Recovered && r.FailedTasks > 0 {
			lats = append(lats, float64(r.WorstLatency))
		}
	}
	const eps = 2.56 / SketchK // sketch.RankError for the campaign K
	checkDistWithinBound(t, "latency", sum.Latency, exact.Latency, lats, eps)
	checkDistWithinBound(t, "loss", sum.Loss, exact.Loss, losses, eps)
	checkDistWithinBound(t, "failed_tasks", sum.FailedTasks, exact.FailedTasks, blast, eps)
	checkDistWithinBound(t, "tentative", sum.TentativeFrac, exact.TentativeFrac, tent, eps)
	checkDistWithinBound(t, "corrected", sum.CorrectedFrac, exact.CorrectedFrac, corr, eps)
	checkDistWithinBound(t, "t2c", sum.TimeToCorrection, exact.TimeToCorrection, t2c, eps)
}

// TestUnitWeightSummaryExact: an unweighted campaign is the weighted
// path with w = 1, and that fold must be exact, not merely close: the
// effective sample size equals the scenario count (the variance-ratio
// form rounds (A·N)/B off N for some loss streams unless the ratio is
// taken first) and the mean loss equals the exact mean bit for bit.
func TestUnitWeightSummaryExact(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		results := syntheticResults(50+int(seed)%400, seed)
		if seed%3 == 0 {
			// Zero-heavy losses, as in campaigns where most bursts miss
			// every primary.
			for i := range results {
				if i%4 != 0 {
					results[i].OutputLoss = 0
				}
			}
		}
		for _, shards := range []int{1, DefaultShards} {
			sum := reduceSynthetic(t, results, 2, shards)
			if sum.ESS != float64(sum.Scenarios) {
				t.Fatalf("seed %d shards %d: ESS %v, want exactly %d", seed, shards, sum.ESS, sum.Scenarios)
			}
			// The exact mean under the shard fold: per-shard sums in
			// index order, added in shard order.
			block := blockSize(len(results), shards)
			var total float64
			for lo := 0; lo < len(results); lo += block {
				var part float64
				for i := lo; i < lo+block && i < len(results); i++ {
					part += results[i].OutputLoss
				}
				total += part
			}
			if want := total / float64(len(results)); sum.Loss.Mean != want {
				t.Fatalf("seed %d shards %d: mean loss %v, want exactly %v", seed, shards, sum.Loss.Mean, want)
			}
		}
	}
}

// TestShardedReductionDeterminism: for a fixed shard count the summary
// is bit-identical at any worker count; the exact aggregates are also
// shard-count-independent.
func TestShardedReductionDeterminism(t *testing.T) {
	results := syntheticResults(5_000, 7)
	base := reduceSynthetic(t, results, 1, 4)
	for _, workers := range []int{2, 8, 16} {
		if got := reduceSynthetic(t, results, workers, 4); got != base {
			t.Fatalf("workers=%d: summary differs from sequential:\n%+v\n%+v", workers, got, base)
		}
	}
	for _, shards := range []int{1, 2, 13} {
		got := reduceSynthetic(t, results, 8, shards)
		if got.Scenarios != base.Scenarios || got.Unrecovered != base.Unrecovered {
			t.Fatalf("shards=%d: counts changed", shards)
		}
		if got.Loss.Max != base.Loss.Max || got.Latency.Max != base.Latency.Max {
			t.Fatalf("shards=%d: exact Max changed", shards)
		}
	}
}

// TestCampaignStreamsInOrder: OnResult observes every scenario exactly
// once, in scenario-index order, while Results stays nil on the
// flat-memory path.
func TestCampaignStreamsInOrder(t *testing.T) {
	env := testEnv(t, "greedy")
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := Generate(c, GenSpec{Seed: 21, Scenarios: 24, Model: KOfRack, Correlation: DefaultCorrelation})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	var losses []float64
	rep, err := Run(Config{
		Setup:     env.Setup,
		Scenarios: scenarios,
		Horizon:   90,
		Shards:    1,
		OnResult: func(r ScenarioResult) {
			seen = append(seen, r.Scenario.Index)
			losses = append(losses, r.OutputLoss)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != nil {
		t.Fatalf("streaming path retained %d results", len(rep.Results))
	}
	if len(seen) != 24 {
		t.Fatalf("OnResult saw %d of 24 scenarios", len(seen))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("OnResult order broken at position %d: scenario %d", i, idx)
		}
	}
	if rep.Summary.Scenarios != 24 {
		t.Fatalf("summary covers %d scenarios", rep.Summary.Scenarios)
	}
	// Unweighted summaries are exact where they claim to be: ESS is the
	// scenario count and the mean is the plain in-order mean.
	if rep.Summary.ESS != 24 {
		t.Fatalf("unweighted ESS = %v, want exactly 24", rep.Summary.ESS)
	}
	var sum float64
	for _, x := range losses {
		sum += x
	}
	if want := sum / 24; rep.Summary.Loss.Mean != want {
		t.Fatalf("mean loss %v, want exactly %v", rep.Summary.Loss.Mean, want)
	}
}

// TestCampaignFailFast: a persistently failing Setup aborts the
// campaign promptly — the runner must not drain thousands of remaining
// scenarios before reporting the error.
func TestCampaignFailFast(t *testing.T) {
	env := testEnv(t, "")
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := Generate(c, GenSpec{Seed: 3, Scenarios: 5000, Model: SingleNode, Correlation: 0})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	setup := func() (engine.Setup, error) {
		if n := calls.Add(1); n > 3 {
			return engine.Setup{}, fmt.Errorf("injected setup failure %d", n)
		}
		return env.Setup()
	}
	_, err = Run(Config{
		Setup:        setup,
		Scenarios:    scenarios,
		Horizon:      40,
		Workers:      8,
		DisableReuse: true, // every scenario calls Setup
	})
	if err == nil {
		t.Fatal("failing campaign returned no error")
	}
	if got := calls.Load(); got > 200 {
		t.Fatalf("campaign attempted %d setups of 5000 after a persistent failure", got)
	}
}
