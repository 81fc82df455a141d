package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.2, 1}, {0.5, 3}, {0.95, 5}, {1, 5},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %v, want 0", got)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	kids := []span{
		{Start: 10, End: 20},
		{Start: 15, End: 30}, // overlaps the first
		{Start: 40, End: 50},
		{Start: 90, End: 120}, // clipped to the parent
	}
	if got, want := covered(kids, 0, 100), 20.0+10+10; got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
}

// TestSelfTimesSumToRoot checks that self times attribute every instant
// under the root to exactly one layer.
func TestSelfTimesSumToRoot(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "bench.workload.x", Start: 0, End: 1e6},
		{ID: 1, Parent: 0, Name: "campaign.run", Start: 1e5, End: 6e5},
		{ID: 2, Parent: 1, Name: "engine.run", Start: 2e5, End: 4e5},
		{ID: 3, Parent: 0, Name: "sketch.add", Start: 7e5, End: 8e5},
		{ID: 4, Parent: -1, Name: "engine.run", Start: 0, End: 5e5}, // another root
	}
	self := tr.selfTimes(0)
	want := map[string]float64{"bench": 0.4, "campaign": 0.3, "engine": 0.2, "sketch": 0.1}
	total := 0.0
	for l, v := range self {
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", l, v, want[l])
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("self times sum to %v s, want the root's 1 s", total)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("engine.run", -1, 0); id != -1 {
		t.Fatalf("nil tracer span id = %d, want -1", id)
	}
	ran := false
	if _, err := tr.do("engine.run", -1, 0, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("nil tracer do: ran=%v err=%v", ran, err)
	}
	tr.end(-1)
}

func TestRSSWatchReportsAPeak(t *testing.T) {
	w := watchRSS()
	defer w.close()
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = 1
	}
	first := w.peak()
	if first <= 0 {
		t.Fatalf("peak = %v MB, want > 0", first)
	}
	if second := w.peak(); second <= 0 {
		t.Fatalf("peak of a new window = %v MB, want > 0", second)
	}
	_ = buf[len(buf)-1]
}
