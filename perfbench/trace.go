package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call: a layer boundary crossed by the benchmark.
// Its name is "<layer>.<operation>"; the layer is the package called
// (campaign, engine, cluster, plan, sketch, coord) or "bench" for the
// benchmark's own runner spans. Req ties the spans of one scenario or
// plan request together (-1 when the span belongs to no single one).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Req    int     `json:"req"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory; write dumps them at the end of the
// run. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() float64 { return float64(time.Since(tr.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id. A nil tracer records nothing
// (the untraced runs pass nil), and its spans have id -1.
func (tr *tracer) begin(name string, parent, req int) int {
	if tr == nil {
		return -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: tr.now(), End: -1})
	return id
}

// end closes span id and returns its duration in seconds.
func (tr *tracer) end(id int) float64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id]
	s.End = tr.now()
	return (s.End - s.Start) / 1e6
}

// do runs f inside a span and returns the span's duration in seconds.
func (tr *tracer) do(name string, parent, req int, f func() error) (float64, error) {
	if tr == nil {
		t := time.Now()
		err := f()
		return since(t), err
	}
	id := tr.begin(name, parent, req)
	err := f()
	return tr.end(id), err
}

// durations returns the durations in seconds of every closed span with
// the given name below root (root itself included).
func (tr *tracer) durations(name string, root int) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name && s.End >= 0 && tr.below(s.ID, root) {
			out = append(out, (s.End-s.Start)/1e6)
		}
	}
	return out
}

// below reports whether span id is root or one of its descendants.
// Callers hold tr.mu.
func (tr *tracer) below(id, root int) bool {
	for id >= 0 {
		if id == root {
			return true
		}
		id = tr.spans[id].Parent
	}
	return false
}

// layerOf is the layer a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the self time in seconds of the spans
// below root: each span's duration minus the part of its interval its
// child spans cover. Every instant under root is attributed to exactly
// one layer, so the values sum to the root's duration.
func (tr *tracer) selfTimes(root int) map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := map[int][]span{}
	for _, s := range tr.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range tr.spans {
		if s.End < 0 || !tr.below(s.ID, root) {
			continue
		}
		out[layerOf(s.Name)] += (s.End - s.Start - covered(children[s.ID], s.Start, s.End)) / 1e6
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to [lo, hi]. Children of one parent may overlap when they ran
// on different goroutines.
func covered(kids []span, lo, hi float64) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps every span, then the run's metrics (the counts recorded
// at the same boundaries among them), as JSON lines into dir.
func (tr *tracer) write(dir, file string, metrics map[string]metric) (string, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	lines := make([]any, 0, len(tr.spans)+len(metrics))
	for _, s := range tr.spans {
		lines = append(lines, s)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lines = append(lines, map[string]any{"metric": n, "value": metrics[n].Value, "unit": metrics[n].Unit})
	}
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// layers are the packages the traced runners put spans around, in
// report order; "bench" is the benchmark's own runner code.
var layers = []string{"campaign", "engine", "cluster", "plan", "sketch", "coord", "bench"}

// untracedLayer names the spans around a runner's untraced reference
// runs, which the tracing overhead compares the traced runs with.
const untracedLayer = "untraced"

// runTraced runs every other workload's traced runner at probe size and
// then w's own at full size (whose values win where both set a metric),
// reports per-layer self-time shares of w's own root span, and writes
// the spans out.
func runTraced(o options, w *workload, r *report) error {
	tr := newTracer()
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		root := tr.begin("bench.probe."+other.name, -1, -1)
		if err := other.traced(o, r, tr, root, true); err != nil {
			return fmt.Errorf("%s probe: %w", other.name, err)
		}
		tr.end(root)
	}
	// Label what the probes measured; w's own runner overwrites the
	// metrics (and notes) it measures itself.
	for n := range r.metrics {
		r.notes[n] = strings.TrimSpace("from the probe-size runners; " + r.notes[n])
	}
	root := tr.begin("bench.workload."+w.name, -1, -1)
	if err := w.traced(o, r, tr, root, false); err != nil {
		return err
	}
	// The untraced reference runs the overhead is measured against run
	// under the root too; they are not part of the traced breakdown.
	total := tr.end(root)
	self := tr.selfTimes(root)
	total -= self[untracedLayer]
	for _, l := range layers {
		note := fmt.Sprintf("%.3f s of %.3f s traced under the %s workload span", self[l], total, w.name)
		if inc := w.inclusive[l]; inc != "" {
			note += "; " + inc
		}
		r.set(l+".self_pct", 100*self[l]/total, "%", note)
	}
	fmt.Println("note: sim cannot be timed apart from the engine from outside: Engine.Run wraps Clock.RunUntil and no event count is public; engine.* includes sim.")
	path, err := tr.write(o.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed), r.metrics)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return nil
}
