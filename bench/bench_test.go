package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives, because that is what the benchmark's acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1 (5.5 between the quartiles over a median of 5.5)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	if got := selfTimes(nil); len(got) != 0 {
		t.Errorf("no spans: %v", got)
	}
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: 100},
		{Name: "build", Parent: 0, Start: 10, End: 30},   // adjacent to run
		{Name: "run", Parent: 0, Start: 30, End: 90},     // holds a nested child
		{Name: "emit", Parent: 2, Start: 40, End: 50},    // nested
		{Name: "empty", Parent: 2, Start: 60, End: 60},   // empty
		{Name: "twin", Parent: 2, Start: 45, End: 70},    // overlaps emit: merged, not double-counted
		{Name: "beyond", Parent: 0, Start: 95, End: 120}, // clipped to the parent
	}
	want := []int64{100 - 20 - 60 - 5, 20, 60 - 10 - 20, 10, 0, 25, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	layered := []span{
		{Layer: layerHarness, Parent: -1, Start: 0, End: 100},
		{Layer: layerCore, Parent: 0, Start: 0, End: 40},
		{Layer: layerSim, Parent: 0, Start: 40, End: 90},
		{Layer: layerCore, Parent: 2, Start: 50, End: 60},
	}
	byLayer, wall, rootSelf := layerSelf(layered, -1)
	if wall != 100 || rootSelf != 10 || byLayer[layerCore] != 50 || byLayer[layerSim] != 40 {
		t.Errorf("layerSelf = %v, wall %d, root self %d", byLayer, wall, rootSelf)
	}
}

// The root bench_test.go reports 2.4 M edges/s where the run does 24 M: it
// divides by b.N where it should multiply, and elsewhere feeds cumulative
// Engine.Edges(), priming included, into a rate over the timed part only.
// Here the cost per edge takes the edges dispatched during the interval.
func TestEdgeCostAgainstTheTwoMistakes(t *testing.T) {
	const primed, perRun, runs = 100_000, 1_000_000, 10
	elapsed := 2 * time.Second
	before, after := int64(primed), int64(primed+perRun*runs)
	want := 2e9 / float64(perRun*runs)
	if got := nsPer(elapsed, after-before); !near(got, want) {
		t.Errorf("nsPer = %v, want %v", got, want)
	}
	if wrong := nsPer(elapsed, perRun/runs); near(wrong, want) {
		t.Error("one run's edges divided by the run count should not give the cost")
	}
	if wrong := nsPer(elapsed, after); near(wrong, want) {
		t.Error("cumulative edges, priming included, should not give the cost")
	}
	if got := nsPer(elapsed, 0); got != 0 {
		t.Errorf("nsPer over no work = %v, want 0", got)
	}
}

// miniature swaps the workloads' sizes for ones that run in milliseconds.
func miniature(t *testing.T) []*workload {
	points, windows := allocPoints, backendWindowsNs
	allocPoints = []allocPoint{
		{scenario.Uniform, 8, 8, 120, "greedy"},
		{scenario.Transpose, 6, 6, 80, "ripup"},
	}
	backendWindowsNs = map[string]float64{"aelite": 4000, "aethereal": 4000, "routerless": 8000}
	dir := outDir
	outDir = t.TempDir()
	t.Cleanup(func() { allocPoints, backendWindowsNs, outDir = points, windows, dir })
	return []*workload{
		{name: "mini_sync_audit", simulates: true, job: func(in int64, r *recorder) outcome {
			return sec7Job(in, core.Synchronous, true, 500, 4000, r)
		}},
		{name: "mini_async_plain", simulates: true, job: func(in int64, r *recorder) outcome {
			return sec7Job(in, core.Asynchronous, false, 500, 2000, r)
		}},
		{name: "mini_alloc", job: allocJob},
		{name: "mini_backends", simulates: true, job: backendsJob},
	}
}

// Every workload runs one miniature job through the harness's own paths —
// measure, check, spans, metrics — so none of it can rot unnoticed.
func TestMiniatureWorkloads(t *testing.T) {
	pool := inputPool
	inputPool = inputPool[:1]
	defer func() { inputPool = pool }()
	for _, w := range miniature(t) {
		r := newRun(w, 1)
		rec := newRecorder()
		r.measure(rand.New(rand.NewSource(1)), 0, rec)
		if r.failed() != 0 || r.attempted != 1 || r.golden != "none" {
			t.Errorf("%s: attempted %d, failures %v, golden %s", w.name, r.attempted, r.failures, r.golden)
			continue
		}
		m := r.endToEndMetrics()
		for _, name := range []string{"job_wall_s", "peak_rss_mb"} {
			if m[name] <= 0 {
				t.Errorf("%s: %s = %v", w.name, name, m[name])
			}
		}
		if w.simulates && m[simKcycles.Name] <= 0 {
			t.Errorf("%s: no simulated cycles booked", w.name)
		}
		layers := map[string]float64{}
		spanMetrics(rec.spans, len(r.samples), layers)
		if c := layers["harness.span_coverage"]; c < 0.95 || c > 1 {
			t.Errorf("%s: layer spans cover %.3f of the job's wall time, want >= 0.95", w.name, c)
		}
	}
}

// cbr_replay's own checks need a window replay can carry, so its miniature
// is the real job over a tenth of the cycles.
func TestMiniatureReplay(t *testing.T) {
	if o := cbrReplayJob(inputPool[0], core.Synchronous, 2000, 4e5, nil); o.err != nil {
		t.Error(o.err)
	}
}

func TestMiniatureServe(t *testing.T) {
	miniature(t)
	r := newRun(workloadByName("serve_small_jobs"), 1)
	env, err := r.serveSetUp(1)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*recorder{newRecorder(), newRecorder()}
	loop := env.closedLoop(serveBase(1), 0, 2, recs)
	r.book(loop)
	if _, err := env.stop(1 + len(loop.jobs)); err != nil {
		t.Error(err)
	}
	if r.failed() != 0 || r.attempted != 3 || r.golden != "ok" {
		t.Errorf("attempted %d, failures %v, golden %s", r.attempted, r.failures, r.golden)
	}
	if len(recs[0].spans) != 4 {
		t.Errorf("client 0 recorded %d spans, want job + POST + SSE + GET", len(recs[0].spans))
	}
}

// The digest gate bites: one altered latency in an otherwise identical
// report makes the job a failed job.
func TestDigestGateBites(t *testing.T) {
	w := miniature(t)[0]
	clean := w.job(inputPool[0], nil)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	golden[w.name] = map[string]string{formatSeed(inputPool[0]): clean.digest}
	defer delete(golden, w.name)

	r := newRun(w, 1)
	r.check(inputPool[0], w.job(inputPool[0], nil))
	if r.failed() != 0 || r.golden != "ok" {
		t.Fatalf("untampered job: failures %v, golden %s", r.failures, r.golden)
	}

	tamper = func(rep *core.Report) { rep.Conns[0].LatMaxNs += 0.5 }
	defer func() { tamper = nil }()
	r.check(inputPool[0], w.job(inputPool[0], nil))
	if r.failed() != 1 || r.golden != "mismatch" {
		t.Errorf("tampered job: %d failed (%v), golden %s; want 1 failed, mismatch", r.failed(), r.failures, r.golden)
	}
}

// BENCHMARK.json's limits: names, units and one-line reasons.
func TestTablesFitTheContract(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if len(w.why) > 200 || w.why == "" {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
		seen[w.name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d layer metrics", len(perLayer))
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (unit %q) is duplicated or too long", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v", d.Name, d.Bound)
		}
	}
}
