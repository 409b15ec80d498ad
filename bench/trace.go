package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const mib = 1 << 20

// memDelta is allocation between two MemStats readings, per job.
func memDelta(before, after *runtime.MemStats, jobs int, m map[string]float64) {
	if jobs == 0 {
		return
	}
	m["mem.alloc_mb_per_job"] = float64(after.TotalAlloc-before.TotalAlloc) / mib / float64(jobs)
	m["mem.mallocs_per_job"] = float64(after.Mallocs-before.Mallocs) / float64(jobs)
}

// tracedPooled is the traced run of a pooled workload: a quarter of the
// time with spans on, the same again with spans off for the tracing
// overhead, then the workload's probes.
func tracedPooled(w *workload, seed int64, d time.Duration) (*run, *probeRun, []span) {
	r := newRun(w, seed)
	rng := rand.New(rand.NewSource(seed))
	r.setUp(rng, 1)

	rec := newRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.measure(rng, d/4, rec)
	runtime.ReadMemStats(&after)

	plain := newRun(w, seed)
	plain.measure(rng, d/4, nil)
	r.attempted += plain.attempted
	r.failures = append(r.failures, plain.failures...)

	p := &probeRun{input: inputPool[0], jobs: len(r.samples), d: d / 4, spans: rec.spans, samples: r.samples, m: map[string]float64{}}
	memDelta(&before, &after, len(r.samples), p.m)
	p.m["mem.live_heap_mb"] = float64(rec.liveHeap) / mib
	spanMetrics(rec.spans, len(r.samples), p.m)
	tracedWall := pooled(r.samples, func(s sample) float64 { return (s.wall - s.gc).Seconds() })
	if base := pooled(plain.samples, func(s sample) float64 { return s.wall.Seconds() }); base > 0 {
		p.m["harness.trace_overhead_ratio"] = tracedWall / base
	}
	p.m["sim.edges"] = pooled(r.samples, func(s sample) float64 { return float64(s.o.edges) })
	p.m["trace.events"] = pooled(r.samples, func(s sample) float64 { return float64(s.o.events) })
	if w.simulates {
		p.m[simKcycles.Name] = r.endToEndMetrics()[simKcycles.Name]
	}
	// Every job of a workload books the same counts.
	for k := range r.samples[0].o.counts {
		p.m[k] = pooled(r.samples, func(s sample) float64 { return s.o.counts[k] })
	}
	w.probes(p)
	return r, p, rec.spans
}

// tracedServe is the traced run of serve_small_jobs: one environment, a
// traced loop and an untraced one on disjoint seeds, then the probes.
func tracedServe(w *workload, seed int64, d time.Duration) (*run, *probeRun, []span, error) {
	r := newRun(w, seed)
	env, err := r.serveSetUp(1)
	if err != nil {
		return nil, nil, nil, err
	}
	origin := time.Now()
	recs := make([]*recorder, serveClients)
	for i := range recs {
		recs[i] = &recorder{origin: origin}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced := env.closedLoop(serveBase(seed), d/4, 0, recs)
	runtime.ReadMemStats(&after)
	live := liveHeapNow()
	plain := env.closedLoop(serveBase(seed)+1<<18, d/4, 0, nil)
	r.book(plain)
	r.book(traced)
	stop, err := env.stop(1 + len(traced.jobs) + len(plain.jobs))
	if err != nil {
		r.failf("serve: %v", err)
	}

	// Each client recorded its own spans; parents index within a client.
	var spans []span
	for _, rec := range recs {
		off := len(spans)
		for _, s := range rec.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			spans = append(spans, s)
		}
	}
	p := &probeRun{input: seed, jobs: len(traced.jobs), d: d / 4, spans: spans, m: map[string]float64{},
		serveLoop: &serveTraced{loop: traced, stop: stop}}
	memDelta(&before, &after, len(traced.jobs), p.m)
	p.m["mem.live_heap_mb"] = float64(live) / mib
	spanMetrics(spans, len(traced.jobs), p.m)
	wallOf := func(l serveLoop) float64 {
		ws := make([]float64, len(l.jobs))
		for i, j := range l.jobs {
			ws[i] = j.wall.Seconds()
		}
		return median(ws)
	}
	if base := wallOf(plain); base > 0 {
		p.m["harness.trace_overhead_ratio"] = wallOf(traced) / base
	}
	p.m[jobsPerS.Name] = float64(len(traced.jobs)) / traced.elapsed.Seconds()
	w.probes(p)
	return r, p, spans, nil
}

// writeTrace writes the run's spans to trace_<workload>.json and folds its
// layer figures into layers.json, which holds one entry per workload.
func writeTrace(w *workload, seed int64, p *probeRun, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, "trace_"+w.name+".json"), map[string]any{
		"workload": w.name, "seed": seed, "spans": spans,
	}); err != nil {
		return err
	}
	path := filepath.Join(outDir, "layers.json")
	layers := map[string]layerReport{}
	if b, err := os.ReadFile(path); err == nil {
		// A file this program cannot read back is one it rewrites.
		_ = json.Unmarshal(b, &layers)
	}
	layers[w.name] = layerReport{Workload: w.name, Seed: seed, Jobs: p.jobs, Metrics: p.m, Failures: p.fails}
	return writeJSON(path, layers)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
