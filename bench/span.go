package main

import (
	"runtime"
	"sort"
	"time"
)

// A span is one timed call from the harness into a layer's public function.
// Spans are recorded by the harness only — nothing inside internal/ is
// instrumented — kept in memory, and written out when the run ends.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"` // index into the same slice, -1 for a job's root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// A recorder collects the spans of one traced run. A nil recorder records
// nothing, so the untraced run pays one nil check per layer call.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int
	job    int

	// liveHeap is the largest heap still reachable at a job's fullest
	// point (after a forced collection), the figure behind peak RSS.
	liveHeap uint64
	// gc is the time spent in those forced collections so far.
	gc time.Duration
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// do runs f inside a span; nested calls become children.
func (r *recorder) do(layer, name string, f func()) {
	if r == nil {
		f()
		return
	}
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Layer: layer, Job: r.job, Parent: parent})
	r.stack = append(r.stack, id)
	r.spans[id].Start = time.Since(r.origin).Nanoseconds()
	f()
	r.spans[id].End = time.Since(r.origin).Nanoseconds()
	r.stack = r.stack[:len(r.stack)-1]
}

// sampleLive is called by a job while everything it built is still
// referenced. It only does work in the traced run: a forced collection per
// job would distort the end-to-end timings.
func (r *recorder) sampleLive() {
	if r == nil {
		return
	}
	start := time.Now()
	r.do(layerHarness, "runtime.GC", func() { r.liveHeap = max(r.liveHeap, liveHeapNow()) })
	r.gc += time.Since(start)
}

// liveHeapNow collects and returns the bytes still reachable.
func liveHeapNow() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover. Children are clipped to the
// parent and overlapping children (concurrent clients) are merged first, so
// a self time is never negative.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered, reach := int64(0), s.Start
		sort.Slice(children[i], func(a, b int) bool { return spans[children[i][a]].Start < spans[children[i][b]].Start })
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self times per layer over the spans of one job (job < 0:
// all jobs), excluding job roots, and returns the roots' total wall time
// beside it.
func layerSelf(spans []span, job int) (byLayer map[string]int64, wall, rootSelf int64) {
	self := selfTimes(spans)
	byLayer = make(map[string]int64)
	for i, s := range spans {
		if job >= 0 && s.Job != job {
			continue
		}
		if s.Parent < 0 {
			wall += s.End - s.Start
			rootSelf += self[i]
			continue
		}
		byLayer[s.Layer] += self[i]
	}
	return byLayer, wall, rootSelf
}
