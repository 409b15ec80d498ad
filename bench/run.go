package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"
)

// procStart approximates process start: package variables initialise before
// main runs, after the runtime is up.
var procStart = time.Now()

// setupReps is how often a run sets up: setup_s is the median, so one cold
// or disturbed set-up does not decide it.
const setupReps = 3

// A sample is one timed job.
type sample struct {
	input int64
	wall  time.Duration
	gc    time.Duration // forced collections inside wall (traced run only)
	o     outcome
}

// A run is everything one workload process measured.
type run struct {
	w         *workload
	seed      int64
	attempted int
	failures  []string
	golden    string // "ok", "none" or "mismatch"
	digests   map[int64]string
	setups    []float64 // seconds
	samples   []sample
	elapsed   time.Duration // wall time of the timed part
}

func newRun(w *workload, seed int64) *run {
	return &run{w: w, seed: seed, golden: "ok", digests: map[int64]string{}}
}

func (r *run) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check books one job's output checks: the job's own invariants, the golden
// digest for its input, and digest equality with every earlier job of the
// run on the same input. Any miss is one failed job.
func (r *run) check(input int64, o outcome) {
	r.attempted++
	if o.err != nil {
		r.failf("%s input %d: %v", r.w.name, input, o.err)
		return
	}
	switch want, known := goldenDigest(r.w.name, input); {
	case !known:
		if r.golden == "ok" {
			r.golden = "none"
		}
	case want != o.digest:
		r.golden = "mismatch"
		r.failf("%s input %d: digest %.12s, golden %.12s", r.w.name, input, o.digest, want)
		return
	}
	if prev, seen := r.digests[input]; !seen {
		r.digests[input] = o.digest
	} else if prev != o.digest {
		r.failf("%s input %d: digest %.12s differs from %.12s earlier in the run", r.w.name, input, o.digest, prev)
	}
}

// failed is the number of failed jobs; a job can fail only once.
func (r *run) failed() int {
	if len(r.failures) > r.attempted {
		return r.attempted
	}
	return len(r.failures)
}

// setUp repeats the workload's set-up and warm-up job; the first repetition
// is timed from process start, so it carries runtime and harness init.
func (r *run) setUp(rng *rand.Rand, reps int) {
	for i := 0; i < reps; i++ {
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		input := inputPool[rng.Intn(len(inputPool))]
		r.check(input, r.w.job(input, nil))
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
}

// measure runs whole rounds over the input pool, each in a fresh order drawn
// from the seed, until the time is up; rec is nil for the untraced run.
func (r *run) measure(rng *rand.Rand, d time.Duration, rec *recorder) {
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for _, i := range rng.Perm(len(inputPool)) {
			input := inputPool[i]
			var o outcome
			var gc0 time.Duration
			if rec != nil {
				rec.job, gc0 = len(r.samples), rec.gc
			}
			t := time.Now()
			rec.do(layerHarness, "job", func() {
				o = r.w.job(input, rec)
				rec.do(layerHarness, "check", func() { r.check(input, o) })
			})
			s := sample{input: input, wall: time.Since(t), o: o}
			if rec != nil {
				s.gc = rec.gc - gc0
			}
			r.samples = append(r.samples, s)
		}
	}
	r.elapsed = time.Since(start)
}

// pooled reduces per-job values to one figure that does not depend on how
// many jobs each input got: the median per input, averaged over the pool.
func pooled(samples []sample, value func(sample) float64) float64 {
	by := map[int64][]float64{}
	for _, s := range samples {
		by[s.input] = append(by[s.input], value(s))
	}
	var total float64
	for _, vs := range by {
		total += median(vs)
	}
	if len(by) == 0 {
		return 0
	}
	return total / float64(len(by))
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// endToEndMetrics computes the untraced run's metrics.
func (r *run) endToEndMetrics() map[string]float64 {
	m := map[string]float64{
		"setup_s":     median(r.setups),
		"job_wall_s":  pooled(r.samples, func(s sample) float64 { return s.wall.Seconds() }),
		"peak_rss_mb": peakRSSMB(),
	}
	if r.w.job == nil {
		m[jobsPerS.Name] = float64(len(r.samples)) / r.elapsed.Seconds()
	}
	if r.w.simulates {
		m[simKcycles.Name] = pooled(r.samples, func(s sample) float64 {
			return float64(s.o.simCycles) / 1e3 / s.o.simTime.Seconds()
		})
	}
	return m
}

// runPooled is the untraced run of a pooled workload.
func runPooled(w *workload, seed int64, d time.Duration) *run {
	r := newRun(w, seed)
	rng := rand.New(rand.NewSource(seed))
	r.setUp(rng, setupReps)
	r.measure(rng, d, nil)
	return r
}

// serveBase spreads the closed loop's job seeds by -seed: a run submits a
// few thousand jobs 16 seeds apart, far fewer than the 2^20 between bases,
// and no base reaches the canary seeds.
func serveBase(seed int64) int64 { return (seed&(1<<36-1) + 1) << 20 }

// serveSetUp repeats the serve set-up — open the journal, start scheduler
// and HTTP server, one canary job checked against its golden digest — and
// hands the last environment on to the timed loop.
func (r *run) serveSetUp(reps int) (*serveEnv, error) {
	var env *serveEnv
	for i := 0; i < reps; i++ {
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		var err error
		if env, err = startServe(true); err != nil {
			return nil, err
		}
		input := serveCanarySeeds[i%len(serveCanarySeeds)]
		digest, err := env.serveCanary(input)
		r.check(input, outcome{digest: digest, err: err})
		r.setups = append(r.setups, time.Since(start).Seconds())
		if i < reps-1 {
			if _, err := env.stop(1); err != nil {
				r.failf("serve set-up %d: %v", i, err)
			}
		}
	}
	return env, nil
}

// book folds a closed loop into the run.
func (r *run) book(loop serveLoop) {
	r.attempted += len(loop.jobs)
	r.failures = append(r.failures, loop.failures...)
	for _, j := range loop.jobs {
		r.samples = append(r.samples, sample{wall: j.wall})
	}
	r.elapsed = loop.elapsed
}

// runServe is the untraced run of serve_small_jobs.
func runServe(w *workload, seed int64, d time.Duration) (*run, error) {
	r := newRun(w, seed)
	env, err := r.serveSetUp(setupReps)
	if err != nil {
		return nil, err
	}
	loop := env.closedLoop(serveBase(seed), d, 0, nil)
	r.book(loop)
	if _, err := env.stop(1 + len(loop.jobs)); err != nil {
		r.failf("serve: %v", err)
	}
	return r, nil
}

// A report is one workload process's result, and the last line it prints.
// The first four keys are the benchmark contract; the rest is read by the
// parent process that runs every workload.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string   `json:"workload,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	Samples  int      `json:"samples,omitempty"`
	Golden   string   `json:"golden,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportOf renders a run's metrics. Without full, the report holds exactly
// the contract's keys and the metrics named by defs.
func reportOf(r *run, values map[string]float64, defs []metricDef, full bool) report {
	rep := report{
		Correct: r.failed() == 0, Attempted: r.attempted, Failed: r.failed(),
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			rep.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	}
	if full {
		rep.Workload, rep.Seed, rep.Samples, rep.Golden = r.w.name, r.seed, len(r.samples), r.golden
		rep.Failures = r.failures
		if len(rep.Failures) > 5 {
			rep.Failures = rep.Failures[:5]
		}
	}
	return rep
}
