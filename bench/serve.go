package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// serveClients is the closed loop's width: each client submits its next job
// only after the previous artifact arrived. Two clients keep both of the
// scheduler's workers (and both of the host's cores) busy.
const serveClients = 2

// serveResubmitEvery makes every 50th job an idempotent resubmit check.
const serveResubmitEvery = 50

// serveSpec is the small campaign every serve job runs: shards are well
// under a millisecond of simulation each, so journal fsyncs, JSON, state
// transitions and artifact publication dominate.
func serveSpec(seed int64) serve.JobSpec {
	return serve.JobSpec{Cols: 2, Rows: 2, Conns: 4, Shards: 8, WarmupNs: 500, MeasureNs: 1000, Seed: seed}
}

// A serveEnv is one running control plane: journal and artifacts on the
// repository's filesystem, scheduler, and an in-process HTTP server.
type serveEnv struct {
	dir     string
	journal *serve.Journal
	sched   *serve.Scheduler
	srv     *httptest.Server
}

var serveEnvSeq int

// startServe opens the journal and starts scheduler and HTTP server.
// journaled false runs the scheduler ephemeral (no fsyncs), the base of the
// journal's cost ratio.
func startServe(journaled bool) (*serveEnv, error) {
	serveEnvSeq++
	dir := filepath.Join(outDir, "tmp", fmt.Sprintf("serve-%d-%d", os.Getpid(), serveEnvSeq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir}
	cfg := serve.SchedulerConfig{Workers: 2}
	if journaled {
		j, err := serve.OpenJournal(filepath.Join(dir, "journal.jsonl"))
		if err != nil {
			return nil, err
		}
		e.journal = j
		cfg.Journal = j
		cfg.ArtifactsDir = filepath.Join(dir, "artifacts")
	}
	e.sched = serve.NewScheduler(cfg)
	e.sched.Start()
	e.srv = httptest.NewServer(serve.NewServer(e.sched))
	return e, nil
}

// A serveStop is what shutting an environment down reported.
type serveStop struct {
	drain        serve.DrainSummary
	journalBytes int64
	replay       time.Duration // host time of ReplayJournal
}

// stop drains the scheduler, closes server and journal, verifies the journal
// replays clean with every job done, and removes the directory.
func (e *serveEnv) stop(wantJobs int) (serveStop, error) {
	e.srv.Close()
	st := serveStop{drain: e.sched.Drain(30 * time.Second)}
	var errs []error
	if e.journal != nil {
		if err := e.journal.Close(); err != nil {
			errs = append(errs, err)
		}
		if fi, err := os.Stat(e.journal.Path()); err == nil {
			st.journalBytes = fi.Size()
		}
		start := time.Now()
		state, err := serve.ReplayJournal(e.journal.Path())
		st.replay = time.Since(start)
		if err != nil {
			errs = append(errs, fmt.Errorf("journal replay: %w", err))
		}
		if state != nil {
			if len(state.Jobs) != wantJobs {
				errs = append(errs, fmt.Errorf("journal holds %d jobs, want %d", len(state.Jobs), wantJobs))
			}
			for _, j := range state.Jobs {
				if !j.Done || j.Status != string(serve.StateDone) {
					errs = append(errs, fmt.Errorf("journal: job %s not done (%q)", j.ID, j.Status))
					break
				}
			}
		}
	}
	if st.drain.Retries != 0 || st.drain.Failed != 0 {
		errs = append(errs, fmt.Errorf("drain: %d retries, %d failed jobs", st.drain.Retries, st.drain.Failed))
	}
	if err := os.RemoveAll(e.dir); err != nil {
		errs = append(errs, err)
	}
	return st, errors.Join(errs...)
}

// A serveJob is one submit → artifact round trip as a client sees it.
type serveJob struct {
	submit   time.Duration // POST round trip
	wall     time.Duration // POST sent → artifact received
	artifact []byte
}

func (e *serveEnv) post(spec serve.JobSpec) (serve.JobView, error) {
	var view serve.JobView
	body, err := json.Marshal(spec)
	if err != nil {
		return view, err
	}
	resp, err := http.Post(e.srv.URL+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body) // the status already is the error
		return view, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return view, json.NewDecoder(resp.Body).Decode(&view)
}

func (e *serveEnv) get(path string) ([]byte, error) {
	resp, err := http.Get(e.srv.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// follow reads the job's SSE stream to its terminal event.
func (e *serveEnv) follow(id string) (serve.State, error) {
	resp, err := http.Get(e.srv.URL + "/api/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.State.Terminal() {
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("event stream ended before a terminal state")
}

// roundTrip submits one job, follows it to done and fetches its artifact.
func (e *serveEnv) roundTrip(spec serve.JobSpec, r *recorder) (serveJob, error) {
	var job serveJob
	var view serve.JobView
	var err error
	start := time.Now()
	r.do(layerServe, "POST /api/jobs", func() { view, err = e.post(spec) })
	job.submit = time.Since(start)
	if err != nil {
		return job, err
	}
	var state serve.State
	r.do(layerServe, "GET events (SSE)", func() { state, err = e.follow(view.ID) })
	if err != nil {
		return job, err
	}
	if state != serve.StateDone {
		return job, fmt.Errorf("job %s ended %s", view.ID, state)
	}
	r.do(layerServe, "GET artifact", func() { job.artifact, err = e.get("/api/jobs/" + view.ID + "/artifact") })
	job.wall = time.Since(start)
	if err != nil {
		return job, err
	}
	var art serve.Artifact
	if err := json.Unmarshal(job.artifact, &art); err != nil {
		return job, fmt.Errorf("artifact: %w", err)
	}
	if len(art.Shards) != spec.Shards {
		return job, fmt.Errorf("artifact holds %d shards, want %d", len(art.Shards), spec.Shards)
	}
	return job, nil
}

// resubmitCheck posts the same spec again: admission must land on the same
// job and the artifact must come back byte-equal.
func (e *serveEnv) resubmitCheck(spec serve.JobSpec, first []byte) error {
	view, err := e.post(spec)
	if err != nil {
		return err
	}
	again, err := e.get("/api/jobs/" + view.ID + "/artifact")
	if err != nil {
		return err
	}
	if !bytes.Equal(first, again) {
		return fmt.Errorf("job %s: resubmit returned different artifact bytes", view.ID)
	}
	return nil
}

// serveCanarySeeds are the fixed jobs whose artifacts carry golden digests:
// the closed loop's own jobs take their seeds from -seed and can only be
// checked for invariants.
var serveCanarySeeds = []int64{2009, 2010, 2011}

// serveCanary runs one fixed job and returns its artifact digest.
func (e *serveEnv) serveCanary(seed int64) (string, error) {
	job, err := e.roundTrip(serveSpec(seed), nil)
	if err != nil {
		return "", err
	}
	d := sha256.Sum256(job.artifact)
	return hex.EncodeToString(d[:]), nil
}

// A serveLoop is the outcome of one closed loop.
type serveLoop struct {
	jobs     []serveJob
	failures []string
	elapsed  time.Duration
}

// closedLoop runs serveClients clients for the given time (or, with
// maxJobs > 0, until that many jobs are done). Job k uses seed base + 16k:
// shard i runs at seed+i, so a stride of 16 keeps 8-shard jobs disjoint.
func (e *serveEnv) closedLoop(base int64, d time.Duration, maxJobs int, recs []*recorder) serveLoop {
	var mu sync.Mutex
	var loop serveLoop
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var r *recorder
			if recs != nil {
				r = recs[c]
			}
			for k := c; ; k += serveClients {
				if maxJobs > 0 && k >= maxJobs || maxJobs == 0 && time.Since(start) >= d {
					return
				}
				spec := serveSpec(base + 16*int64(k))
				var job serveJob
				var err error
				if r != nil {
					r.job = k
				}
				r.do(layerHarness, "job", func() { job, err = e.roundTrip(spec, r) })
				if err == nil && k%serveResubmitEvery == 0 {
					err = e.resubmitCheck(spec, job.artifact)
				}
				mu.Lock()
				loop.jobs = append(loop.jobs, job)
				if err != nil {
					loop.failures = append(loop.failures, fmt.Sprintf("job %d: %v", k, err))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	loop.elapsed = time.Since(start)
	return loop
}
