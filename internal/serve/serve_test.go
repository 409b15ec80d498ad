package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// quickSpec is a small, fast campaign used throughout the tests.
func quickSpec(shards int) JobSpec {
	return JobSpec{Family: "uniform", Conns: 4, Shards: shards, WarmupNs: 500, MeasureNs: 1500}
}

// waitTerminal polls a job to its terminal state.
func waitTerminal(t *testing.T, j *Job) State {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s := j.State(); s.Terminal() {
			return s
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s", j.ID, j.State())
	return ""
}

func TestSchedulerRunsCampaignToDone(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2})
	s.Start()
	defer s.Stop()
	j, err := s.Submit(quickSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j); got != StateDone {
		t.Fatalf("state = %s (%s)", got, j.View().Detail)
	}
	var art Artifact
	if err := json.Unmarshal(j.Artifact(), &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Shards) != 3 {
		t.Fatalf("artifact shards = %d, want 3", len(art.Shards))
	}
	for i, sh := range art.Shards {
		if sh.Shard != i || sh.Delivered == 0 {
			t.Fatalf("shard %d: %+v", i, sh)
		}
	}
}

func TestSubmitIsIdempotentByFingerprint(t *testing.T) {
	s := NewScheduler(SchedulerConfig{})
	defer s.Stop()
	a, err := s.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	// The explicit-defaults twin of the same spec is the same job.
	twin := quickSpec(2)
	twin.Kind = "scenario"
	twin.Cols, twin.Rows = 4, 4
	b, err := s.Submit(twin)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("idempotent resubmit made a second job: %s vs %s", a.ID, b.ID)
	}
	if len(s.Jobs()) != 1 {
		t.Fatalf("jobs = %d, want 1", len(s.Jobs()))
	}
}

func TestAdmissionRejectsTyped(t *testing.T) {
	// Not started: jobs stay queued, so the bounded queue fills.
	s := NewScheduler(SchedulerConfig{QueueLimit: 2})
	if _, err := s.Submit(JobSpec{Family: "no-such-family"}); err == nil {
		t.Fatal("invalid spec admitted")
	} else {
		var rej *RejectionError
		if !errors.As(err, &rej) || rej.Reason != "invalid-spec" {
			t.Fatalf("err = %v, want invalid-spec rejection", err)
		}
	}
	for i := 0; i < 2; i++ {
		spec := quickSpec(1)
		spec.Seed = int64(100 + i) // distinct fingerprints
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	full := quickSpec(1)
	full.Seed = 999
	_, err := s.Submit(full)
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Reason != "queue-full" {
		t.Fatalf("err = %v, want queue-full rejection", err)
	}

	go s.Drain(time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = s.Submit(full)
		if errors.As(err, &rej) && rej.Reason == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("err = %v, want draining rejection", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := NewScheduler(SchedulerConfig{}) // not started: job stays queued
	j, err := s.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if got := j.State(); got != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got)
	}
	if err := s.Cancel(j.ID); err == nil {
		t.Fatal("cancelling a terminal job must error")
	}
}

func TestCancelRacingDequeueDefersToWorker(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1}) // not started: we play the worker by hand
	j, err := s.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the race window: a worker has popped the job from the
	// queue but runJob has not yet marked it Running, so its state still
	// reads Queued while the queue no longer holds it.
	s.mu.Lock()
	s.queue = s.queue[1:]
	s.mu.Unlock()
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if got := j.State(); got != StateQueued {
		t.Fatalf("state = %s; Cancel must not declare a worker-owned job terminal", got)
	}
	// The worker proceeds: runJob must honour the pending cancel and land
	// the one terminal state without running any shard.
	s.runJob(j)
	if got := j.State(); got != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got)
	}
	if v := j.View(); v.ShardsDone != 0 {
		t.Fatalf("ran %d shards after cancel", v.ShardsDone)
	}
}

func TestChaosCampaignCompletesWithRetries(t *testing.T) {
	// Seeded fault injection at 50%: shards fail with transient errors
	// and genuine panics, the supervisor recovers, retries with backoff,
	// and the campaign still completes with an artifact identical to the
	// calm run's.
	calm := NewScheduler(SchedulerConfig{Workers: 2})
	calm.Start()
	jc, err := calm.Submit(quickSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, jc); got != StateDone {
		t.Fatalf("calm run: %s", got)
	}
	calm.Stop()

	stormy := NewScheduler(SchedulerConfig{
		Workers: 2,
		Retry:   RetryPolicy{MaxRetries: 12, Base: time.Millisecond, Max: 4 * time.Millisecond},
		Chaos:   ChaosConfig{Rate: 0.5, Seed: 11},
	})
	stormy.Start()
	js, err := stormy.Submit(quickSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, js); got != StateDone {
		t.Fatalf("stormy run: %s (%s)", got, js.View().Detail)
	}
	if !bytes.Equal(jc.Artifact(), js.Artifact()) {
		t.Fatal("chaos changed the artifact bytes; injection must be pre-execution only")
	}
	sum := stormy.Drain(time.Second)
	if sum.ChaosInjected == 0 || sum.Retries == 0 {
		t.Fatalf("drain summary %+v: want injected faults and retries counted", sum)
	}
	if js.View().Retries == 0 {
		t.Fatal("job retry counter is zero under 50% chaos")
	}
}

func TestChaosEveryAttemptExhaustsRetryBudget(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		Workers: 1,
		Retry:   RetryPolicy{MaxRetries: 2, Base: time.Millisecond, Max: time.Millisecond},
		Chaos:   ChaosConfig{Rate: 1.0, Seed: 3},
	})
	s.Start()
	defer s.Stop()
	j, err := s.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j); got != StateFailed {
		t.Fatalf("state = %s, want failed after the retry budget", got)
	}
	if v := j.View(); !strings.Contains(v.Detail, "retry budget exhausted") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestPermanentFailureFailsFast(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	s.Start()
	defer s.Stop()
	spec := quickSpec(1)
	spec.Conns = 2000 // infeasible: deterministic generation error
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j); got != StateFailed {
		t.Fatalf("state = %s, want failed", got)
	}
	if v := j.View(); v.Retries != 0 {
		t.Fatalf("retried a deterministic failure %d times; the classifier must fail fast", v.Retries)
	}
}

func TestCrashResumeArtifactByteIdentical(t *testing.T) {
	// The acceptance gate in miniature: an interrupted campaign, resumed
	// from the journal in a fresh scheduler, must render the artifact
	// byte-for-byte equal to an uninterrupted run's.
	dir := t.TempDir()
	spec := quickSpec(4)

	// Uninterrupted baseline (no journal needed).
	base := NewScheduler(SchedulerConfig{Workers: 1})
	base.Start()
	jb, err := base.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jb)
	base.Stop()

	// First life: journal everything, then "crash" by truncating the
	// journal to the submit + 2 shards, mid-way through the third line.
	crashPath := filepath.Join(dir, "crash.journal")
	j1, err := OpenJournal(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	first := NewScheduler(SchedulerConfig{Workers: 1, Journal: j1})
	first.Start()
	jf, err := first.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jf)
	first.Stop()
	j1.Close()
	full, err := os.ReadFile(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(full), "\n")
	if len(lines) < 5 {
		t.Fatalf("journal has %d lines, want submit + 4 shards + done", len(lines))
	}
	// submit + shards 0,1 + half of shard 2's record: kill -9 mid-append.
	torn := lines[0] + lines[1] + lines[2] + lines[3][:len(lines[3])/2]
	if err := os.WriteFile(crashPath, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second life: replay (expecting the truncated-tail diagnosis),
	// resume, and finish the missing shards.
	st, err := ReplayJournal(crashPath)
	var corr *Corruption
	if !errors.As(err, &corr) {
		t.Fatalf("replay of torn journal: err = %v, want *Corruption", err)
	}
	if len(corr.Issues) != 1 || corr.Issues[0].Kind != KindTruncatedTail {
		t.Fatalf("issues = %v", corr.Issues)
	}
	j2, err := OpenJournal(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	second := NewScheduler(SchedulerConfig{Workers: 1, Journal: j2})
	requeued, skipped, err := second.Resume(st)
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 1 || skipped != 2 {
		t.Fatalf("requeued %d skipped %d, want 1 and 2", requeued, skipped)
	}
	second.Start()
	defer second.Stop()
	jr, ok := second.Job(jf.ID)
	if !ok {
		t.Fatalf("resumed scheduler lost job %s", jf.ID)
	}
	if got := waitTerminal(t, jr); got != StateDone {
		t.Fatalf("resumed job: %s (%s)", got, jr.View().Detail)
	}
	if v := jr.View(); v.Resumed != 2 {
		t.Fatalf("resumed shards = %d, want 2", v.Resumed)
	}
	if !bytes.Equal(jb.Artifact(), jr.Artifact()) {
		t.Fatal("resumed artifact differs from the uninterrupted baseline")
	}
}

func TestResumeRegistersFinishedJobsWithArtifacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "done.journal")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewScheduler(SchedulerConfig{Workers: 1, Journal: j1})
	s1.Start()
	j, err := s1.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	s1.Stop()
	j1.Close()

	st, err := ReplayJournal(path)
	if err != nil {
		t.Fatalf("clean journal: %v", err)
	}
	s2 := NewScheduler(SchedulerConfig{Workers: 1})
	requeued, _, err := s2.Resume(st)
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 0 {
		t.Fatalf("requeued %d finished jobs, want 0", requeued)
	}
	r, ok := s2.Job(j.ID)
	if !ok || r.State() != StateDone {
		t.Fatalf("finished job not registered done")
	}
	if !bytes.Equal(r.Artifact(), j.Artifact()) {
		t.Fatal("rebuilt artifact differs from the original")
	}
}

func TestResumeDoneJobMissingShardsRequeues(t *testing.T) {
	// A done record whose shard records did not all survive replay (torn
	// line, fingerprint mismatch) must not certify a partial artifact:
	// the job re-queues and the missing shards re-run.
	base := NewScheduler(SchedulerConfig{Workers: 1})
	base.Start()
	jb, err := base.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jb)
	base.Stop()
	var art Artifact
	if err := json.Unmarshal(jb.Artifact(), &art); err != nil {
		t.Fatal(err)
	}

	// Journal with shard 1's record lost but the done record intact.
	lines := journalLines(t,
		Record{T: RecSubmit, Job: jb.ID, FP: jb.FP, Spec: &jb.Spec},
		Record{T: RecShard, Job: jb.ID, FP: jb.FP, Result: &art.Shards[0]},
		Record{T: RecDone, Job: jb.ID, Status: "done"},
	)
	st, err := ReplayJournal(writeJournal(t, lines...))
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewScheduler(SchedulerConfig{Workers: 1})
	requeued, skipped, err := s2.Resume(st)
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 1 || skipped != 1 {
		t.Fatalf("requeued %d skipped %d, want 1 and 1", requeued, skipped)
	}
	s2.Start()
	defer s2.Stop()
	jr, ok := s2.Job(jb.ID)
	if !ok {
		t.Fatalf("no job %s after resume", jb.ID)
	}
	if got := waitTerminal(t, jr); got != StateDone {
		t.Fatalf("state = %s (%s)", got, jr.View().Detail)
	}
	if !bytes.Equal(jr.Artifact(), jb.Artifact()) {
		t.Fatal("re-run artifact differs from the uninterrupted baseline")
	}
}

func TestDrainCheckpointsQueuedJobs(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1}) // never started
	for i := 0; i < 3; i++ {
		spec := quickSpec(1)
		spec.Seed = int64(50 + i)
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	sum := s.Drain(100 * time.Millisecond)
	if sum.Checkpointed != 3 {
		t.Fatalf("checkpointed = %d, want 3", sum.Checkpointed)
	}
	if sum.Done != 0 || sum.ForceCancelled != 0 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s := NewScheduler(SchedulerConfig{Workers: 2, ArtifactsDir: dir})
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()

	hrsp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hrsp.Body.Close()
	if hrsp.StatusCode != 200 {
		t.Fatalf("healthz: %s", hrsp.Status)
	}

	// Bad spec → 400 with the typed reason.
	rsp, err := ts.Client().Post(ts.URL+"/api/jobs", "application/json",
		strings.NewReader(`{"family":"fibonacci"}`)) //nolint:noctx // test client
	if err != nil {
		t.Fatal(err)
	}
	if rsp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %s", rsp.Status)
	}
	var apiErr struct{ Reason string }
	if err := json.NewDecoder(rsp.Body).Decode(&apiErr); err != nil || apiErr.Reason != "invalid-spec" {
		t.Fatalf("reason = %q err %v", apiErr.Reason, err)
	}
	rsp.Body.Close()

	// Submit, await, fetch the artifact.
	body, _ := json.Marshal(quickSpec(2))
	rsp, err = ts.Client().Post(ts.URL+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if rsp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", rsp.Status)
	}
	var view JobView
	if err := json.NewDecoder(rsp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	j, ok := s.Job(view.ID)
	if !ok {
		t.Fatalf("no job %s", view.ID)
	}
	waitTerminal(t, j)

	rsp, err = ts.Client().Get(ts.URL + "/api/jobs/" + view.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.NewDecoder(rsp.Body).Decode(&art); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if len(art.Shards) != 2 {
		t.Fatalf("artifact shards = %d", len(art.Shards))
	}
	// The persisted artifact matches the served one byte for byte.
	onDisk, err := os.ReadFile(filepath.Join(dir, view.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, j.Artifact()) {
		t.Fatal("artifact file differs from the in-memory artifact")
	}

	// The SSE stream replays the lifecycle through to the terminal event.
	rsp, err = ts.Client().Get(ts.URL + "/api/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	// The job is terminal, so the handler replays the full history and
	// closes the stream — ReadAll sees every event through "done".
	raw, err := io.ReadAll(rsp.Body)
	rsp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	stream := string(raw)
	for _, want := range []string{"event: state", `"state":"queued"`, `"state":"done"`} {
		if !strings.Contains(stream, want) {
			t.Fatalf("SSE stream missing %q:\n%s", want, stream)
		}
	}

	// Job list includes the job.
	rsp, err = ts.Client().Get(ts.URL + "/api/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Jobs []JobView }
	if err := json.NewDecoder(rsp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].State != StateDone {
		t.Fatalf("list = %+v", list.Jobs)
	}
}

// stalledSSEWriter plays a client that reads the first event and then
// stops reading: the first write succeeds, later writes block the way a
// full TCP send buffer would — until the deadline the handler set, then
// fail with os.ErrDeadlineExceeded. It implements SetWriteDeadline so
// http.NewResponseController reaches it.
type stalledSSEWriter struct {
	hdr         http.Header
	buf         bytes.Buffer
	writes      int
	deadline    time.Time
	deadlineSet bool
}

func (w *stalledSSEWriter) Header() http.Header { return w.hdr }
func (w *stalledSSEWriter) WriteHeader(int)     {}
func (w *stalledSSEWriter) Flush()              {}
func (w *stalledSSEWriter) SetWriteDeadline(t time.Time) error {
	w.deadline, w.deadlineSet = t, true
	return nil
}
func (w *stalledSSEWriter) Write(b []byte) (int, error) {
	w.writes++
	if w.writes == 1 {
		return w.buf.Write(b)
	}
	if w.deadline.IsZero() {
		return 0, errors.New("write would block forever: handler set no deadline")
	}
	time.Sleep(time.Until(w.deadline))
	return 0, os.ErrDeadlineExceeded
}

func TestSSEStalledClientResyncsToTerminal(t *testing.T) {
	// A stalled SSE reader used to pin the streaming goroutine on a
	// blocked write with no way to ever observe the job finish. The fix
	// is two-sided: the handler tears down a stream whose write misses
	// the deadline, and a reconnect with Last-Event-ID resumes the
	// replay just past what the client saw — through the terminal event.
	s := NewScheduler(SchedulerConfig{Workers: 1})
	s.Start()
	defer s.Stop()
	j, err := s.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	srv := NewServer(s)
	srv.StreamWriteTimeout = 50 * time.Millisecond

	// First life: one event delivered, then the client stalls.
	w1 := &stalledSSEWriter{hdr: make(http.Header)}
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(w1, httptest.NewRequest("GET", "/api/jobs/"+j.ID+"/events", nil))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled stream still pinned after 5s; the write deadline never fired")
	}
	if !w1.deadlineSet {
		t.Fatal("handler never set a write deadline")
	}
	first := w1.buf.String()
	if !strings.Contains(first, "id: 0\n") {
		t.Fatalf("first stream carries no SSE id for resync:\n%s", first)
	}
	if strings.Contains(first, `"state":"done"`) {
		t.Fatalf("test premise broken: the stalled stream already delivered the terminal event:\n%s", first)
	}

	// Second life: reconnect where the stream left off.
	req := httptest.NewRequest("GET", "/api/jobs/"+j.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "0")
	w2 := httptest.NewRecorder()
	srv.ServeHTTP(w2, req)
	stream := w2.Body.String()
	if strings.Contains(stream, "id: 0\n") {
		t.Fatalf("resync replayed the event the client already saw:\n%s", stream)
	}
	if !strings.Contains(stream, "id: 1\n") {
		t.Fatalf("resync does not resume just past Last-Event-ID:\n%s", stream)
	}
	if !strings.Contains(stream, `"state":"done"`) {
		t.Fatalf("resynced stream never reached the terminal event:\n%s", stream)
	}
}
