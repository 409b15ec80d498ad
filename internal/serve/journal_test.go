package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSpec(shards int) JobSpec {
	s := JobSpec{Shards: shards}
	s.Normalize()
	return s
}

// writeJournal builds a journal file from pre-rendered lines.
func writeJournal(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serve.journal")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// journalLines appends records through the real Journal and returns the
// file's lines.
func journalLines(t testing.TB, recs ...Record) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "build.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(b), "\n"), "\n")
}

func kinds(err error) []CorruptionKind {
	var corr *Corruption
	if !errors.As(err, &corr) {
		return nil
	}
	out := make([]CorruptionKind, len(corr.Issues))
	for i, e := range corr.Issues {
		out[i] = e.Kind
	}
	return out
}

func TestReplayMissingJournalIsEmptyState(t *testing.T) {
	st, err := ReplayJournal(filepath.Join(t.TempDir(), "nope.journal"))
	if err != nil {
		t.Fatalf("missing journal: %v", err)
	}
	if len(st.Jobs) != 0 {
		t.Fatalf("jobs = %d, want 0", len(st.Jobs))
	}
}

func TestReplayRoundTrip(t *testing.T) {
	spec := testSpec(3)
	fp := spec.Fingerprint()
	id := JobID(fp)
	lines := journalLines(t,
		Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 0, Name: "s0"}},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 2, Name: "s2"}},
	)
	st, err := ReplayJournal(writeJournal(t, lines...))
	if err != nil {
		t.Fatalf("clean journal: %v", err)
	}
	jj, ok := st.Job(id)
	if !ok {
		t.Fatalf("job %s not salvaged", id)
	}
	if len(jj.Shards) != 2 || jj.Shards[0].Name != "s0" || jj.Shards[2].Name != "s2" {
		t.Fatalf("shards = %+v", jj.Shards)
	}
	if jj.Done {
		t.Fatal("job marked done without a done record")
	}
}

func TestReplayTruncatedTail(t *testing.T) {
	// kill -9 mid-append: the final line is a torn JSON prefix. Replay
	// must keep every whole record, drop the tail, and say so with a
	// typed error.
	spec := testSpec(2)
	fp := spec.Fingerprint()
	id := JobID(fp)
	lines := journalLines(t,
		Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 0, Name: "s0"}},
	)
	torn := lines[1][:len(lines[1])/2]
	st, err := ReplayJournal(writeJournal(t, lines[0], torn))
	ks := kinds(err)
	if len(ks) != 1 || ks[0] != KindTruncatedTail {
		t.Fatalf("kinds = %v, want [%s] (err %v)", ks, KindTruncatedTail, err)
	}
	jj, ok := st.Job(id)
	if !ok {
		t.Fatal("submit record lost along with the torn tail")
	}
	if len(jj.Shards) != 0 {
		t.Fatalf("salvaged %d shards from a torn record, want 0 (never fabricate results)", len(jj.Shards))
	}
}

func TestReplayTornMiddleIsBadRecordNotTail(t *testing.T) {
	spec := testSpec(2)
	fp := spec.Fingerprint()
	id := JobID(fp)
	lines := journalLines(t,
		Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 0, Name: "s0"}},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 1, Name: "s1"}},
	)
	st, err := ReplayJournal(writeJournal(t, lines[0], lines[1][:20], lines[2]))
	ks := kinds(err)
	if len(ks) != 1 || ks[0] != KindBadRecord {
		t.Fatalf("kinds = %v, want [%s]", ks, KindBadRecord)
	}
	jj, _ := st.Job(id)
	if len(jj.Shards) != 1 || jj.Shards[1] == nil {
		t.Fatalf("shards = %+v, want shard 1 salvaged past the torn line", jj.Shards)
	}
}

func TestReplayDuplicateShardFirstWriteWins(t *testing.T) {
	spec := testSpec(2)
	fp := spec.Fingerprint()
	id := JobID(fp)
	lines := journalLines(t,
		Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 1, Name: "first"}},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 1, Name: "second"}},
	)
	st, err := ReplayJournal(writeJournal(t, lines...))
	ks := kinds(err)
	if len(ks) != 1 || ks[0] != KindDuplicateShard {
		t.Fatalf("kinds = %v, want [%s]", ks, KindDuplicateShard)
	}
	jj, _ := st.Job(id)
	if got := jj.Shards[1].Name; got != "first" {
		t.Fatalf("shard 1 = %q, want the first durable write to win", got)
	}
}

func TestReplayFingerprintMismatch(t *testing.T) {
	spec := testSpec(2)
	fp := spec.Fingerprint()
	id := JobID(fp)
	other := testSpec(3) // different spec → different fingerprint
	lines := journalLines(t,
		Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
		Record{T: RecShard, Job: id, FP: other.Fingerprint(), Result: &ShardResult{Shard: 0, Name: "alien"}},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 1, Name: "ours"}},
	)
	st, err := ReplayJournal(writeJournal(t, lines...))
	ks := kinds(err)
	if len(ks) != 1 || ks[0] != KindFingerprintMismatch {
		t.Fatalf("kinds = %v, want [%s]", ks, KindFingerprintMismatch)
	}
	jj, _ := st.Job(id)
	if len(jj.Shards) != 1 || jj.Shards[1] == nil {
		t.Fatalf("shards = %+v: a result under the wrong fingerprint must not be trusted", jj.Shards)
	}
}

func TestReplaySubmitFingerprintMismatchDropsJob(t *testing.T) {
	spec := testSpec(2)
	id := JobID(spec.Fingerprint())
	tampered := fmt.Sprintf(`{"t":"submit","job":%q,"fp":%q,"spec":{"kind":"scenario","family":"uniform","cols":4,"rows":4,"conns":16,"seed":1,"shards":2,"mode":"synchronous","allocator":"greedy","freq_mhz":500,"warmup_ns":2000,"measure_ns":99999}}`,
		id, spec.Fingerprint())
	st, err := ReplayJournal(writeJournal(t, tampered))
	ks := kinds(err)
	if len(ks) != 1 || ks[0] != KindFingerprintMismatch {
		t.Fatalf("kinds = %v, want [%s]", ks, KindFingerprintMismatch)
	}
	if len(st.Jobs) != 0 {
		t.Fatalf("salvaged %d jobs from a tampered submit, want 0", len(st.Jobs))
	}
}

// TestReplayDropsSpecSubmitRejects: a submit record whose spec hashes to
// its own fingerprint but which Submit would reject — a mesh past
// backend.CheckSize, more shards than MaxShards — is dropped with
// Submit's reason, never resumed.
func TestReplayDropsSpecSubmitRejects(t *testing.T) {
	huge := testSpec(1)
	huge.Cols, huge.Rows = 1000, 1000
	wide := testSpec(MaxShards + 1)
	specs := []JobSpec{huge, wide}
	var recs []Record
	for i := range specs {
		fp := specs[i].Fingerprint()
		recs = append(recs, Record{T: RecSubmit, Job: JobID(fp), FP: fp, Spec: &specs[i]})
	}
	st, err := ReplayJournal(writeJournal(t, journalLines(t, recs...)...))
	var corr *Corruption
	if !errors.As(err, &corr) || len(corr.Issues) != len(specs) {
		t.Fatalf("err = %v, want one issue per submit record", err)
	}
	for i, e := range corr.Issues {
		reason := specs[i].Validate()
		if e.Kind != KindInvalidSpec || e.Line != i+1 || reason == nil || !strings.Contains(e.Detail, reason.Error()) {
			t.Errorf("issue %d = %v, want %s on line %d carrying Validate's reason %v", i, e, KindInvalidSpec, i+1, reason)
		}
	}
	if len(st.Jobs) != 0 {
		t.Fatalf("salvaged %d jobs Submit rejects, want 0", len(st.Jobs))
	}
}

// TestReplayDropsSubmitUnderAnotherJobID: a submit whose job id is not the
// one its fingerprint names (a torn id) would resume under the wrong id,
// where a resubmit of the same spec cannot find it; replay drops it.
func TestReplayDropsSubmitUnderAnotherJobID(t *testing.T) {
	spec := testSpec(2)
	fp := spec.Fingerprint()
	lines := journalLines(t, Record{T: RecSubmit, Job: "feedfeedfeedfeed", FP: fp, Spec: &spec})
	st, err := ReplayJournal(writeJournal(t, lines...))
	ks := kinds(err)
	if len(ks) != 1 || ks[0] != KindFingerprintMismatch {
		t.Fatalf("kinds = %v, want [%s]", ks, KindFingerprintMismatch)
	}
	if len(st.Jobs) != 0 {
		t.Fatalf("salvaged %d jobs under an id their fingerprint does not name, want 0", len(st.Jobs))
	}
}

// FuzzReplayJournal: replaying any bytes (ReplayJournal past opening the
// file) never panics; an error is always
// a *Corruption whose issues each carry a known kind and a line number;
// and every salvaged job is one Submit accepts, under the id its
// fingerprint names, holding only shards inside its range, and every
// salvaged done job has a terminal status.
func FuzzReplayJournal(f *testing.F) {
	spec := testSpec(3)
	fp := spec.Fingerprint()
	id := JobID(fp)
	real := journalLines(f,
		Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 0, Name: "s0"}},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 2, Name: "s2"}},
		Record{T: RecDone, Job: id, Status: "done"},
	)
	huge := testSpec(1)
	huge.Cols, huge.Rows = 1000, 1000
	hugeFP := huge.Fingerprint()
	regressions := journalLines(f,
		Record{T: RecSubmit, Job: JobID(hugeFP), FP: hugeFP, Spec: &huge},
		Record{T: RecSubmit, Job: "feedfeedfeedfeed", FP: fp, Spec: &spec},
		Record{T: RecDone, Job: id, Status: "running"},
	)
	join := func(lines ...string) []byte { return []byte(strings.Join(lines, "\n") + "\n") }
	f.Add(join(real...))
	f.Add([]byte(strings.Join(real[:3], "\n") + "\n" + real[3][:len(real[3])/2])) // truncated tail
	f.Add(join(real[0], real[1][:20], real[2], real[3]))                          // torn middle line
	f.Add(join(regressions[0]))
	f.Add(join(regressions[1]))
	f.Add(join(real[0], regressions[2]))
	known := map[CorruptionKind]bool{
		KindTruncatedTail: true, KindBadRecord: true, KindDuplicateShard: true,
		KindFingerprintMismatch: true, KindInvalidSpec: true, KindOrphanRecord: true,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := replay(bytes.NewReader(data))
		if err != nil {
			corr, ok := err.(*Corruption)
			if !ok || len(corr.Issues) == 0 {
				t.Fatalf("replay error %v (%T) is not a *Corruption with issues", err, err)
			}
			for _, e := range corr.Issues {
				if !known[e.Kind] || e.Line < 1 {
					t.Fatalf("issue %+v: unknown kind or line below 1", e)
				}
			}
		}
		for _, jj := range st.Jobs {
			if jj.ID != JobID(jj.FP) {
				t.Fatalf("job %s salvaged under fingerprint %s", jj.ID, jj.FP)
			}
			if got := jj.Spec.Fingerprint(); got != jj.FP {
				t.Fatalf("job %s: spec hashes to %s, salvaged under %s", jj.ID, got, jj.FP)
			}
			if err := jj.Spec.Validate(); err != nil {
				t.Fatalf("job %s salvaged with a spec Submit rejects: %v", jj.ID, err)
			}
			for i, r := range jj.Shards {
				if i < 0 || i >= jj.Spec.shardCount() || r.Shard != i {
					t.Fatalf("job %s holds shard %d (result for %d) of %d", jj.ID, i, r.Shard, jj.Spec.shardCount())
				}
			}
			if jj.Done && !State(jj.Status).Terminal() {
				t.Fatalf("job %s salvaged as done with non-terminal status %q", jj.ID, jj.Status)
			}
		}
	})
}

// TestReplayDoneRecordNeedsTerminalStatus: a done record whose status is
// not terminal is dropped as a bad record, so Resume re-queues the job
// instead of registering it as "running" or "" where it never runs.
func TestReplayDoneRecordNeedsTerminalStatus(t *testing.T) {
	spec := testSpec(2)
	fp := spec.Fingerprint()
	id := JobID(fp)
	for _, status := range []string{"running", "", "queued", "retrying", "bogus"} {
		lines := journalLines(t,
			Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
			Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 0, Name: "s0"}},
			Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 1, Name: "s1"}},
			Record{T: RecDone, Job: id, Status: status},
		)
		st, err := ReplayJournal(writeJournal(t, lines...))
		if ks := kinds(err); len(ks) != 1 || ks[0] != KindBadRecord {
			t.Fatalf("status %q: kinds = %v, want [%s]", status, ks, KindBadRecord)
		}
		if jj, _ := st.Job(id); jj == nil || jj.Done {
			t.Fatalf("status %q: job %+v, want it salvaged and not done", status, jj)
		}
	}
}

func TestReplayOrphanShardRecord(t *testing.T) {
	spec := testSpec(2)
	fp := spec.Fingerprint()
	lines := journalLines(t,
		Record{T: RecShard, Job: "feedfeedfeedfeed", FP: fp, Result: &ShardResult{Shard: 0}},
	)
	st, err := ReplayJournal(writeJournal(t, lines...))
	ks := kinds(err)
	if len(ks) != 1 || ks[0] != KindOrphanRecord {
		t.Fatalf("kinds = %v, want [%s]", ks, KindOrphanRecord)
	}
	if len(st.Jobs) != 0 {
		t.Fatalf("jobs = %d, want 0", len(st.Jobs))
	}
}

func TestReplayShardIndexOutOfRange(t *testing.T) {
	spec := testSpec(2)
	fp := spec.Fingerprint()
	id := JobID(fp)
	lines := journalLines(t,
		Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 7, Name: "ghost"}},
	)
	st, err := ReplayJournal(writeJournal(t, lines...))
	ks := kinds(err)
	if len(ks) != 1 || ks[0] != KindBadRecord {
		t.Fatalf("kinds = %v, want [%s]", ks, KindBadRecord)
	}
	jj, _ := st.Job(id)
	if len(jj.Shards) != 0 {
		t.Fatalf("shards = %+v, want the out-of-range result dropped", jj.Shards)
	}
}

func TestReplayIdempotentResubmitIsNotCorruption(t *testing.T) {
	spec := testSpec(2)
	fp := spec.Fingerprint()
	id := JobID(fp)
	lines := journalLines(t,
		Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
		Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
		Record{T: RecDone, Job: id, Status: "done"},
	)
	st, err := ReplayJournal(writeJournal(t, lines...))
	if err != nil {
		t.Fatalf("idempotent resubmit flagged as corruption: %v", err)
	}
	jj, _ := st.Job(id)
	if !jj.Done || jj.Status != "done" {
		t.Fatalf("done = %v status = %q", jj.Done, jj.Status)
	}
}

func TestOpenJournalSealsTruncatedTailBeforeAppend(t *testing.T) {
	// kill -9 left a partial final line with no newline. Reopening for
	// append must seal it with a separating newline: otherwise the first
	// record appended after -resume is glued onto the partial line and a
	// later replay silently drops a record whose Append reported success.
	spec := testSpec(2)
	fp := spec.Fingerprint()
	id := JobID(fp)
	lines := journalLines(t,
		Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
		Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 0, Name: "s0"}},
	)
	path := filepath.Join(t.TempDir(), "torn.journal")
	torn := lines[0] + "\n" + lines[1][:len(lines[1])/2] // no trailing newline
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: 1, Name: "s1"}}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	st, err := ReplayJournal(path)
	ks := kinds(err)
	if len(ks) != 1 || ks[0] != KindBadRecord {
		t.Fatalf("kinds = %v, want [%s] (the sealed tail is no longer the final line)", ks, KindBadRecord)
	}
	jj, ok := st.Job(id)
	if !ok {
		t.Fatal("submit record lost")
	}
	if len(jj.Shards) != 1 || jj.Shards[1] == nil || jj.Shards[1].Name != "s1" {
		t.Fatalf("shards = %+v: the record appended after reopen was glued onto the torn tail", jj.Shards)
	}
}

// bigShardResult builds a shard result whose journal record is well past
// bufio.Scanner's 64 KiB default token limit: a compare report with a
// long synthetic family list. Records carry no size contract, so replay
// must not impose one.
func bigShardResult() *ShardResult {
	return &ShardResult{Shard: 0, Name: "compare-" + strings.Repeat("x", 96*1024)}
}

func TestReplayLargeRecordNoSizeLimit(t *testing.T) {
	// A single shard record past 64 KiB used to fail the whole replay
	// with bufio.ErrTooLong — indistinguishable from corruption. Replay
	// must read it whole and salvage it like any other record.
	spec := testSpec(1)
	fp := spec.Fingerprint()
	id := JobID(fp)
	big := bigShardResult()
	lines := journalLines(t,
		Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec},
		Record{T: RecShard, Job: id, FP: fp, Result: big},
	)
	if len(lines[1]) <= 64*1024 {
		t.Fatalf("shard record is %d bytes; the regression needs one past the 64 KiB scanner limit", len(lines[1]))
	}
	st, err := ReplayJournal(writeJournal(t, lines...))
	if err != nil {
		t.Fatalf("large record misdiagnosed as corruption: %v", err)
	}
	jj, ok := st.Job(id)
	if !ok || len(jj.Shards) != 1 || jj.Shards[0] == nil {
		t.Fatalf("job %s not salvaged whole: %+v", id, jj)
	}
	if jj.Shards[0].Name != big.Name {
		t.Fatal("large shard record came back altered")
	}
}

func TestReplayLargeRecordKillResumeArtifactByteIdentical(t *testing.T) {
	// kill -9 right after the >64 KiB shard record is durable: the next
	// append is torn mid-line. Resuming through OpenJournal (which seals
	// the tail) and finishing the job must render the artifact
	// byte-for-byte equal to an uninterrupted run's.
	spec := testSpec(1)
	fp := spec.Fingerprint()
	id := JobID(fp)
	big := bigShardResult()

	path := filepath.Join(t.TempDir(), "large.journal")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(Record{T: RecShard, Job: id, FP: fp, Result: big}); err != nil {
		t.Fatal(err)
	}
	j1.Close()
	// The kill: a torn done record with no trailing newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"done","job":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Second life: reopen (seals the tail), journal the terminal record.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{T: RecDone, Job: id, Status: "done"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	st, err := ReplayJournal(path)
	ks := kinds(err)
	if len(ks) != 1 || ks[0] != KindBadRecord {
		t.Fatalf("kinds = %v, want [%s] for the sealed torn line (err %v)", ks, KindBadRecord, err)
	}
	jj, ok := st.Job(id)
	if !ok || !jj.Done || jj.Status != "done" {
		t.Fatalf("salvaged job = %+v, want done", jj)
	}
	got, err := NewArtifact(jj.Spec, jj.FP, jj.Shards).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewArtifact(spec, fp, map[int]*ShardResult{0: big}).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed artifact differs from the uninterrupted one")
	}
}

func TestJournalAppendSurvivesReplay(t *testing.T) {
	// The writer and the replayer agree: what Append persists, Replay
	// reads back without complaint.
	path := filepath.Join(t.TempDir(), "rt.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(4)
	fp := spec.Fingerprint()
	id := JobID(fp)
	if err := j.Append(Record{T: RecSubmit, Job: id, FP: fp, Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(Record{T: RecShard, Job: id, FP: fp, Result: &ShardResult{Shard: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(Record{T: RecDone, Job: id, Status: "done"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	st, err := ReplayJournal(path)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	jj, ok := st.Job(id)
	if !ok || len(jj.Shards) != 4 || !jj.Done {
		t.Fatalf("salvaged %+v", jj)
	}
}
