package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// A Record is one journal line. The journal is append-only JSONL, one
// record per line, fsync'd per append: the strongest statement a line's
// presence makes — "this shard's result is durable" — must survive
// kill -9 at any instant.
//
//	{"t":"submit","job":...,"fp":...,"spec":{...}}   work accepted
//	{"t":"shard","job":...,"fp":...,"result":{...}}  one shard done
//	{"t":"done","job":...,"status":"done"|"failed"|"cancelled"}
type Record struct {
	T      string       `json:"t"`
	Job    string       `json:"job"`
	FP     string       `json:"fp,omitempty"`
	Spec   *JobSpec     `json:"spec,omitempty"`
	Result *ShardResult `json:"result,omitempty"`
	Status string       `json:"status,omitempty"`
}

// Record types.
const (
	RecSubmit = "submit"
	RecShard  = "shard"
	RecDone   = "done"
)

// A Journal is the crash-safe append-only job log. Appends are
// serialised and fsync'd; a record either made it to stable storage
// whole or resumes as a detectable truncated tail.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenJournal opens (creating if needed) the journal for appending.
//
// An existing file that does not end in a newline carries a truncated
// tail — the signature of kill -9 mid-append. Appending straight after
// it would glue the next record onto the partial line, turning a
// successfully-Append'ed record into unparseable bytes on the next
// replay. OpenJournal therefore seals the tail with a separating
// newline (fsync'd) before any append: the partial line stays in place
// for Replay to report as corruption, and every new record starts on
// its own line.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if n := st.Size(); n > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, n-1); err != nil {
			f.Close()
			return nil, err
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	// The journal's own directory entry must be durable too: record
	// fsyncs are worthless if a power loss forgets the file ever existed.
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, path: path}, nil
}

// syncDir fsyncs a directory so entries created or renamed into it
// survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append marshals rec, writes it as one line and fsyncs. The record is
// durable when Append returns.
func (j *Journal) Append(rec Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// CorruptionKind classifies one salvageable journal defect.
type CorruptionKind string

// The corruption kinds Replay detects. Each is recovered by dropping the
// offending record (never a valid earlier one), so a resume is always
// safe: at worst, dropped work re-runs; completed work is never invented.
const (
	// KindTruncatedTail is a final line that is not valid JSON — the
	// signature of kill -9 mid-append. The partial record is dropped.
	KindTruncatedTail CorruptionKind = "truncated-tail"
	// KindBadRecord is a non-final line that does not parse — torn bytes
	// inside the file — or one that parses but cannot be what it claims
	// (a shard index out of range, a done record whose status is not
	// terminal). The line is dropped.
	KindBadRecord CorruptionKind = "bad-record"
	// KindDuplicateShard is a second result for a (job, shard) pair. The
	// first (earliest durable) result wins; the duplicate is dropped.
	KindDuplicateShard CorruptionKind = "duplicate-shard"
	// KindFingerprintMismatch is a record whose fp disagrees with its
	// job's recorded spec (or a submit whose spec does not hash to its
	// own fp field, or whose job id is not the one its fp names): the
	// result cannot be trusted to describe this work and is dropped,
	// forcing an honest re-run.
	KindFingerprintMismatch CorruptionKind = "fingerprint-mismatch"
	// KindInvalidSpec is a submit whose spec Submit would reject, with the
	// same reason. The job is dropped rather than resumed.
	KindInvalidSpec CorruptionKind = "invalid-spec"
	// KindOrphanRecord references a job the journal never saw submitted.
	KindOrphanRecord CorruptionKind = "orphan-record"
)

// A CorruptionError is one detected journal defect.
type CorruptionError struct {
	Kind   CorruptionKind
	Line   int // 1-based journal line
	Detail string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("journal line %d: %s: %s", e.Line, e.Kind, e.Detail)
}

// A Corruption aggregates every defect one Replay found. It is returned
// alongside the salvaged state: the caller decides whether to resume
// (logging the issues) or abort. errors.As recovers the individual
// *CorruptionError values via Issues.
type Corruption struct {
	Issues []*CorruptionError
}

func (c *Corruption) Error() string {
	parts := make([]string, len(c.Issues))
	for i, e := range c.Issues {
		parts[i] = e.Error()
	}
	return fmt.Sprintf("journal: %d defect(s): %s", len(c.Issues), strings.Join(parts, "; "))
}

// JournalJob is one job's salvaged journal state.
type JournalJob struct {
	ID     string
	FP     string
	Spec   JobSpec
	Shards map[int]*ShardResult // completed shards, by index
	Done   bool                 // a done record was journaled
	Status string               // terminal status when Done
}

// ResumeState is everything Replay salvaged, in submission order.
type ResumeState struct {
	Jobs  []*JournalJob
	byJob map[string]*JournalJob
}

// Job looks up a salvaged job by id.
func (s *ResumeState) Job(id string) (*JournalJob, bool) {
	j, ok := s.byJob[id]
	return j, ok
}

// ReplayJournal reads the journal and rebuilds the durable state. It
// never loses data silently: every defect is returned as a typed
// *CorruptionError inside a *Corruption error, and the returned state is
// always safe to resume from — defective records are dropped, valid ones
// kept, and nothing is ever fabricated. A missing journal file is an
// empty state, not an error.
func ReplayJournal(path string) (*ResumeState, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return &ResumeState{byJob: make(map[string]*JournalJob)}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return replay(f)
}

// replay is ReplayJournal on the journal's bytes.
func replay(r io.Reader) (*ResumeState, error) {
	st := &ResumeState{byJob: make(map[string]*JournalJob)}
	var corr Corruption
	flaw := func(kind CorruptionKind, line int, format string, args ...any) {
		corr.Issues = append(corr.Issues, &CorruptionError{
			Kind: kind, Line: line, Detail: fmt.Sprintf(format, args...),
		})
	}

	// A bufio.Reader line loop instead of a Scanner: a Scanner enforces a
	// maximum token size, and one shard record past that limit (a large
	// study table, say) would fail the whole replay with ErrTooLong —
	// indistinguishable from real corruption. Records have no size
	// contract, so replay must not impose one.
	rd := bufio.NewReader(r)
	line := 0
	type parsed struct {
		rec  Record
		line int
	}
	var recs []parsed
	var pending string // last raw line, to classify tail truncation
	pendingLine := 0
	for {
		raw, rerr := rd.ReadString('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, rerr
		}
		if raw != "" && raw != "\n" {
			line++
			raw = strings.TrimSuffix(raw, "\n")
			if strings.TrimSpace(raw) == "" {
				raw = ""
			}
			if raw != "" {
				var rec Record
				if err := json.Unmarshal([]byte(raw), &rec); err != nil {
					// Defer the verdict: a garbled final line is a truncated
					// tail (expected under kill -9), anywhere else it is a
					// torn record.
					if pending != "" {
						flaw(KindBadRecord, pendingLine, "unparseable record dropped: %.60q", pending)
					}
					pending, pendingLine = raw, line
				} else {
					if pending != "" {
						flaw(KindBadRecord, pendingLine, "unparseable record dropped: %.60q", pending)
						pending = ""
					}
					recs = append(recs, parsed{rec, line})
				}
			}
		} else if raw == "\n" {
			line++
		}
		if rerr == io.EOF {
			break
		}
	}
	if pending != "" {
		flaw(KindTruncatedTail, pendingLine, "truncated tail dropped: %.60q", pending)
	}

	for _, p := range recs {
		rec := p.rec
		switch rec.T {
		case RecSubmit:
			if rec.Spec == nil {
				flaw(KindBadRecord, p.line, "submit record for job %s has no spec", rec.Job)
				continue
			}
			spec := *rec.Spec
			spec.Normalize()
			if fp := spec.Fingerprint(); fp != rec.FP {
				flaw(KindFingerprintMismatch, p.line,
					"submit record for job %s: spec hashes to %s, record claims %s", rec.Job, JobID(fp), JobID(rec.FP))
				continue
			}
			if id := JobID(rec.FP); rec.Job != id {
				flaw(KindFingerprintMismatch, p.line, "submit record names job %q, its fingerprint names job %s", rec.Job, id)
				continue
			}
			if err := spec.Validate(); err != nil {
				flaw(KindInvalidSpec, p.line, "submit record for job %s: %v", rec.Job, err)
				continue
			}
			if _, ok := st.byJob[rec.Job]; ok {
				// Idempotent resubmits are normal (same fp → same job);
				// the first submit already carries everything.
				continue
			}
			jj := &JournalJob{ID: rec.Job, FP: rec.FP, Spec: spec, Shards: make(map[int]*ShardResult)}
			st.byJob[rec.Job] = jj
			st.Jobs = append(st.Jobs, jj)
		case RecShard:
			jj, ok := st.byJob[rec.Job]
			if !ok {
				flaw(KindOrphanRecord, p.line, "shard record for unsubmitted job %s dropped", rec.Job)
				continue
			}
			if rec.Result == nil {
				flaw(KindBadRecord, p.line, "shard record for job %s has no result", rec.Job)
				continue
			}
			if rec.FP != jj.FP {
				flaw(KindFingerprintMismatch, p.line,
					"shard %d of job %s carries fingerprint %s, submit recorded %s",
					rec.Result.Shard, rec.Job, JobID(rec.FP), JobID(jj.FP))
				continue
			}
			if rec.Result.Shard < 0 || rec.Result.Shard >= jj.Spec.shardCount() {
				flaw(KindBadRecord, p.line, "shard index %d outside job %s's %d shards",
					rec.Result.Shard, rec.Job, jj.Spec.shardCount())
				continue
			}
			if _, dup := jj.Shards[rec.Result.Shard]; dup {
				flaw(KindDuplicateShard, p.line,
					"second result for shard %d of job %s dropped (first write wins)", rec.Result.Shard, rec.Job)
				continue
			}
			jj.Shards[rec.Result.Shard] = rec.Result
		case RecDone:
			jj, ok := st.byJob[rec.Job]
			if !ok {
				flaw(KindOrphanRecord, p.line, "done record for unsubmitted job %s dropped", rec.Job)
				continue
			}
			if !State(rec.Status).Terminal() {
				// Resume would register the job in this state, where it
				// neither runs nor finishes; dropped, the job re-queues.
				flaw(KindBadRecord, p.line, "done record for job %s has non-terminal status %q dropped", rec.Job, rec.Status)
				continue
			}
			jj.Done = true
			jj.Status = rec.Status
		default:
			flaw(KindBadRecord, p.line, "unknown record type %q dropped", rec.T)
		}
	}
	if len(corr.Issues) > 0 {
		return st, &corr
	}
	return st, nil
}
