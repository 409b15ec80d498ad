package serve

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
)

// TestValidateRejects: each malformed spec is refused with a reason that
// names what is wrong. A window that is not finite or overflows simulated
// time used to be admitted and run empty; a compare job whose routes no
// header layout encodes used to be admitted and fail in every cell.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		edit func(*JobSpec)
		want string // substring of the error; "" means accepted
	}{
		{"defaults", func(*JobSpec) {}, ""},
		{"measure NaN", func(s *JobSpec) { s.MeasureNs = math.NaN() }, "measure_ns"},
		{"measure +Inf", func(s *JobSpec) { s.MeasureNs = math.Inf(1) }, "measure_ns"},
		{"measure 1e17 overflows", func(s *JobSpec) { s.MeasureNs = 1e17 }, "measure_ns"},
		{"warmup 1e17 overflows", func(s *JobSpec) { s.WarmupNs = 1e17 }, "warmup_ns"},
		{"warmup negative", func(s *JobSpec) { s.WarmupNs = -1 }, "warmup_ns"},
		{"warmup -Inf", func(s *JobSpec) { s.WarmupNs = math.Inf(-1) }, "warmup_ns"},
		{"scenario 9x9", func(s *JobSpec) { s.Cols, s.Rows = 9, 9 }, "17-hop headers"},
		{"compare 9x9", func(s *JobSpec) { s.Kind, s.Cols, s.Rows = "compare", 9, 9 }, "17-hop headers"},
		{"compare 8x8", func(s *JobSpec) { s.Kind, s.Cols, s.Rows = "compare", 8, 8 }, ""},
		{"scale 9x9 plans uncapped", func(s *JobSpec) { s.Kind, s.Cols, s.Rows = "scale", 9, 9 }, ""},
		{"scale 32x32 of 2400", func(s *JobSpec) { s.Kind, s.Cols, s.Rows, s.Conns = "scale", 32, 32, 2400 }, ""},
		{"scale 100000x100000", func(s *JobSpec) { s.Kind, s.Cols, s.Rows = "scale", 100000, 100000 }, "mesh 100000x100000"},
		{"scale 33x2", func(s *JobSpec) { s.Kind, s.Cols, s.Rows = "scale", 33, 2 }, "mesh 33x2"},
		{"conns 2^40", func(s *JobSpec) { s.Conns = 1 << 40 }, "1099511627776 connections"},
		{"conns 2401", func(s *JobSpec) { s.Conns = 2401 }, "2401 connections"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s JobSpec
			s.Normalize()
			tc.edit(&s)
			err := s.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want a rejection naming %q", err, tc.want)
			}
		})
	}
}

// TestCompareJobOnWideMesh: a 5x5 compare job, whose routes need the wide
// header, is admitted and finishes done with every bounds-carrying backend
// audited clean; a 9x9 one is refused at admission.
func TestCompareJobOnWideMesh(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	s.Start()
	defer s.Stop()
	_, err := s.Submit(JobSpec{Kind: "compare", Cols: 9, Rows: 9, Conns: 8})
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Reason != "invalid-spec" {
		t.Fatalf("9x9 compare: err = %v, want an invalid-spec rejection", err)
	}
	j, err := s.Submit(JobSpec{Kind: "compare", Cols: 5, Rows: 5, Conns: 12, WarmupNs: 2000, MeasureNs: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j); got != StateDone {
		t.Fatalf("5x5 compare: state = %s (%s)", got, j.View().Detail)
	}
	var art Artifact
	if err := json.Unmarshal(j.Artifact(), &art); err != nil {
		t.Fatal(err)
	}
	if err := art.Shards[0].Compare.Verify(); err != nil {
		t.Fatal(err)
	}
}

// FuzzJobSpec: decoding, normalising and validating any bytes never
// panics; an accepted spec keeps its fingerprint through a JSON round trip
// and a second Normalize, its windows pass the run-window check, and its
// mesh and connection count stay inside backend.CheckSize's bound.
func FuzzJobSpec(f *testing.F) {
	for _, s := range []string{
		// The specs of this package's tests and of scripts/serve-smoke.sh.
		`{"family":"uniform","conns":4,"shards":3,"warmup_ns":500,"measure_ns":1500}`,
		`{"kind":"scenario","family":"uniform","cols":4,"rows":4,"conns":4,"shards":2,"warmup_ns":500,"measure_ns":1500}`,
		`{"family":"no-such-family"}`,
		`{"shards":4}`,
		`{"family":"uniform","conns":8,"shards":8,"seed":42,"warmup_ns":1000,"measure_ns":40000}`,
		`{"kind":"compare","cols":5,"rows":5,"conns":12,"warmup_ns":2000,"measure_ns":20000}`,
		`{"kind":"compare","cols":9,"rows":9,"conns":8}`,
		`{"kind":"scale","cols":9,"rows":9}`,
		`{"measure_ns":1e17}`, `{"warmup_ns":-1}`, `{"deadline_ms":-5}`, `{"shards":1025}`,
		`{"kind":"scale","cols":100000,"rows":100000}`, `{"conns":1099511627776}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s JobSpec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		s.Normalize()
		if s.Validate() != nil {
			return
		}
		if err := core.CheckWindow(s.WarmupNs, s.MeasureNs); err != nil {
			t.Fatalf("accepted %s with a window the run cannot hold: %v", data, err)
		}
		if s.Cols > backend.MaxMeshSide || s.Rows > backend.MaxMeshSide || s.Conns > backend.MaxConns {
			t.Fatalf("accepted %s past the %dx%d, %d-connection bound", data, backend.MaxMeshSide, backend.MaxMeshSide, backend.MaxConns)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back JobSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		back.Normalize()
		if back.Fingerprint() != s.Fingerprint() {
			t.Fatalf("fingerprint of %s moved through a JSON round trip: %s", data, b)
		}
	})
}
