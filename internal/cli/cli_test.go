package cli

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestExitPaths pins the cross-command exit contract: one diagnostic
// line per door, with the documented code.
func TestExitPaths(t *testing.T) {
	cases := []struct {
		name     string
		exit     func(tool string) int
		wantCode int
		wantLine string
	}{
		{
			name:     "usage",
			exit:     func(tool string) int { return Usage(tool, errors.New("-conns applies only with -scenario")) },
			wantCode: ExitUsage,
			wantLine: "aelite-x: -conns applies only with -scenario\n",
		},
		{
			name:     "failure",
			exit:     func(tool string) int { return Failure(tool, errors.New("no allocation for connection 7")) },
			wantCode: ExitFailure,
			wantLine: "aelite-x: no allocation for connection 7\n",
		},
		{
			name:     "fatal panic",
			exit:     func(tool string) int { return Fatal(tool, "slot table corrupted") },
			wantCode: ExitFatal,
			wantLine: "aelite-x: fatal: slot table corrupted\n",
		},
		{
			name:     "fatal wraps any recovered value",
			exit:     func(tool string) int { return Fatal(tool, 42) },
			wantCode: ExitFatal,
			wantLine: "aelite-x: fatal: 42\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			old := Stderr
			Stderr = &buf
			defer func() { Stderr = old }()
			if got := tc.exit("aelite-x"); got != tc.wantCode {
				t.Fatalf("exit code = %d, want %d", got, tc.wantCode)
			}
			if buf.String() != tc.wantLine {
				t.Fatalf("diagnostic = %q, want %q", buf.String(), tc.wantLine)
			}
			if bytes.Count(buf.Bytes(), []byte("\n")) != 1 {
				t.Fatalf("diagnostic is not one line: %q", buf.String())
			}
		})
	}
}

// TestCodesAreDistinct guards the contract's door numbering.
func TestCodesAreDistinct(t *testing.T) {
	if ExitOK != 0 || ExitFailure != 1 || ExitUsage != 2 || ExitFatal != 3 {
		t.Fatalf("exit codes moved: ok=%d failure=%d usage=%d fatal=%d",
			ExitOK, ExitFailure, ExitUsage, ExitFatal)
	}
}

// TestProfile: without -pprof Start and stop do nothing; with it the
// stopped profile is a non-empty file; an uncreatable path is an error
// before anything runs.
func TestProfile(t *testing.T) {
	parse := func(args ...string) *Profile {
		var p Profile
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		p.Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return &p
	}
	stop, err := parse().Start()
	if err != nil {
		t.Fatalf("no flag: %v", err)
	}
	stop()

	path := filepath.Join(t.TempDir(), "cpu.prof")
	stop, err = parse("-pprof", path).Start()
	if err != nil {
		t.Fatalf("-pprof %s: %v", path, err)
	}
	stop()
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("profile not written: %v, %v", st, err)
	}

	if _, err := parse("-pprof", filepath.Join(path, "under-a-file")).Start(); err == nil {
		t.Error("no error for a path that cannot be created")
	}
}
