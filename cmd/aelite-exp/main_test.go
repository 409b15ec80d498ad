package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when the test binary is re-executed as the
// command under test.
func TestMain(m *testing.M) {
	if os.Getenv("AELITE_EXP_RUN_MAIN") == "1" {
		os.Args = append(os.Args[:1], strings.Fields(os.Getenv("AELITE_EXP_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWindowRejected: a -measure that is not finite, or that overflows
// simulated time with the experiments' warm-up, is a usage error (exit 2,
// one diagnostic line) before any experiment runs; NaN used to reach sec7
// and print a 0.0x latency ratio.
func TestWindowRejected(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range []string{"-measure NaN sec7", "-measure Inf sec7", "-measure 1e17 sec7", "-measure 0 sec7"} {
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(), "AELITE_EXP_RUN_MAIN=1", "AELITE_EXP_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || stdout.Len() != 0 ||
			!strings.HasPrefix(stderr.String(), "aelite-exp: -measure: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%s: %v, stdout %q, stderr %q; want exit 2 and one -measure diagnostic", args, err, &stdout, &stderr)
		}
	}
}
