package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
)

const (
	window  = " -warmup 4000 -measure 20000"
	uniform = "-scenario uniform -conns 8 -cols 3 -rows 3"
	wide    = "-scenario uniform -conns 16 -cols 8 -rows 8 -nis 1"
	faults  = "-random 20 -mode mesochronous -faults random:6 -fault-seed 42"
)

// rows is the pinned matrix: every clocking mode, every backend with and
// without the auditor, campaigns alone and as sweeps, the reliability
// shell, reconfiguration, fast replay, the wide layout, and the exit-2 and
// exit-3 doors. A golden is recorded with -record-from: from the parent
// commit's binary when a change must not move it, from this tree's binary
// for a row that changes on purpose; git history holds what each replaced.
var rows = []row{
	{Name: "random-sync", Args: "-random 20" + window},
	{Name: "random-meso", Args: "-random 20 -mode mesochronous" + window},
	{Name: "random-async", Args: "-random 20 -mode asynchronous" + window},
	{Name: "random-sync-files", Args: "-random 20 -trace-out {tmp}/t.json -metrics-out {tmp}/m.csv" + window,
		Files: []string{"t.json", "m.csv"}},

	{Name: "uniform-aelite", Args: uniform + window},
	{Name: "uniform-aelite-audit", Args: uniform + " -audit" + window},
	{Name: "uniform-routerless", Args: uniform + " -backend routerless" + window},
	{Name: "uniform-routerless-audit", Args: uniform + " -backend routerless -audit" + window},
	{Name: "uniform-aethereal", Args: uniform + " -backend aethereal" + window},
	{Name: "uniform-routerless-files", Args: uniform + " -backend routerless -trace-out {tmp}/t.json -metrics-out {tmp}/m.json" + window,
		Files: []string{"t.json", "m.json"}},

	// -tx through every backend. Every uniform 3x3 rate is under 40
	// Mbyte/s, where all three fabrics have always sent 4-word
	// transactions; the -random rates span the size classes.
	{Name: "uniform-aelite-tx", Args: uniform + " -tx" + window},
	{Name: "uniform-aethereal-tx", Args: uniform + " -tx -backend aethereal" + window},
	{Name: "uniform-routerless-tx", Args: uniform + " -tx -backend routerless" + window},
	{Name: "random-aelite-tx", Args: "-random 20 -tx" + window},
	{Name: "random-aethereal-tx", Args: "-random 20 -tx -backend aethereal" + window},
	{Name: "random-routerless-tx", Args: "-random 20 -tx -backend routerless" + window},

	{Name: "faults", Args: faults + window},
	{Name: "faults-runs3-j1", Args: faults + " -runs 3 -j 1" + window},
	{Name: "faults-runs3-j4", Args: faults + " -runs 3 -j 4" + window},
	{Name: "reliable-bitflip", Args: "-random 20 -mode mesochronous -reliable -bitflip-rate 0.001" + window},
	{Name: "reconfig-audit", Args: "-random 20 -reconfig close@2000:1;open@4000:0:5:20:2000 -audit" + window},
	// Replay is the default: this row, once run with -fast, pins that the
	// default prints what -fast did.
	{Name: "fast-audit-metrics", Args: uniform + " -audit -metrics-out {tmp}/m.json" + window,
		Files: []string{"m.json"}},

	{Name: "wide-aelite", Args: wide + window},
	{Name: "wide-aethereal", Args: wide + " -backend aethereal" + window},
	{Name: "wide-routerless", Args: wide + " -backend routerless" + window},

	{Name: "strict-skew-exit3", Args: "-random 20 -mode mesochronous -strict -skew-ps 1001" + window},
	// A strict synchronous campaign stays on word links, where the
	// ownership probe halts it at the misrouted flit.
	{Name: "strict-sync-corrupt-exit3", Args: "-random 20 -faults corrupt@5000:l34. -strict" + window},
	{Name: "usage-routerless-meso", Args: "-random 20 -backend routerless -mode mesochronous"},
	{Name: "usage-be", Args: "-random 20 -backend be"},
	{Name: "usage-be-audit", Args: "-random 20 -backend aethereal -audit"},
	{Name: "usage-reconfig-async", Args: "-random 20 -mode asynchronous -reconfig close@2000:1"},
	{Name: "usage-reconfig-nan-time", Args: "-random 8 -reconfig close@NaN:1"},
	{Name: "usage-reconfig-past-window", Args: "-random 8 -reconfig close@1e300:1"},
	{Name: "usage-reconfig-nan-rate", Args: "-random 8 -reconfig open@1000:0:3:NaN:900"},
	{Name: "usage-runs-without-faults", Args: "-random 20 -runs 2"},
	{Name: "usage-be-faults", Args: "-random 20 -backend aethereal -faults random:3"},
	{Name: "usage-routerless-fast", Args: "-random 20 -backend routerless -fast"},
	{Name: "usage-routerless-ripup", Args: "-random 20 -backend routerless -alloc ripup"},
	{Name: "usage-no-use-case", Args: "-trace-out {tmp}/x.json", Files: []string{"x.json"}},
}

func TestGolden(t *testing.T) {
	checkGolden(t, rows)

	// A sweep renders byte-identically at every worker count.
	j1, err := os.ReadFile("testdata/golden/faults-runs3-j1.txt")
	if err != nil {
		t.Fatal(err)
	}
	j4, err := os.ReadFile("testdata/golden/faults-runs3-j4.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, j1, _ = bytes.Cut(j1, []byte("\n")) // the command line differs, nothing else may
	_, j4, _ = bytes.Cut(j4, []byte("\n"))
	if !bytes.Equal(j1, j4) {
		t.Error("-runs 3 renders differently at -j 1 and -j 4")
	}
}

// TestWindowRejected: a run window that is not finite, or that overflows
// simulated time, is a usage error (exit 2, one diagnostic line) before
// anything is built; it used to run an empty window and report every
// requirement missed.
func TestWindowRejected(t *testing.T) {
	for _, args := range []string{
		"-random 4 -measure NaN",
		"-random 4 -measure Inf",
		"-random 4 -measure 1e17",
		"-random 4 -warmup 1e17",
		"-random 4 -warmup -1",
	} {
		var stdout, stderr bytes.Buffer
		saved := cli.Stderr
		cli.Stderr = &stderr
		code := mainCode(strings.Fields(args), &stdout)
		cli.Stderr = saved
		if code != cli.ExitUsage || stdout.Len() != 0 || bytes.Count(stderr.Bytes(), []byte("\n")) != 1 ||
			!strings.Contains(stderr.String(), "-warmup/-measure") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 and one -warmup/-measure diagnostic", args, code, &stdout, &stderr)
		}
	}
}

// TestVerdictNamesBoundBreach: a connection whose maximum latency exceeds
// its analytical bound is named in the verdict and fails the run even
// when every requirement is met and no auditor ran.
func TestVerdictNamesBoundBreach(t *testing.T) {
	met := core.ConnReport{MetThroughput: true, MetLatency: true, WithinBound: true}
	over := met
	over.WithinBound = false
	missed := over
	missed.MetLatency = false
	for _, tc := range []struct {
		conns []core.ConnReport
		code  int
		out   string
	}{
		{[]core.ConnReport{met, met}, 0, "\nall requirements met\n"},
		{[]core.ConnReport{met, over}, 1, "\n1 connections exceeded their analytical bound\n\nall requirements met\n"},
		{[]core.ConnReport{over, missed, met}, 1, "\n2 connections exceeded their analytical bound\n\n1 requirements MISSED\n"},
	} {
		var b bytes.Buffer
		if code := verdict(&core.Report{Conns: tc.conns}, &b); code != tc.code || b.String() != tc.out {
			t.Errorf("verdict = %d %q, want %d %q", code, b.String(), tc.code, tc.out)
		}
	}
}
