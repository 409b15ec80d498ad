package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/cli"
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
// exit-3 doors. The goldens were recorded from the binary of the commit
// before aelite-sim's three build-and-run paths became one (the -tx rows
// from the commit before the backends shared one traffic model); the
// Changed rows are the complete list of what those refactors altered on
// purpose.
var rows = []row{
	{Name: "random-sync", Args: "-random 20" + window},
	{Name: "random-meso", Args: "-random 20 -mode mesochronous" + window},
	{Name: "random-async", Args: "-random 20 -mode asynchronous" + window},
	{Name: "random-sync-files", Args: "-random 20 -trace-out {tmp}/t.json -metrics-out {tmp}/m.csv" + window,
		Files: []string{"t.json", "m.csv"}},

	{Name: "uniform-aelite", Args: uniform + window},
	{Name: "uniform-aelite-audit", Args: uniform + " -audit" + window},
	{Name: "uniform-routerless", Args: uniform + " -backend routerless" + window},
	{Name: "uniform-routerless-audit", Args: uniform + " -backend routerless -audit" + window,
		Changed: "the verdict follows the audit summary, as on aelite", Reordered: true},
	{Name: "uniform-aethereal", Args: uniform + " -backend aethereal" + window},
	{Name: "uniform-be", Args: uniform + " -backend be" + window},
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
	{Name: "random-routerless-tx", Args: "-random 20 -tx -backend routerless" + window,
		Changed: "the rings are offered the transactions the routed fabrics get (traffic.TxWordsForRate: 4/8/16 words); the parent sized them rate/10 clamped to 4..64, 7 words for the 73 Mbyte/s connection"},

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
	{Name: "wide-aethereal", Args: wide + " -backend aethereal" + window,
		Changed: "the wide layout reaches the baseline through the seam; the parent fails on a 9-hop path"},
	{Name: "wide-routerless", Args: wide + " -backend routerless" + window,
		Changed: "the rings run at the 8-byte words the scenario was quantised for; the parent ran them at 4"},

	{Name: "strict-skew-exit3", Args: "-random 20 -mode mesochronous -strict -skew-ps 1001" + window},
	{Name: "usage-routerless-meso", Args: "-random 20 -backend routerless -mode mesochronous"},
	{Name: "usage-be-audit", Args: "-random 20 -backend be -audit"},
	{Name: "usage-reconfig-async", Args: "-random 20 -mode asynchronous -reconfig close@2000:1"},
	{Name: "usage-runs-without-faults", Args: "-random 20 -runs 2"},
	{Name: "usage-be-faults", Args: "-random 20 -backend be -faults random:3"},
	{Name: "usage-routerless-fast", Args: "-random 20 -backend routerless -fast",
		Changed: "an undefined flag now that replay is the default; the parent ignored -fast"},
	{Name: "usage-routerless-probes", Args: "-random 20 -backend routerless -probes",
		Changed: "the rejection no longer names -fast, which is gone; the parent's message did"},
	{Name: "usage-routerless-ripup", Args: "-random 20 -backend routerless -alloc ripup",
		Changed: "the rejection no longer names -fast, which is gone; the parent's message did"},
	{Name: "usage-no-use-case", Args: "-trace-out {tmp}/x.json", Files: []string{"x.json"},
		Changed: "rejected before the output file is created; the parent left an empty one behind"},
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
