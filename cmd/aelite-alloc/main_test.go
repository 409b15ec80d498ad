package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

var recordFrom = flag.String("record-from", "",
	"rewrite testdata/golden from this binary (build it from the parent commit)")

const uniform = "-scenario uniform -conns 8 -cols 3 -rows 3"

// rows pins aelite-alloc — standard output, standard error, exit code —
// in the format of cmd/aelite-sim's goldens, recorded with -record-from
// from the parent commit's binary, or from this tree's for a row that
// changes on purpose.
var rows = []struct{ name, args string }{
	{"random", "-random 20"},
	{"random-tables", "-random 20 -tables"},
	{"random-meso-ripup", "-random 20 -mode mesochronous -alloc ripup"},
	{"uniform-aelite", uniform},
	{"uniform-routerless", uniform + " -backend routerless"},
	{"uniform-table32", uniform + " -table 32"},
	{"wide-transpose-ripup", "-scenario transpose -conns 40 -cols 6 -rows 6 -alloc ripup"},
	{"too-wide-exit1", "-scenario uniform -conns 40 -cols 10 -rows 10"},
	{"usage-no-use-case", ""},
	{"usage-conns-without-scenario", "-random 3 -conns 3"},
	{"usage-be", "-random 20 -backend be"},
	{"usage-routerless-async", "-random 20 -backend routerless -mode asynchronous"},
	{"usage-routerless-ripup", "-random 8 -backend routerless -alloc ripup"},
	{"usage-routerless-table", "-random 8 -backend routerless -table 16"},
	{"usage-routerless-tables", "-random 8 -backend routerless -tables"},
	{"usage-huge-mesh", "-random 2 -cols 9223372036854775807 -rows 9223372036854775807"},
}

func TestGolden(t *testing.T) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			var code int
			if *recordFrom != "" {
				cmd := exec.Command(*recordFrom, strings.Fields(r.args)...)
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					var exit *exec.ExitError
					if !errors.As(err, &exit) {
						t.Fatal(err)
					}
					code = exit.ExitCode()
				}
			} else {
				saved := cli.Stderr
				cli.Stderr = &stderr
				code = mainCode(strings.Fields(r.args), &stdout)
				cli.Stderr = saved
			}
			got := fmt.Sprintf("$ %s %s\nexit %d\n--- stdout\n%s--- stderr\n%s", tool, r.args, code, &stdout, &stderr)
			golden := filepath.Join("testdata", "golden", r.name+".txt")
			if *recordFrom != "" {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s\n--- got\n%s--- want\n%s", golden, got, want)
			}
		})
	}
}
