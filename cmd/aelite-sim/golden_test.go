package main

import (
	"bytes"
	"crypto/sha256"
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
	"rewrite testdata/golden from this binary (build it from the parent commit, or from this tree for a row that changes on purpose)")

// A row is one pinned invocation: standard output, standard error, exit
// code and the digests of the files it writes, checked against a golden
// file recorded from the binary of the commit before a refactor — so the
// refactor is held to what its predecessor actually printed, not to
// itself.
type row struct {
	Name string
	// Args is the space-separated command line; {tmp} expands to a
	// directory private to the row.
	Args string
	// Files names the output files under {tmp} whose SHA-256 is pinned
	// (a file the run did not create is pinned as absent).
	Files []string
}

// checkGolden checks every row against testdata/golden/NAME.txt, driving
// mainCode in-process. Under -record-from it rewrites the files instead.
func checkGolden(t *testing.T, rows []row) {
	inProcess := func(args []string) (int, []byte, []byte) {
		var stdout, stderr bytes.Buffer
		saved := cli.Stderr
		cli.Stderr = &stderr
		defer func() { cli.Stderr = saved }()
		code := mainCode(args, &stdout)
		return code, stdout.Bytes(), stderr.Bytes()
	}
	binary := func(args []string) (int, []byte, []byte) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(*recordFrom, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("%s: %v", *recordFrom, err)
			}
			code = exit.ExitCode()
		}
		return code, stdout.Bytes(), stderr.Bytes()
	}
	for _, r := range rows {
		t.Run(r.Name, func(t *testing.T) {
			render := func(run func([]string) (int, []byte, []byte)) []byte {
				tmp := t.TempDir()
				code, stdout, stderr := run(strings.Fields(strings.ReplaceAll(r.Args, "{tmp}", tmp)))
				var b bytes.Buffer
				fmt.Fprintf(&b, "$ %s %s\nexit %d\n", tool, r.Args, code)
				for _, name := range r.Files {
					sum := "absent"
					if data, err := os.ReadFile(filepath.Join(tmp, name)); err == nil {
						sum = fmt.Sprintf("%x", sha256.Sum256(data))
					}
					fmt.Fprintf(&b, "sha256 %s %s\n", name, sum)
				}
				fmt.Fprintf(&b, "--- stdout\n%s--- stderr\n%s", stdout, stderr)
				return b.Bytes()
			}
			golden := filepath.Join("testdata", "golden", r.Name+".txt")
			if *recordFrom != "" {
				write(t, golden, render(binary))
				return
			}
			got := render(inProcess)
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s\n--- got\n%s--- want\n%s", golden, got, want)
			}
		})
	}
}

func write(t *testing.T, path string, data []byte) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
