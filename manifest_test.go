package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/artifacts.txt from this tree's outputs")

// manifestPath is the committed manifest: one line per deterministic
// artifact, holding its name, the literal command and the sha256 of the
// output bytes, so a moved artifact is a one-line diff.
const manifestPath = "testdata/artifacts.txt"

// An artifact is one output the manifest pins. cmd runs a binary built
// from ./cmd/aelite-exp or ./examples with the given arguments, or, with
// the prefix "serve ", submits the JSON job spec after it to an in-process
// scheduler. out names the file the command writes with -out whose bytes
// are hashed; empty hashes standard output (or the serve artifact).
type artifact struct {
	name, cmd, out string
}

var artifacts = []artifact{
	{"exp-sec7", "aelite-exp sec7", ""},
	{"exp-recovery", "aelite-exp recovery", ""},
	{"exp-reconfig", "aelite-exp -out reconfig.json reconfig", ""},
	{"exp-reconfig.json", "aelite-exp -out reconfig.json reconfig", "reconfig.json"},
	{"exp-conformance", "aelite-exp conformance", ""},
	{"exp-compare-smoke", "aelite-exp -smoke -out compare.json compare", ""},
	{"exp-compare-smoke.json", "aelite-exp -smoke -out compare.json compare", "compare.json"},
	{"exp-scale-smoke", "aelite-exp -smoke -out scale.json scale", ""},
	{"exp-scale-smoke.json", "aelite-exp -smoke -out scale.json scale", "scale.json"},
	{"ex-composability", "composability", ""},
	{"ex-composability-audit", "composability -audit -strict", ""},
	{"ex-faultcampaign", "faultcampaign", ""},
	{"ex-mesochronous", "mesochronous", ""},
	{"ex-multimedia", "multimedia", ""},
	{"ex-quickstart", "quickstart", ""},
	{"ex-quickstart-audit", "quickstart -audit -strict", ""},
	{"ex-reliability", "reliability", ""},
	{"ex-usecaseswitch", "usecaseswitch", ""},
	{"serve-scenario", `serve {"family":"uniform","conns":8,"shards":2,"warmup_ns":1000,"measure_ns":4000}`, ""},
	{"serve-scale", `serve {"kind":"scale","cols":3,"rows":3,"conns":12}`, ""},
	{"serve-compare", `serve {"kind":"compare","family":"hotspot","cols":3,"rows":3,"conns":8,"warmup_ns":1000,"measure_ns":4000}`, ""},
}

// TestArtifactManifest regenerates every artifact of the manifest and
// fails on any line that differs from the committed file: the outputs of
// the experiments, the examples and one small job of each serve kind are
// pinned by their bytes. A change that moves an artifact on purpose reruns
// with -update and names the moved lines; every other line must stay.
func TestArtifactManifest(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/aelite-exp", "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	work := t.TempDir()
	outputs := map[string][]byte{} // by command, then by command + "\x00" + out file
	run := func(cmd string) {
		if _, done := outputs[cmd]; done {
			return
		}
		if spec, ok := strings.CutPrefix(cmd, "serve "); ok {
			outputs[cmd] = serveArtifact(t, spec)
			return
		}
		args := strings.Fields(cmd)
		c := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
		c.Dir = work
		var stdout, stderr bytes.Buffer
		c.Stdout, c.Stderr = &stdout, &stderr
		if err := c.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", cmd, err, &stderr)
		}
		outputs[cmd] = stdout.Bytes()
		for i, a := range args[:len(args)-1] {
			if a == "-out" {
				b, err := os.ReadFile(filepath.Join(work, args[i+1]))
				if err != nil {
					t.Fatal(err)
				}
				outputs[cmd+"\x00"+args[i+1]] = b
			}
		}
	}
	var got strings.Builder
	for _, a := range artifacts {
		run(a.cmd)
		key := a.cmd
		if a.out != "" {
			key += "\x00" + a.out
		}
		b, ok := outputs[key]
		if !ok {
			t.Fatalf("%s: %s wrote no %s", a.name, a.cmd, a.out)
		}
		sum := sha256.Sum256(b)
		fmt.Fprintf(&got, "%s %s %s\n", a.name, a.cmd, hex.EncodeToString(sum[:]))
	}

	if *update {
		if err := os.WriteFile(manifestPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("%v (run go test -run TestArtifactManifest -update . to create it)", err)
	}
	if got.String() == string(want) {
		return
	}
	wantLines := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		wantLines[l] = true
	}
	for _, l := range strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n") {
		if !wantLines[l] {
			t.Errorf("artifact moved or new: %s", l)
		}
		delete(wantLines, l)
	}
	for l := range wantLines {
		t.Errorf("manifest line no longer produced: %s", l)
	}
}

// serveArtifact runs one job through an in-process scheduler and returns
// its canonical artifact.
func serveArtifact(t *testing.T, specJSON string) []byte {
	t.Helper()
	var spec serve.JobSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	s := serve.NewScheduler(serve.SchedulerConfig{Workers: 1})
	s.Start()
	defer s.Stop()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); !j.State().Terminal(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("serve %s: stuck in %s", specJSON, j.State())
		}
	}
	if st := j.State(); st != serve.StateDone {
		t.Fatalf("serve %s: %s (%s)", specJSON, st, j.View().Detail)
	}
	return j.Artifact()
}
