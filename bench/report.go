package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostInfo is recorded beside every result: numbers from two hosts do not
// compare.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// results is what results.json holds: one report per workload.
type results struct {
	Host      hostInfo    `json:"host"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Traced    bool        `json:"traced"`
	EndToEnd  []metricDef `json:"end_to_end"`
	Workloads []report    `json:"workloads"`
}

// runChild runs one workload in a process of its own, so peak RSS and
// set-up time are that workload's alone, and parses the last line it prints.
func runChild(w *workload, seed int64, seconds float64, traced bool) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", formatSeed(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", t, "-full")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	return rep, nil
}

// allEndToEnd is the table's metric order: the three every workload reports,
// then the two that apply to some.
var allEndToEnd = append(append([]metricDef(nil), endToEnd...), simKcycles, jobsPerS)

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return allEndToEnd
}

// printReport prints one workload's metrics by name with unit, direction and
// regression bound. A metric that does not apply to the workload is absent.
func printReport(rep report, traced bool) {
	fmt.Printf("%s  seed %d  %d timed jobs  golden: %s  fail_ratio %d/%d\n",
		rep.Workload, rep.Seed, rep.Samples, rep.Golden, rep.Failed, rep.Attempted)
	for _, d := range defsFor(traced) {
		v, ok := rep.Metrics[d.Name]
		if !ok || traced && v.Value == 0 {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", d.Bound*100)
		}
		fmt.Printf("  %-40s %14.4f %-10s %s is better%s\n", d.Name, v.Value, v.Unit, d.Better, bound)
	}
	for _, f := range rep.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// runAll runs every workload, in the given order, one process each.
func runAll(seed int64, seconds float64, traced, forward bool) (*results, error) {
	res := &results{Host: host(), Seed: seed, Seconds: seconds, Traced: traced, EndToEnd: allEndToEnd}
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n\n",
		res.Host.CPU, res.Host.NProc, res.Host.GOMAXPROCS, res.Host.Go, res.Host.Commit)
	order := append([]*workload(nil), workloads...)
	if !forward {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	failed := 0
	start := time.Now()
	for _, w := range order {
		rep, err := runChild(w, seed, seconds, traced)
		if err != nil {
			return nil, err
		}
		printReport(rep, traced)
		fmt.Println()
		failed += rep.Failed
		res.Workloads = append(res.Workloads, rep)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	name := "results.json"
	if traced {
		name = "results_traced.json"
	}
	if err := writeJSON(filepath.Join(outDir, name), res); err != nil {
		return nil, err
	}
	fmt.Printf("%d workloads in %.0f s; wrote %s\n", len(order), time.Since(start).Seconds(), filepath.Join(outDir, name))
	if failed > 0 {
		return res, fmt.Errorf("%d jobs failed their output check", failed)
	}
	return res, nil
}

func (r *results) workload(name string) (report, bool) {
	for _, w := range r.Workloads {
		if w.Workload == name {
			return w, true
		}
	}
	return report{}, false
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSets runs every workload n times, alternating the order between sets,
// and checks each workload × metric for agreement within its bound.
func runSets(n int, seed int64, seconds float64) error {
	var sets []*results
	for i := 0; i < n; i++ {
		fmt.Printf("== set %d of %d ==\n", i+1, n)
		res, err := runAll(seed, seconds, false, i%2 == 0)
		if res == nil {
			return err
		}
		sets = append(sets, res)
		if err != nil {
			fmt.Println(err)
		}
	}
	fmt.Printf("\n%-18s %-18s %-12s %12s %12s %8s %6s  sets\n", "workload", "metric", "unit", "q1", "q3", "spread", "bound")
	disagree, failed := 0, 0
	for _, w := range workloads {
		for _, d := range allEndToEnd {
			var vs []float64
			for _, s := range sets {
				if rep, ok := s.workload(w.name); ok {
					if v, ok := rep.Metrics[d.Name]; ok {
						vs = append(vs, v.Value)
					}
				}
			}
			if len(vs) == 0 {
				continue
			}
			q1, q3 := quartiles(vs)
			verdict := ""
			for i := range vs {
				for j := range vs {
					if worseBy(d, vs[i], vs[j]) > d.Bound {
						verdict = "  DISAGREE"
					}
				}
			}
			if verdict != "" {
				disagree++
			}
			fmt.Printf("%-18s %-18s %-12s %12.4f %12.4f %7.1f%% %5.0f%%  %.4f%s\n",
				w.name, d.Name, d.Unit, q1, q3, spread(vs)*100, d.Bound*100, vs, verdict)
		}
		for _, s := range sets {
			if rep, ok := s.workload(w.name); ok {
				failed += rep.Failed
			}
		}
	}
	if disagree > 0 || failed > 0 {
		return fmt.Errorf("%d workload × metric pairs disagree between sets by more than their bound; %d failed jobs", disagree, failed)
	}
	return nil
}

// compareFiles prints parent against change, one row per workload × metric,
// every ratio with its base.
func compareFiles(parentPath, changePath string) error {
	load := func(path string) (*results, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	parent, err := load(parentPath)
	if err != nil {
		return err
	}
	change, err := load(changePath)
	if err != nil {
		return err
	}
	if parent.Host != change.Host {
		fmt.Printf("note: hosts differ\n  parent: %+v\n  change: %+v\n", parent.Host, change.Host)
	}
	fmt.Printf("%-18s %-18s %-10s %12s %12s %16s %6s\n", "workload", "metric", "unit", "parent", "change", "change/parent", "bound")
	regressions := 0
	for _, w := range workloads {
		a, okA := parent.workload(w.name)
		b, okB := change.workload(w.name)
		if !okA || !okB {
			continue
		}
		for _, d := range allEndToEnd {
			va, okA := a.Metrics[d.Name]
			vb, okB := b.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			verdict := ""
			if worseBy(d, va.Value, vb.Value) > d.Bound {
				verdict = "  REGRESSION"
				regressions++
			}
			ratio := 0.0
			if va.Value != 0 {
				ratio = vb.Value / va.Value
			}
			fmt.Printf("%-18s %-18s %-10s %12.4f %12.4f %16s %5.0f%%%s\n", w.name, d.Name, d.Unit,
				va.Value, vb.Value, fmt.Sprintf("%.3f (of %.4g)", ratio, va.Value), d.Bound*100, verdict)
		}
		fmt.Printf("%-18s %-18s %-10s %12s %12s\n", w.name, "fail_ratio", "",
			fmt.Sprintf("%d/%d", a.Failed, a.Attempted), fmt.Sprintf("%d/%d", b.Failed, b.Attempted))
		if b.Failed > a.Failed {
			regressions++
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions beyond their bound", regressions)
	}
	return nil
}

// writeBenchmarkJSON rewrites BENCHMARK.json at the repository root from the
// tables in this program, so the two cannot drift apart.
func writeBenchmarkJSON() error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, named{w.name, w.why})
	}
	for _, d := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	return writeJSON(filepath.Join("..", "BENCHMARK.json"), out)
}
