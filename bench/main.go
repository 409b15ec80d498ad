// Command bench is the repository's one benchmark: six named workloads
// driven from outside through the public functions of repro/internal/...,
// end-to-end metrics from an untraced run, and per-layer figures from a
// separate traced run. See README.md beside this file.
//
//	go run -C bench .                      every workload, one process each
//	go run -C bench . -trace 1             the traced runs and layers.json
//	go run -C bench . -workload cbr_replay -seed 3 -seconds 12 -trace 0
//	go run -C bench . -sets 2              repeatability against the bounds
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

// outDir receives results, traces and the serve workload's journal; it is
// relative to the benchmark's own directory, where go run -C bench puts us.
var outDir = "out"

// runSeconds is how long one run measures unless -seconds says otherwise;
// BENCHMARK.json carries the same figure.
const runSeconds = 12

// options are the command line.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	full       bool
	sets       int
	compare    bool
	upGolden   bool
	writeBench bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result as the last line")
	flag.Int64Var(&o.seed, "seed", experiments.Sec7Seed, "workload seed: the order of pooled inputs and the serve jobs' scenario seeds")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 makes the traced run: per-layer metrics, trace_<workload>.json and layers.json")
	flag.BoolVar(&o.full, "full", false, "with -workload: also report what the all-workloads table needs")
	flag.IntVar(&o.sets, "sets", 0, "run every workload N times in alternating order and compare the sets against the bounds")
	flag.BoolVar(&o.compare, "compare", false, "compare two results.json files given as arguments: parent, then change")
	flag.BoolVar(&o.upGolden, "update-golden", false, "rerun the golden inputs and rewrite golden.json")
	flag.BoolVar(&o.writeBench, "write-benchmark-json", false, "rewrite ../BENCHMARK.json from the tables in this program")
	flag.Parse()
	if err := dispatch(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		var u usageError
		if errors.As(err, &u) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

type usageError struct{ error }

func dispatch(o options) error {
	if o.seconds <= 0 || o.seconds > 600 {
		return usageError{fmt.Errorf("-seconds %g outside (0, 600]", o.seconds)}
	}
	if o.trace != 0 && o.trace != 1 {
		return usageError{fmt.Errorf("-trace %d is neither 0 nor 1", o.trace)}
	}
	traced := o.trace == 1
	switch {
	case o.upGolden:
		return updateGolden()
	case o.writeBench:
		return writeBenchmarkJSON()
	case o.compare:
		if flag.NArg() != 2 {
			return usageError{errors.New("-compare needs two result files: parent.json change.json")}
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case o.workload != "":
		w := workloadByName(o.workload)
		if w == nil {
			return usageError{fmt.Errorf("unknown workload %q", o.workload)}
		}
		rep, err := runOne(w, o.seed, time.Duration(o.seconds*float64(time.Second)), traced, o.full)
		if err != nil {
			return err
		}
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	case o.sets > 0:
		return runSets(o.sets, o.seed, o.seconds)
	default:
		_, err := runAll(o.seed, o.seconds, traced, true)
		return err
	}
}

// runOne runs one workload in this process. The traced run reports the layer
// metrics, every one of them, and writes the trace files; the untraced run
// reports the end-to-end metrics.
func runOne(w *workload, seed int64, d time.Duration, traced, full bool) (report, error) {
	if !traced {
		var r *run
		if w.job == nil {
			var err error
			if r, err = runServe(w, seed, d); err != nil {
				return report{}, err
			}
		} else {
			r = runPooled(w, seed, d)
		}
		defs := endToEnd
		if full {
			defs = allEndToEnd
		}
		return reportOf(r, r.endToEndMetrics(), defs, full), nil
	}

	var r *run
	var p *probeRun
	var spans []span
	if w.job == nil {
		var err error
		if r, p, spans, err = tracedServe(w, seed, d); err != nil {
			return report{}, err
		}
	} else {
		r, p, spans = tracedPooled(w, seed, d)
	}
	// A failed probe is a failed check of the traced run.
	r.attempted += len(p.fails)
	r.failures = append(r.failures, p.fails...)
	if err := writeTrace(w, seed, p, spans); err != nil {
		return report{}, err
	}
	for _, def := range perLayer {
		if _, ok := p.m[def.Name]; !ok {
			p.m[def.Name] = 0
		}
	}
	return reportOf(r, p.m, perLayer, full), nil
}
