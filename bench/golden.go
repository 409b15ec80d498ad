package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// goldenJSON holds, per workload and input, the SHA-256 of the job's
// deterministic output. A simulator speed-up must leave every simulated
// statistic identical; comparing each job against these is what enforces it.
// Rewrite with -update-golden, and only when an output change is intended.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]map[string]string {
	g := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench: golden.json: %v", err)) // a committed file
	}
	return g
}()

// goldenOff makes every lookup miss, so jobs are checked for invariants
// only; -update-golden sets it while it collects fresh digests.
var goldenOff bool

// formatSeed is how an input keys golden.json and travels on a command line.
func formatSeed(seed int64) string { return strconv.FormatInt(seed, 10) }

func goldenDigest(workload string, input int64) (string, bool) {
	if goldenOff {
		return "", false
	}
	d, ok := golden[workload][formatSeed(input)]
	return d, ok
}

// updateGolden runs every workload's golden inputs once and rewrites
// golden.json in the current directory (the benchmark's own).
func updateGolden() error {
	goldenOff = true
	fresh := map[string]map[string]string{}
	for _, w := range workloads {
		fresh[w.name] = map[string]string{}
		if w.job == nil {
			env, err := startServe(true)
			if err != nil {
				return err
			}
			for _, in := range serveCanarySeeds {
				d, err := env.serveCanary(in)
				if err != nil {
					return fmt.Errorf("%s input %d: %w", w.name, in, err)
				}
				fresh[w.name][formatSeed(in)] = d
			}
			if _, err := env.stop(len(serveCanarySeeds)); err != nil {
				return err
			}
			continue
		}
		for _, in := range inputPool {
			o := w.job(in, nil)
			if o.err != nil {
				return fmt.Errorf("%s input %d: %w", w.name, in, o.err)
			}
			fresh[w.name][formatSeed(in)] = o.digest
		}
	}
	b, err := json.MarshalIndent(fresh, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("golden.json", append(b, '\n'), 0o644)
}
