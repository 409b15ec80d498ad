package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// twinOutput is everything a run shows: the report, the metrics JSON, the
// audit summary and the Chrome trace's digest.
type twinOutput struct {
	report, metrics, summary []byte
	chrome                   [sha256.Size]byte
}

// twinRun builds the synchronous network of the use case mk makes, on
// its mesh, with Build or, when wordLinks is set, BuildWordLinks, runs it
// traced and audited, and renders what it shows.
func twinRun(t *testing.T, mk func() (*topology.Mesh, *spec.UseCase), cfg core.Config, wordLinks bool) twinOutput {
	t.Helper()
	build := core.Build
	if wordLinks {
		build = core.BuildWordLinks
	}
	m, uc := mk()
	n, err := build(m, uc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	period := int64(n.BaseClock().Period)
	bus := trace.NewBus()
	met := trace.NewMetrics(bus)
	chrome := trace.NewChrome(bus)
	chrome.SetFlitCycle(phit.FlitWords * period)
	aud := audit.Attach(n, bus, fault.NewCollector(), audit.Options{})
	n.AttachTracer(bus)
	rep := n.Run(4000, 20000)
	var out twinOutput
	var buf bytes.Buffer
	rep.Write(&buf)
	out.report = bytes.Clone(buf.Bytes())
	buf.Reset()
	if err := met.Report(0, period).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.metrics = bytes.Clone(buf.Bytes())
	buf.Reset()
	aud.WriteSummary(&buf)
	out.summary = bytes.Clone(buf.Bytes())
	h := sha256.New()
	if _, err := chrome.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	copy(out.chrome[:], h.Sum(nil))
	return out
}

// compareTwins reports every way in which a run on flit links differs
// from its word-link twin.
func compareTwins(t *testing.T, where string, flits, words twinOutput) {
	t.Helper()
	if !bytes.Equal(flits.report, words.report) {
		t.Errorf("%s: reports differ:\n-- flit links --\n%s\n-- word links --\n%s", where, flits.report, words.report)
	}
	if !bytes.Equal(flits.metrics, words.metrics) {
		t.Errorf("%s: metrics JSON differs", where)
	}
	if !bytes.Equal(flits.summary, words.summary) {
		t.Errorf("%s: audit summaries differ:\n-- flit links --\n%s\n-- word links --\n%s", where, flits.summary, words.summary)
	}
	if flits.chrome != words.chrome {
		t.Errorf("%s: Chrome traces differ", where)
	}
}

// TestFlitLinksMatchWordLinks holds the synchronous fabric's flit links to
// the word links they replace: the same unwatched network built on each,
// over the uniform, hotspot and transpose families, seeds 2009-2011, CBR
// and transactional, with replay armed and cycle-accurate, and over the
// conformance sweep's workload at each of its table sizes, must give the
// same report, metrics JSON, audit summary and Chrome trace, byte for
// byte.
func TestFlitLinksMatchWordLinks(t *testing.T) {
	for _, fam := range []scenario.Family{scenario.Uniform, scenario.Hotspot, scenario.Transpose} {
		for seed := int64(2009); seed <= 2011; seed++ {
			sc := scenario.Default(fam, 4, 4, 24, seed)
			mk := func() (*topology.Mesh, *spec.UseCase) {
				s, err := scenario.Generate(sc)
				if err != nil {
					t.Fatal(err)
				}
				return s.Mesh(), s.UseCase
			}
			for _, tx := range []bool{false, true} {
				for _, cycleAccurate := range []bool{false, true} {
					cfg := core.Config{FreqMHz: sc.FreqMHz, WordBytes: sc.WordBytes, TableSize: sc.TableSize,
						Transactional: tx, CycleAccurate: cycleAccurate}
					where := fmt.Sprintf("%s seed %d tx=%v cycle-accurate=%v", fam, seed, tx, cycleAccurate)
					compareTwins(t, where, twinRun(t, mk, cfg, false), twinRun(t, mk, cfg, true))
				}
			}
		}
	}
	// The conformance sweep's shape (internal/experiments/conformance.go),
	// which audits the synchronous network on flit links: a 3x2 mesh with
	// 2 NIs per router and its random use case, drawn from seed 2009.
	conformance := func() (*topology.Mesh, *spec.UseCase) {
		m := topology.NewMesh(3, 2, 2)
		uc := spec.Random(spec.RandomConfig{
			Name: "conformance", Seed: 2009, IPs: 8, Apps: 2, Conns: 6,
			MinRateMBps: 10, MaxRateMBps: 60,
			MinLatencyNs: 500, MaxLatencyNs: 1500,
		})
		spec.MapIPsByTraffic(uc, m)
		return m, uc
	}
	for _, table := range []int{8, 16, 32} {
		cfg := core.Config{TableSize: table}
		where := fmt.Sprintf("conformance table %d", table)
		compareTwins(t, where, twinRun(t, conformance, cfg, false), twinRun(t, conformance, cfg, true))
	}
}

// TestOnlyWatchedSyncNetworksOfferFaults holds the rule that picks a
// synchronous network's links. One built with a fault reporter, collecting
// or fail-fast, runs on word links and offers every link as a fault target
// and to the slot checkers. One that nothing watches runs on flit links,
// which offer nothing to inject on or check, so asking it for fault
// targets or invariant checkers panics, naming the rule, instead of arming
// a campaign that checks nothing.
func TestOnlyWatchedSyncNetworksOfferFaults(t *testing.T) {
	sc := scenario.Default(scenario.Uniform, 4, 4, 24, 2009)
	build := func(rep fault.Reporter) *core.Network {
		s, err := scenario.Generate(sc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{FreqMHz: sc.FreqMHz, WordBytes: sc.WordBytes, TableSize: sc.TableSize, FaultReporter: rep}
		n, err := core.Build(s.Mesh(), s.UseCase, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for name, rep := range map[string]fault.Reporter{
		"reporter":           fault.NewCollector(),
		"fail-fast reporter": fault.FailFast{},
	} {
		t.Run(name, func(t *testing.T) {
			n := build(rep)
			if links := n.FaultTargets().Links; len(links) != len(n.Mesh.Links()) {
				t.Errorf("%d of %d links are fault targets", len(links), len(n.Mesh.Links()))
			}
			n.AddInvariantCheckers(fault.NewCollector())
		})
	}
	n := build(nil)
	for name, call := range map[string]func(){
		"FaultTargets":         func() { n.FaultTargets() },
		"AddInvariantCheckers": func() { n.AddInvariantCheckers(fault.NewCollector()) },
	} {
		t.Run("unwatched "+name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, name) || !strings.Contains(msg, "build with a FaultReporter (fault.FailFast to fail fast) to inject or check faults") {
					t.Errorf("panic %q, want one naming %s and the rule", msg, name)
				}
			}()
			call()
		})
	}
}
