package core_test

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// twinOutput is everything a run shows: the report, the metrics JSON, the
// audit summary and the Chrome trace's digest.
type twinOutput struct {
	report, metrics, summary []byte
	chrome                   [sha256.Size]byte
}

// twinRun builds the synchronous network of one generated scenario on flit
// links or, through BuildWordLinks, on word links, runs it traced and
// audited, and renders what it shows.
func twinRun(t *testing.T, sc scenario.Config, cfg core.Config, wordLinks bool) twinOutput {
	t.Helper()
	s, err := scenario.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	build := core.Build
	if wordLinks {
		build = core.BuildWordLinks
	}
	n, err := build(s.Mesh(), s.UseCase, cfg)
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

// twinCampaign runs one scenario under a seeded fault campaign — random
// drops, corruptions and duplicates plus sustained bit flips and flit drops
// on every link — with the ownership probes, the slot checkers and a
// Chrome sink on, and returns the rendered campaign summary, every
// violation and the Chrome trace's digest.
func twinCampaign(t *testing.T, sc scenario.Config, wordLinks bool) ([]byte, []fault.Violation, [sha256.Size]byte) {
	t.Helper()
	s, err := scenario.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	col := fault.NewCollector()
	col.SetKeep(1 << 20)
	cfg := core.Config{FreqMHz: sc.FreqMHz, WordBytes: sc.WordBytes, TableSize: sc.TableSize,
		Probes: true, FaultReporter: col}
	build := core.Build
	if wordLinks {
		build = core.BuildWordLinks
	}
	n, err := build(s.Mesh(), s.UseCase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.AddInvariantCheckers(col)
	bus := trace.NewBus()
	chrome := trace.NewChrome(bus)
	n.AttachTracer(bus)
	plan, err := fault.ParseSpec("random:40", sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	plan.Rates = []fault.RateRule{{BitFlip: 0.002, Drop: 0.001}}
	campaign := fault.NewCampaign(plan, col)
	if err := campaign.Arm(n.Engine(), n.FaultTargets()); err != nil {
		t.Fatal(err)
	}
	n.Run(0, 60000)
	var buf bytes.Buffer
	campaign.Summarize().Write(&buf)
	h := sha256.New()
	if _, err := chrome.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return buf.Bytes(), col.Violations(), sum
}

// TestFlitLinksMatchWordLinks holds the synchronous fabric's flit links to
// the word links they replace: the same network built on each, over the
// uniform, hotspot and transpose families, seeds 2009-2011, CBR and
// transactional, with replay armed and cycle-accurate, must give the same
// report, metrics JSON, audit summary and Chrome trace, byte for byte.
// Under one seeded fault campaign the campaign summary and the Chrome
// trace must be the same, and so must every violation, once sorted by
// time, component and detail.
func TestFlitLinksMatchWordLinks(t *testing.T) {
	for _, fam := range []scenario.Family{scenario.Uniform, scenario.Hotspot, scenario.Transpose} {
		for seed := int64(2009); seed <= 2011; seed++ {
			sc := scenario.Default(fam, 4, 4, 24, seed)
			for _, tx := range []bool{false, true} {
				for _, cycleAccurate := range []bool{false, true} {
					cfg := core.Config{FreqMHz: sc.FreqMHz, WordBytes: sc.WordBytes, TableSize: sc.TableSize,
						Transactional: tx, CycleAccurate: cycleAccurate}
					where := fmt.Sprintf("%s seed %d tx=%v cycle-accurate=%v", fam, seed, tx, cycleAccurate)
					flits, words := twinRun(t, sc, cfg, false), twinRun(t, sc, cfg, true)
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
			}
		}
	}

	sc := scenario.Default(scenario.Uniform, 4, 4, 24, 2009)
	flitSum, flitViol, flitChrome := twinCampaign(t, sc, false)
	wordSum, wordViol, wordChrome := twinCampaign(t, sc, true)
	if len(wordViol) == 0 {
		t.Fatal("the campaign raised no violation; it checks nothing")
	}
	if !bytes.Equal(flitSum, wordSum) {
		t.Errorf("campaign summaries differ:\n-- flit links --\n%s\n-- word links --\n%s", flitSum, wordSum)
	}
	if flitChrome != wordChrome {
		t.Error("campaign Chrome traces differ")
	}
	byKey := func(a, b fault.Violation) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Component, b.Component), cmp.Compare(a.Detail, b.Detail))
	}
	slices.SortFunc(flitViol, byKey)
	slices.SortFunc(wordViol, byKey)
	if !slices.Equal(flitViol, wordViol) {
		i := 0
		for i < len(flitViol) && i < len(wordViol) && flitViol[i] == wordViol[i] {
			i++
		}
		t.Errorf("%d violations on flit links, %d on word links; first difference at #%d: flit %v, word %v",
			len(flitViol), len(wordViol), i, flitViol[i:min(i+2, len(flitViol))], wordViol[i:min(i+2, len(wordViol))])
	}
}
