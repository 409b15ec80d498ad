package fault

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
)

func TestReportStrictPanicsWithMessage(t *testing.T) {
	v := Violation{Kind: SlotContention, Component: "l0", Time: 4200, Slot: 3, Detail: "x"}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Report(nil, v) did not panic")
		}
		if r != v.String() {
			t.Errorf("panic value %v, want the violation message %q", r, v.String())
		}
	}()
	Report(nil, v)
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.SetKeep(3)
	for i := 0; i < 5; i++ {
		k := ProtocolError
		if i%2 == 1 {
			k = CreditError
		}
		Report(c, Violation{Kind: k, Component: "n", Time: clock.Time(100 * (i + 1)), Slot: NoSlot})
	}
	if c.Total() != 5 {
		t.Errorf("Total = %d, want 5 — counters must keep counting past the keep bound", c.Total())
	}
	if got := len(c.Violations()); got != 3 {
		t.Errorf("stored %d violations, want the keep bound 3", got)
	}
	want := map[Kind]int64{ProtocolError: 3, CreditError: 2}
	got := c.CountByKind()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("CountByKind[%v] = %d, want %d", k, got[k], n)
		}
	}
	kinds := c.Kinds()
	if len(kinds) != 2 || kinds[0] > kinds[1] {
		t.Errorf("Kinds = %v, want 2 kinds sorted ascending", kinds)
	}
	if v, ok := c.FirstAt(150); !ok || v.Time != 200 {
		t.Errorf("FirstAt(150) = %v,%v, want the violation at 200", v, ok)
	}
	if _, ok := c.FirstAt(10000); ok {
		t.Error("FirstAt past the last violation reported a hit")
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("drop@9000:l0.:2; corrupt@12.5:l3. ;random:3;stall@0:w", 77)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 77 {
		t.Errorf("seed %d, want 77", p.Seed)
	}
	if len(p.Events) != 4 {
		t.Fatalf("parsed %d events, want 4: %v", len(p.Events), p.Events)
	}
	e := p.Events[0]
	if e.Op != OpDrop || e.At != 9000*clock.Nanosecond || e.Target != "l0." || e.Param != 2 {
		t.Errorf("event 0 = %v", e)
	}
	// Fractional nanoseconds and the per-op default param.
	e = p.Events[1]
	if e.Op != OpCorrupt || e.At != clock.Time(12.5*float64(clock.Nanosecond)) || e.Param != 1 {
		t.Errorf("event 1 = %v", e)
	}
	if p.Events[2].Op != opRandom || p.Events[2].Param != 3 {
		t.Errorf("event 2 = %v, want unexpanded random:3", p.Events[2])
	}
	if p.Events[3].Op != OpStall || p.Events[3].Param != 30 {
		t.Errorf("event 3 = %v, want default 30 stall cycles", p.Events[3])
	}

	bad := []string{
		"",                    // empty campaign
		"  ;  ",               // only separators
		"zap@100:l0",          // unknown op
		"drop:l0",             // missing @TIME
		"drop@abc:l0",         // bad time
		"drop@-5:l0",          // negative time
		"drop@100:l0:x",       // bad param
		"drop@100:l0:1:extra", // too many fields
		"random:0",            // non-positive random count
		"random:x",            // bad random count
		"drop@NaN:l1",         // not a number of nanoseconds
		"drop@Inf:l1",         // infinite time
		"drop@1e300:l1",       // past clock.Time's range
		"drop@5:l1:-3",        // negative count
		"corrupt@5:l1:0",      // zero count
		"dup@5:l1:0",          // zero count
		"stall@5:w:-1",        // negative cycle count
	}
	for _, spec := range bad {
		_, err := ParseSpec(spec, 1)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", spec)
		} else if strings.Contains(err.Error(), "\n") {
			t.Errorf("ParseSpec(%q): error %q spans lines", spec, err)
		}
	}
	// Ops whose param is a signed picosecond delta keep negative params.
	if _, err := ParseSpec("phase@5:clk:-250", 1); err != nil {
		t.Errorf("negative phase step rejected: %v", err)
	}
}

// FuzzParseSpec: whatever the input, ParseSpec must not panic, and a plan
// it accepts must schedule something, never before time zero.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"random:6", "random:3", // the aelite-sim golden rows' -faults values
		"drop@9000:l0.:2;corrupt@12000:l3.;dup@15000:l5.;delay@18000:l1.R1.0:2500;random:3",
		"drop@NaN:l1", "drop@Inf:l1", "drop@1e300:l1", "drop@5:l1:-3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec, 1)
		if err != nil {
			return
		}
		if len(p.Events) == 0 {
			t.Fatalf("ParseSpec(%q) accepted an empty plan", spec)
		}
		for _, ev := range p.Events {
			if ev.At < 0 {
				t.Fatalf("ParseSpec(%q) scheduled %v before time zero", spec, ev)
			}
		}
	})
}

// hookedWire builds an engine with one intercepted wire and a driver that
// drives the sequence seq (invalid phits for zero words) one value per
// cycle, returning the committed phits observed after each cycle.
func runHook(t *testing.T, arm func(h *LinkHook), seq []phit.Word) []phit.Phit {
	t.Helper()
	eng := sim.New()
	clk := clock.New("c", 1000, 0)
	w := sim.NewWire[phit.Phit]("w")
	eng.AddWire(w)
	h := NewLinkHook("w")
	h.Attach(w)
	arm(h)
	var out []phit.Phit
	d := &driver{clk: clk, out: w, seq: seq}
	eng.Add(d)
	eng.Add(&observer{clk: clk, wire: w, sink: &out})
	eng.Run(clock.Time(len(seq)+2) * 1000)
	return out
}

// driver drives seq values then idles; observer, on the same clock, samples
// the wire with register semantics (it sees each commit one cycle later).
type driver struct {
	clk *clock.Clock
	out *sim.Wire[phit.Phit]
	seq []phit.Word
	i   int
}

func (d *driver) Name() string        { return "drv" }
func (d *driver) Clock() *clock.Clock { return d.clk }
func (d *driver) Update(now clock.Time) {
	v := phit.IdlePhit
	if d.i < len(d.seq) && d.seq[d.i] != 0 {
		v = phit.Phit{Valid: true, Kind: phit.Payload, Data: d.seq[d.i]}
	}
	d.i++
	d.out.Drive(v)
}

type observer struct {
	clk  *clock.Clock
	wire *sim.Wire[phit.Phit]
	sink *[]phit.Phit
}

func (o *observer) Name() string          { return "obs" }
func (o *observer) Clock() *clock.Clock   { return o.clk }
func (o *observer) Update(now clock.Time) { *o.sink = append(*o.sink, o.wire.Read()) }

func TestLinkHookDrop(t *testing.T) {
	got := runHook(t, func(h *LinkHook) { h.arm(OpDrop, 2) }, []phit.Word{10, 20, 30})
	var valid []phit.Word
	for _, p := range got {
		if p.Valid {
			valid = append(valid, p.Data)
		}
	}
	if len(valid) != 1 || valid[0] != 30 {
		t.Errorf("surviving phits %v, want only 30 after dropping 2", valid)
	}
}

func TestLinkHookCorrupt(t *testing.T) {
	got := runHook(t, func(h *LinkHook) { h.arm(OpCorrupt, 1) }, []phit.Word{10, 20})
	var valid []phit.Word
	for _, p := range got {
		if p.Valid {
			valid = append(valid, p.Data)
		}
	}
	if len(valid) < 2 || valid[0] != 10^CorruptMask || valid[1] != 20 {
		t.Errorf("phits %v, want first corrupted to %d then 20 untouched", valid, 10^CorruptMask)
	}
}

func TestLinkHookDuplicate(t *testing.T) {
	// 40 is followed by an idle cycle; the duplicate replays 40 into it.
	got := runHook(t, func(h *LinkHook) { h.arm(OpDuplicate, 1) }, []phit.Word{40, 0, 50})
	var valid []phit.Word
	for _, p := range got {
		if p.Valid {
			valid = append(valid, p.Data)
		}
	}
	if len(valid) < 3 || valid[0] != 40 || valid[1] != 40 || valid[2] != 50 {
		t.Errorf("phits %v, want 40 replayed into the following cycle before 50", valid)
	}
}

// dummyTargets builds a target set backed by plain wires and counters.
func dummyTargets() (Targets, *int) {
	stalls := 0
	return Targets{
		Links: []LinkTarget{
			{Name: "link.a", Wire: sim.NewWire[phit.Phit]("a")},
			{Name: "link.ab", Wire: sim.NewWire[phit.Phit]("ab")},
		},
		Clocks: []*clock.Clock{clock.New("tile0", 2000, 0)},
		Delays: []DelayTarget{{Name: "fifo.x", Stretch: func(clock.Duration) {}}},
		Stalls: []StallTarget{{Name: "wrap.y", Stall: func(int) { stalls++ }}},
	}, &stalls
}

func TestResolveExactBeatsSubstring(t *testing.T) {
	tg, _ := dummyTargets()
	// "link.a" is an exact name AND a substring of "link.ab": exact wins.
	lt, err := resolve("link.a", tg.Links, func(l LinkTarget) string { return l.Name })
	if err != nil {
		t.Fatal(err)
	}
	if lt.Name != "link.a" {
		t.Errorf("resolved %q, want the exact match link.a", lt.Name)
	}
	if _, err := resolve("link", tg.Links, func(l LinkTarget) string { return l.Name }); err == nil {
		t.Error("ambiguous pattern resolved without error")
	} else if !strings.Contains(err.Error(), "link.a") || !strings.Contains(err.Error(), "link.ab") {
		t.Errorf("ambiguity error %v does not list the candidates", err)
	}
	if _, err := resolve("nope", tg.Links, func(l LinkTarget) string { return l.Name }); err == nil {
		t.Error("unmatched pattern resolved without error")
	}
}

func TestArmUnknownTargetFails(t *testing.T) {
	tg, _ := dummyTargets()
	p, err := ParseSpec("drop@100:nosuchlink", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(p, NewCollector())
	if err := c.Arm(sim.New(), tg); err == nil {
		t.Error("Arm accepted an event with no matching target")
	}
}

// TestRandomExpansionDeterministic: the same seed always expands random:N
// into the same schedule; a different seed gives a different one.
func TestRandomExpansionDeterministic(t *testing.T) {
	expand := func(seed int64) string {
		tg, _ := dummyTargets()
		p, err := ParseSpec("random:6", seed)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCampaign(p, NewCollector())
		if err := c.Arm(sim.New(), tg); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range c.Injected() {
			fmt.Fprintf(&b, "%s->%s\n", f.Event, f.Target)
		}
		return b.String()
	}
	a, b := expand(42), expand(42)
	if a != b {
		t.Errorf("same seed, different schedules:\n%s\nvs\n%s", a, b)
	}
	if c := expand(43); c == a {
		t.Error("different seeds produced the identical schedule")
	}
}

// TestCampaignStallAndSummary: an armed stall event fires at its exact
// instant, and the summary reports detection latency against the collector.
func TestCampaignStallAndSummary(t *testing.T) {
	tg, stalls := dummyTargets()
	p, err := ParseSpec("stall@3:wrap.y:17", 1)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	c := NewCampaign(p, col)
	eng := sim.New()
	if err := c.Arm(eng, tg); err != nil {
		t.Fatal(err)
	}
	// Needs at least one clocked component for the engine to visit instants.
	eng.Add(&driver{clk: clock.New("c", 1000, 0), out: sim.NewWire[phit.Phit]("x")})
	col.Report(Violation{Kind: Liveness, Component: "check", Time: 5000, Slot: NoSlot})
	eng.Run(10000)
	if *stalls != 1 {
		t.Errorf("stall target invoked %d times, want 1", *stalls)
	}
	s := c.Summarize()
	if len(s.Faults) != 1 || s.Faults[0].Target != "wrap.y" {
		t.Fatalf("summary faults %v", s.Faults)
	}
	if want := clock.Duration(5000 - 3*clock.Nanosecond); s.Latency[0] != want {
		t.Errorf("detection latency %d, want %d", s.Latency[0], want)
	}
	var buf strings.Builder
	s.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "1 faults injected, 1 violations detected") ||
		!strings.Contains(out, "wrap.y") || !strings.Contains(out, "liveness") {
		t.Errorf("summary rendering missing expected fields:\n%s", out)
	}
}

// TestSummaryNoDetection: a fault with no violation at or after it renders
// "-" for its detection latency.
func TestSummaryNoDetection(t *testing.T) {
	tg, _ := dummyTargets()
	p, _ := ParseSpec("drop@100:link.ab", 1)
	c := NewCampaign(p, NewCollector())
	if err := c.Arm(sim.New(), tg); err != nil {
		t.Fatal(err)
	}
	s := c.Summarize()
	if s.Latency[0] != NoDetection {
		t.Errorf("latency %d, want NoDetection", s.Latency[0])
	}
	var buf strings.Builder
	s.Write(&buf)
	if !strings.Contains(buf.String(), " -\n") {
		t.Errorf("undetected fault not rendered as '-':\n%s", buf.String())
	}
}
