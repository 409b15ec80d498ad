package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/phit"
)

func TestKindString(t *testing.T) {
	if Inject.String() != "inject" || Eject.String() != "eject" {
		t.Errorf("kind names: %v %v", Inject, Eject)
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestBusInterning(t *testing.T) {
	b := NewBus()
	a := b.Component("r0")
	if b.Component("r0") != a {
		t.Error("re-interning changed the id")
	}
	c := b.Component("r1")
	if c == a {
		t.Error("distinct names share an id")
	}
	if b.ComponentName(a) != "r0" || b.ComponentName(c) != "r1" {
		t.Error("name round-trip broken")
	}
	if got := b.ComponentName(CompID(99)); got != "comp(99)" {
		t.Errorf("out-of-range name = %q", got)
	}
	names := b.Components()
	if len(names) != 2 || names[0] != "r0" || names[1] != "r1" {
		t.Errorf("Components = %v", names)
	}
}

func TestNilBusEmitter(t *testing.T) {
	var b *Bus
	if b.Emitter("x") != nil {
		t.Error("nil bus produced a non-nil emitter")
	}
}

type sliceSink struct{ evs []Event }

func (s *sliceSink) Event(ev Event) { s.evs = append(s.evs, ev) }

func TestEmitterStampsComp(t *testing.T) {
	b := NewBus()
	s := &sliceSink{}
	b.Attach(s)
	em := b.Emitter("ni0")
	em.Emit(Event{Time: 10, Kind: Inject, Conn: 3, Slot: NoSlot})
	if len(s.evs) != 1 || s.evs[0].Comp != em.Comp() {
		t.Fatalf("events = %+v", s.evs)
	}
	if b.ComponentName(s.evs[0].Comp) != "ni0" {
		t.Error("component stamp wrong")
	}
}

func TestTsString(t *testing.T) {
	cases := []struct {
		ps   int64
		want string
	}{
		{0, "0.000000"},
		{1, "0.000001"},
		{1_000_000, "1.000000"},
		{1_234_567, "1.234567"},
		{-1, "-0.000001"},
	}
	for _, c := range cases {
		if got := string(appendTs(nil, c.ps)); got != c.want {
			t.Errorf("appendTs(%d) = %q, want %q", c.ps, got, c.want)
		}
	}
}

// chromeDoc is the subset of the Chrome trace-event format the tests
// decode.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Ph   string          `json:"ph"`
		Tid  int             `json:"tid"`
		Name string          `json:"name"`
		Ts   float64         `json:"ts"`
		Dur  float64         `json:"dur"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

func TestChromeOutput(t *testing.T) {
	b := NewBus()
	c := NewChrome(b)
	c.SetFlitCycle(6000)
	em := b.Emitter("ni.00")
	em.Emit(Event{Time: 1000, Kind: Inject, Conn: 1, Seq: 0, Slot: NoSlot})
	em.Emit(Event{Time: 4000, Kind: SlotStart, Conn: 1, Slot: 2, Arg: 2})
	em.Emit(Event{Time: 5000, Kind: Occupancy, Arg: 3, Slot: NoSlot})
	em.Emit(Event{Time: 9000, Ref: 1000, Kind: Eject, Conn: 1, Seq: 0, Slot: NoSlot})
	if c.Len() != 4 {
		t.Fatalf("buffered = %d", c.Len())
	}

	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo count %d != bytes %d", n, buf.Len())
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 1 thread_name metadata + 4 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("trace events = %d", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Name != "thread_name" {
		t.Errorf("first event not metadata: %+v", doc.TraceEvents[0])
	}
	byName := map[string]string{}
	for _, ev := range doc.TraceEvents[1:] {
		byName[ev.Name] = ev.Ph
	}
	if byName["inject c1"] != "i" || byName["slot c1"] != "X" || byName["occupancy"] != "C" || byName["eject c1"] != "i" {
		t.Errorf("phase mapping = %v", byName)
	}

	// Same events again render byte-identically.
	var buf2 bytes.Buffer
	if _, err := c.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeated WriteTo not byte-identical")
	}
}

func TestChromeInstantWithoutFlitCycle(t *testing.T) {
	b := NewBus()
	c := NewChrome(b)
	b.Emitter("l0").Emit(Event{Time: 100, Kind: LinkForward, Conn: 2, Slot: NoSlot})
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"i"`) || strings.Contains(buf.String(), `"ph":"X"`) {
		t.Errorf("flit event without SetFlitCycle rendered as span:\n%s", buf.String())
	}
}

func TestMetricsAggregation(t *testing.T) {
	b := NewBus()
	m := NewMetrics(b)
	ni := b.Emitter("ni.00")
	rt := b.Emitter("r.00")
	// Two words of connection 1: injected at 0/1000, ejected at 8000/9000.
	ni.Emit(Event{Time: 0, Kind: Inject, Conn: 1, Seq: 0, Slot: NoSlot})
	ni.Emit(Event{Time: 1000, Kind: Inject, Conn: 1, Seq: 1, Slot: NoSlot})
	ni.Emit(Event{Time: 3000, Kind: SlotStart, Conn: 1, Slot: 0, Arg: 2})
	rt.Emit(Event{Time: 6000, Kind: RouterForward, Conn: 1, Seq: 0, Arg: 2, Slot: NoSlot})
	ni.Emit(Event{Time: 8000, Ref: 0, Kind: Eject, Conn: 1, Seq: 0, Slot: NoSlot})
	ni.Emit(Event{Time: 9000, Ref: 1000, Kind: Eject, Conn: 1, Seq: 1, Slot: NoSlot})
	ni.Emit(Event{Time: 9000, Kind: Blocked, Conn: 2, Slot: 3})
	ni.Emit(Event{Time: 9500, Kind: Occupancy, Arg: 4, Slot: NoSlot})
	ni.Emit(Event{Time: 9600, Kind: Occupancy, Arg: 2, Slot: NoSlot})

	if m.Events() != 9 || m.Count(Inject) != 2 || m.Count(Eject) != 2 {
		t.Fatalf("counts: events=%d inject=%d eject=%d", m.Events(), m.Count(Inject), m.Count(Eject))
	}
	c1 := m.Conn(1)
	if c1 == nil || c1.Injected != 2 || c1.Delivered != 2 {
		t.Fatalf("conn 1 = %+v", c1)
	}
	if c1.Latency.Mean() != 8 { // both words took 8000 ps = 8 ns
		t.Errorf("latency mean = %v ns", c1.Latency.Mean())
	}
	if m.Conn(2).Blocked != 1 {
		t.Error("blocked not counted")
	}
	if m.Conn(phit.None) != nil {
		t.Error("conn 0 aggregated")
	}

	rep := m.Report(10000, 1000) // 10 cycles observed
	if rep.Events != 9 || len(rep.Conns) != 2 || len(rep.Comps) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	niRep := rep.Comps[0]
	if niRep.Component != "ni.00" || niRep.MaxOccupancy != 4 {
		t.Errorf("ni comp report = %+v", niRep)
	}
	// NI busy cycles: one SlotStart = FlitWords.
	if niRep.BusyCycles != int64(phit.FlitWords) {
		t.Errorf("ni busy = %d", niRep.BusyCycles)
	}
	if want := float64(phit.FlitWords) / 10; math.Abs(niRep.Utilisation-want) > 1e-12 {
		t.Errorf("ni utilisation = %v, want %v", niRep.Utilisation, want)
	}
	// Router: one per-flit RouterForward = FlitWords cycles.
	if rep.Comps[1].BusyCycles != int64(phit.FlitWords) {
		t.Errorf("router busy = %d", rep.Comps[1].BusyCycles)
	}

	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(jsonBuf.Bytes(), &round); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	if round.Events != rep.Events || len(round.Conns) != len(rep.Conns) {
		t.Error("JSON round-trip lost data")
	}

	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	// Header + 2 conns + header + 2 comps.
	if len(lines) != 6 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csvBuf.String())
	}
	// Connection 2 delivered nothing: its latency cells must be empty, not 0.
	if !strings.HasPrefix(lines[2], "conn,2,") || !strings.HasSuffix(lines[2], ",,,,") {
		t.Errorf("undelivered conn row = %q", lines[2])
	}
	// Connection 1 has real latency figures.
	if !strings.Contains(lines[1], "8.000") {
		t.Errorf("delivered conn row = %q", lines[1])
	}
}

// TestMetricsReportDegenerateInputsStayJSON force-feeds the aggregates
// the residue of degenerate runs — NaN from an empty span, infinities
// from a zero divisor — and requires the report to still marshal and
// round-trip as valid JSON. encoding/json rejects NaN/Inf outright, so
// before sanitisation one degenerate connection failed the entire
// report write.
func TestMetricsReportDegenerateInputsStayJSON(t *testing.T) {
	b := NewBus()
	m := NewMetrics(b)
	ni := b.Emitter("ni.00")
	ni.Emit(Event{Time: 1000, Ref: 0, Kind: Eject, Conn: 1, Seq: 0, Slot: NoSlot})
	cm := m.Conn(1)
	cm.Latency.Add(math.NaN())
	cm.Latency.Add(math.Inf(1))
	cm.Recovery.Add(math.Inf(-1))

	rep := m.Report(0, 1000)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("degenerate report failed to marshal: %v", err)
	}
	var round Report
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	for _, c := range round.Conns {
		for name, v := range map[string]float64{
			"lat_min": c.LatMinNs, "lat_mean": c.LatMeanNs,
			"lat_p99": c.LatP99Ns, "lat_max": c.LatMaxNs,
			"rec_min": c.RecMinNs, "rec_mean": c.RecMeanNs,
			"rec_p99": c.RecP99Ns, "rec_max": c.RecMaxNs,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("conn %d %s = %v survived sanitisation", c.Conn, name, v)
			}
		}
	}
	// The CSV writer must swallow the same inputs.
	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("degenerate report failed CSV render: %v", err)
	}
}

// TestCSVHostileComponentName round-trips a report whose component name
// contains every character CSV treats as structure. The row must parse
// back to exactly the original name without shifting any column.
func TestCSVHostileComponentName(t *testing.T) {
	hostile := `ni "a,b",x` + "\n" + `y`
	b := NewBus()
	m := NewMetrics(b)
	em := b.Emitter(hostile)
	em.Emit(Event{Time: 1000, Kind: SlotStart, Conn: 1, Slot: 0, Arg: 2})
	rep := m.Report(10000, 1000)

	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	rd := csv.NewReader(&csvBuf)
	rd.FieldsPerRecord = -1 // the two sections have different widths
	rows, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("CSV with hostile name unparseable: %v\n%s", err, csvBuf.String())
	}
	var comp []string
	for _, row := range rows {
		if row[0] == "comp" {
			comp = row
		}
	}
	if comp == nil {
		t.Fatalf("no comp row parsed:\n%s", csvBuf.String())
	}
	if len(comp) != 6 {
		t.Fatalf("hostile name shifted columns: %d cells %q", len(comp), comp)
	}
	if comp[1] != hostile {
		t.Errorf("name round-trip: got %q, want %q", comp[1], hostile)
	}
	if comp[2] != "1" {
		t.Errorf("events cell after hostile name = %q, want 1", comp[2])
	}

	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(jsonBuf.Bytes(), &round); err != nil {
		t.Fatalf("JSON with hostile name invalid: %v", err)
	}
	if round.Comps[0].Component != hostile {
		t.Errorf("JSON name round-trip: got %q", round.Comps[0].Component)
	}
}

func TestMetricsWindowFallback(t *testing.T) {
	b := NewBus()
	m := NewMetrics(b)
	em := b.Emitter("x")
	em.Emit(Event{Time: 2000, Kind: SlotStart, Conn: 1, Slot: 0})
	em.Emit(Event{Time: 8000, Kind: SlotStart, Conn: 1, Slot: 0})
	rep := m.Report(0, 1000)
	if rep.WindowPs != 6000 {
		t.Errorf("window fallback = %d, want 6000 (event span)", rep.WindowPs)
	}
	// Utilisation is clamped to 1 even when flits straddle the window edge.
	if rep.Comps[0].Utilisation > 1 {
		t.Errorf("utilisation = %v, want clamped <= 1", rep.Comps[0].Utilisation)
	}
}
