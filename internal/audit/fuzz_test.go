package audit

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/trace"
)

// setSource states a fixed contract set.
type setSource struct{ set analysis.ContractSet }

func (s setSource) Contracts() analysis.ContractSet { return s.set }

// fuzzContracts is a hand-built contract set: three data connections with
// bounds and budgets, two slot tables that also hold reverse channels and
// free slots, and the output link tables of router r0 (port 1 has no
// link) and of r9, which the fuzz bus never interns.
func fuzzContracts(asynchronous bool) analysis.ContractSet {
	return analysis.ContractSet{
		FreqMHz: 500, WordBytes: 4, Asynchronous: asynchronous, PPM: 1000,
		Contracts: []analysis.Contract{
			{Conn: 1, SrcName: "ni0", DstName: "ni1", BoundPs: 120000, WaitBudgetPs: 90000, GuaranteeMBps: 100},
			{Conn: 2, SrcName: "ni0", DstName: "ni1", BoundPs: 300000, WaitBudgetPs: 250000, GuaranteeMBps: 20},
			{Conn: 3, SrcName: "ni1", DstName: "ni0", BoundPs: 80000, WaitBudgetPs: 50000, GuaranteeMBps: 400},
		},
		AllocTables: map[string][]phit.ConnID{
			"ni0": {1, 0, 2, 1, 5, 0, 0, 1},
			"ni1": {3, 4, 3, 0, 6, 3, 0, 0},
		},
		RouterTables: map[string][][]phit.ConnID{
			"r0": {{0, 1, 0, 2, 1, 5, 0, 0}, nil, {3, 0, 4, 3, 0, 6, 3, 0}},
			"r9": {{1, 1, 1, 1, 1, 1, 1, 1}},
		},
	}
}

// eventBytes is the size of one encoded event.
const eventBytes = 1 + 4*8 + 3*4

func appendEvent(b []byte, ev trace.Event) []byte {
	b = append(b, byte(ev.Kind))
	for _, v := range []int64{int64(ev.Time), int64(ev.Ref), ev.Seq, ev.Arg} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, v := range []int32{int32(ev.Conn), int32(ev.Comp), ev.Slot} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func decodeEvent(b []byte) trace.Event {
	i64 := func(at int) int64 { return int64(binary.LittleEndian.Uint64(b[at:])) }
	i32 := func(at int) int32 { return int32(binary.LittleEndian.Uint32(b[at:])) }
	return trace.Event{
		Kind: trace.Kind(b[0]),
		Time: clock.Time(i64(1)), Ref: clock.Time(i64(9)), Seq: i64(17), Arg: i64(25),
		Conn: phit.ConnID(i32(33)), Comp: trace.CompID(i32(37)), Slot: i32(41),
	}
}

// FuzzAuditorEvents feeds an auditor holding a hand-built contract set
// any stream of events: the bus can carry anything. The first byte picks
// asynchronous clocking and tolerated oversubscription, and every
// eventBytes after it are one event. The auditor must not panic, must not
// grow a table past the ids the set and the bus have, and its total must
// be the sum of its per-kind counts. The corpus is seeded with windows of
// the events of a small audited run, and with router forwards at a known
// router's outputs, at a port without a link, past its last port and
// from components that are no router or not interned.
func FuzzAuditorEvents(f *testing.F) {
	n, _ := buildNet(f, core.Synchronous)
	bus := trace.NewBus()
	n.AttachTracer(bus)
	rec := &recorder{}
	bus.Attach(rec)
	Attach(n, bus, nil, Options{}) // strict: the recorded run is clean
	n.Run(0, 5000)
	for i, start := range []int{0, len(rec.evs) / 3, len(rec.evs) / 2, len(rec.evs) - 64} {
		seed := []byte{byte(i)}
		for _, ev := range rec.evs[start : start+64] {
			seed = appendEvent(seed, ev)
		}
		f.Add(seed)
	}
	forwards := []byte{0}
	for _, fw := range []struct {
		comp trace.CompID
		port int64
	}{{2, 0}, {2, 2}, {2, 1}, {2, 3}, {2, -1}, {2, 1 << 40}, {0, 0}, {3, 0}, {7, 0}, {-1, 0}} {
		for _, at := range []clock.Time{2000, 6000, 60000, -6000} {
			forwards = appendEvent(forwards, trace.Event{Kind: trace.RouterForward, Time: at, Conn: 3, Comp: fw.comp, Arg: fw.port, Slot: trace.NoSlot})
		}
	}
	f.Add(forwards)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		flags, data := data[0], data[1:]
		bus := trace.NewBus()
		for _, name := range []string{"ni0", "ni1", "r0", "l0"} {
			bus.Component(name)
		}
		a := Attach(setSource{fuzzContracts(flags&1 != 0)}, bus, fault.NewCollector(),
			Options{TolerateOversubscription: flags&2 != 0})
		conns := len(a.conns)
		for ; len(data) >= eventBytes; data = data[eventBytes:] {
			a.Event(decodeEvent(data))
		}
		if len(a.conns) != conns || len(a.chans) != conns {
			t.Errorf("connection tables grew from %d to %d/%d entries", conns, len(a.conns), len(a.chans))
		}
		if len(a.comps) > bus.NumComponents() {
			t.Errorf("component table has %d entries for %d interned components", len(a.comps), bus.NumComponents())
		}
		var sum int64
		for _, c := range a.ByKind() {
			sum += c
		}
		if sum != a.Violations() {
			t.Errorf("%d violations, but the per-kind counts %v sum to %d", a.Violations(), a.ByKind(), sum)
		}
		a.WriteSummary(&bytes.Buffer{})
	})
}
