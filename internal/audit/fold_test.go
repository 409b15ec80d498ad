package audit

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// epochCatcher is a Folder that keeps the first epoch stride the bus
// hands it, as replay hands it to the auditor.
type epochCatcher struct {
	ep           *trace.Epoch
	first, count int64
}

func (c *epochCatcher) Event(trace.Event) {}

func (c *epochCatcher) Fold(ep *trace.Epoch, first, count int64) {
	if c.ep == nil {
		c.ep = &trace.Epoch{Events: slices.Clone(ep.Events), DSeq: slices.Clone(ep.DSeq), Len: ep.Len}
		c.first, c.count = first, count
	}
}

// recordedEpoch runs the comparison workload (uniform 4x4/24, seed 2009)
// on the aelite fabric until replay hands its bus a stride of epoch
// copies, and returns the first such stride with the network's contract
// set and component names.
func recordedEpoch(t testing.TB) (*trace.Epoch, int64, int64, analysis.ContractSet, []string) {
	t.Helper()
	scfg := scenario.Default(scenario.Uniform, 4, 4, 24, 2009)
	s, err := scenario.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.Build(s.Mesh(), s.UseCase, core.Config{FreqMHz: scfg.FreqMHz,
		WordBytes: scfg.WordBytes, TableSize: scfg.TableSize, Mode: core.Synchronous})
	if err != nil {
		t.Fatal(err)
	}
	bus := trace.NewBus()
	c := &epochCatcher{}
	bus.Attach(c)
	n.AttachTracer(bus)
	n.Run(4000, 40000)
	if c.ep == nil {
		t.Fatal("replay handed the bus no epoch")
	}
	return c.ep, c.first, c.count, n.Contracts(), bus.Components()
}

// foldHeaderBytes and foldEventBytes size the encoding of a fold fuzz
// input: a header (flags, first copy, copy count, epoch length in ps,
// number of epoch events) and then events, the epoch's first and a tail
// after them.
const (
	foldHeaderBytes = 1 + 1 + 1 + 4 + 2
	foldEventBytes  = 1 + 4 + 4 + 4 + 2 + 2 + 2 + 2 + 2
)

// appendFoldEvent encodes one event and its per-copy sequence advance:
// kind, time, injection age (0: no Ref), sequence number, advance, slot,
// argument, connection and component.
func appendFoldEvent(b []byte, ev trace.Event, dseq int64) []byte {
	var age uint32
	if ev.Ref != 0 {
		age = uint32(ev.Time - ev.Ref)
	}
	b = append(b, byte(ev.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(ev.Time))
	b = binary.LittleEndian.AppendUint32(b, age)
	b = binary.LittleEndian.AppendUint32(b, uint32(ev.Seq))
	for _, v := range []int64{dseq, int64(ev.Slot), ev.Arg, int64(ev.Conn), int64(ev.Comp)} {
		b = binary.LittleEndian.AppendUint16(b, uint16(v))
	}
	return b
}

func decodeFoldEvent(b []byte) (trace.Event, int64) {
	u32 := func(at int) uint32 { return binary.LittleEndian.Uint32(b[at:]) }
	i16 := func(at int) int16 { return int16(binary.LittleEndian.Uint16(b[at:])) }
	ev := trace.Event{
		Kind: trace.Kind(b[0]), Time: clock.Time(u32(1)), Seq: int64(u32(9)),
		Slot: int32(i16(15)), Arg: int64(i16(17)), Conn: phit.ConnID(i16(19)), Comp: trace.CompID(i16(21)),
	}
	if age := u32(5); age != 0 {
		ev.Ref = ev.Time - clock.Time(age)
	}
	return ev, int64(i16(13))
}

// foldInput encodes a fuzz input: flags, copies first..first+count-1 of
// an epoch of length n, and a tail.
func foldInput(flags, first, count byte, n clock.Duration, epoch []trace.Event, dseq []int64, tail []trace.Event) []byte {
	b := []byte{flags, first, count}
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(epoch)))
	for i, ev := range epoch {
		b = appendFoldEvent(b, ev, dseq[i])
	}
	for _, ev := range tail {
		b = appendFoldEvent(b, ev, 0)
	}
	return b
}

// foldRun is one auditor of the differential fold test and its
// collector.
type foldRun struct {
	a   *Auditor
	col *fault.Collector
}

func newFoldRun(set analysis.ContractSet, comps []string, opts Options) foldRun {
	bus := trace.NewBus()
	for _, name := range comps {
		bus.Component(name)
	}
	col := fault.NewCollector()
	return foldRun{Attach(setSource{set}, bus, col, opts), col}
}

// verdicts renders everything the auditor tells: its summary, totals and
// the reports its collector received.
func (r foldRun) verdicts() (summary []byte, total int64, byKind map[fault.Kind]int64, reports []fault.Violation) {
	var b bytes.Buffer
	r.a.WriteSummary(&b)
	return b.Bytes(), r.a.Violations(), r.a.ByKind(), r.col.Violations()
}

// FuzzAuditorFold holds Auditor.Fold to the Folder contract. Two auditors
// of one contract set first receive copies 0..first-1 of an epoch event
// by event, as replay's recording reached the auditor live; then one
// folds copies first..first+count-1 and the other receives every event
// of them, ep.At(i, e), in order; then both receive a tail of events
// shifted into the last copy's frame, which reads what the fold left.
// Their summaries, totals, per-kind counts and collected reports must be
// identical.
//
// Flags bit 0 picks asynchronous clocking and bit 1 tolerated
// oversubscription on the hand-built contract set of FuzzAuditorEvents;
// bit 2 picks the contract set and components of the comparison workload
// instead. The corpus holds an epoch stride replay handed the auditor on
// that workload, and hand-built epochs that a fold must not cut short: an
// epoch not a multiple of a router table revolution, Ejects whose
// sequence advance is not the connection's per-epoch count, a router
// forward in a foreign slot, a Send past its wait budget, an Inject
// stream that drains the token bucket, a late contention only the last
// uses a fold moved on can see, and calls of 0, 1 and 2 copies.
func FuzzAuditorFold(f *testing.F) {
	ep, first, count, recSet, recComps := recordedEpoch(f)
	f.Add(foldInput(4, byte(min(first, 3)), byte(min(count, 7)), ep.Len, ep.Events, ep.DSeq, nil))

	const fc = 6000 // flit cycle of the hand-built set (500 MHz), ps
	const rev = 8 * fc
	fwd := func(t clock.Time, conn phit.ConnID) trace.Event {
		return trace.Event{Kind: trace.RouterForward, Time: t, Conn: conn, Comp: 2, Slot: trace.NoSlot}
	}
	eject := func(t clock.Time, seq int64, lat clock.Time) trace.Event {
		return trace.Event{Kind: trace.Eject, Time: t, Ref: t - lat, Seq: seq, Conn: 1, Comp: 1, Slot: trace.NoSlot}
	}
	inject := func(t clock.Time, seq int64) trace.Event {
		return trace.Event{Kind: trace.Inject, Time: t, Seq: seq, Conn: 1, Comp: 0, Slot: trace.NoSlot}
	}
	link := func(t clock.Time, conn phit.ConnID) trace.Event {
		return trace.Event{Kind: trace.LinkForward, Time: t, Conn: conn, Comp: 3, Slot: trace.NoSlot}
	}
	// A clean copy: conn 1 injects one word, starts a flit in its slot 0
	// of ni0, crosses r0 in its slot 1 of output 0 and is delivered.
	clean := []trace.Event{
		inject(1000, 0),
		{Kind: trace.SlotStart, Time: fc, Conn: 1, Comp: 0, Slot: 0, Arg: 1},
		fwd(fc, 1), link(2*fc, 1), eject(3*fc, 0, 3*fc-1000),
	}
	cleanSeq := []int64{1, 0, 0, 0, 1}
	for _, n := range []byte{0, 1, 2, 3, 6} {
		f.Add(foldInput(0, 1, n, rev, clean, cleanSeq, nil))
	}
	// r0 output 0 gives conn 1 slots 1 and 4: an epoch of 3 flit cycles
	// walks its forward through slots 6, 1, 4, 7, so copies 1 and 2 are
	// clean and copy 3 is not.
	f.Add(foldInput(0, 1, 5, 3*fc, []trace.Event{fwd(6*fc, 1)}, []int64{0}, nil))
	// Two Ejects of conn 1 a copy, advancing by 1 and 2: copy 2 is in
	// order, copy 3 is not.
	f.Add(foldInput(0, 1, 5, rev, []trace.Event{eject(fc, 5, 50000), eject(2*fc, 4, 50000)}, []int64{1, 2}, nil))
	// Conn 3 forwarded in slot 1 of r0's output 0, which conn 1 owns.
	f.Add(foldInput(0, 1, 6, rev, []trace.Event{fwd(fc, 3)}, []int64{0}, nil))
	// Conn 1 delivers every copy past its bound.
	f.Add(foldInput(0, 1, 6, rev, []trace.Event{eject(fc, 0, 200000)}, []int64{1}, nil))
	// A Send that waited past conn 1's budget, in a copy with clean traffic.
	send := trace.Event{Kind: trace.Send, Time: 2 * fc, Ref: 2*fc - 100000, Seq: 0, Conn: 1, Comp: 0, Slot: trace.NoSlot}
	f.Add(foldInput(0, 1, 6, rev, append(slices.Clone(clean), send), append(slices.Clone(cleanSeq), 1), nil))
	f.Add(foldInput(2, 1, 6, rev, append(slices.Clone(clean), send), append(slices.Clone(cleanSeq), 1), nil))
	// Forty words a copy at a guarantee of twelve: the bucket drains.
	var burst []trace.Event
	for i := range 40 {
		burst = append(burst, inject(clock.Time(i)*1000, int64(i)))
	}
	f.Add(foldInput(0, 1, 7, rev, burst, make([]int64, len(burst)), nil))
	// Conn 2 takes link stage l0 a nanosecond after conn 1's last copy did.
	f.Add(foldInput(0, 1, 6, rev, clean, cleanSeq, []trace.Event{link(2*fc+1000, 2)}))
	f.Add(foldInput(1, 1, 6, rev, clean, cleanSeq, []trace.Event{link(2*fc+1000, 2)}))

	hand := []string{"ni0", "ni1", "r0", "l0"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < foldHeaderBytes {
			return
		}
		flags, first, count := data[0], int64(data[1]%4), int64(data[2]%8)
		n := clock.Duration(binary.LittleEndian.Uint32(data[3:]))
		nEpoch := int(binary.LittleEndian.Uint16(data[7:]))
		data = data[foldHeaderBytes:]
		ep := &trace.Epoch{Len: n}
		tail := &trace.Epoch{Len: n}
		for i := 0; len(data) >= foldEventBytes && i < 2000; i++ {
			ev, dseq := decodeFoldEvent(data)
			data = data[foldEventBytes:]
			if i < nEpoch {
				ep.Events, ep.DSeq = append(ep.Events, ev), append(ep.DSeq, dseq)
			} else {
				tail.Events, tail.DSeq = append(tail.Events, ev), append(tail.DSeq, 0)
			}
		}
		if len(ep.Events) == 0 {
			return
		}
		set, comps := fuzzContracts(flags&1 != 0), hand
		if flags&4 != 0 {
			set, comps = recSet, recComps
		}
		opts := Options{TolerateOversubscription: flags&2 != 0}
		folded, plain := newFoldRun(set, comps, opts), newFoldRun(set, comps, opts)
		deliver := func(a *Auditor, ep *trace.Epoch, e int64) {
			for i := range ep.Events {
				a.Event(ep.At(i, e))
			}
		}
		for e := range first {
			deliver(folded.a, ep, e)
			deliver(plain.a, ep, e)
		}
		folded.a.Fold(ep, first, count)
		for e := first; e < first+count; e++ {
			deliver(plain.a, ep, e)
		}
		deliver(folded.a, tail, first+count-1)
		deliver(plain.a, tail, first+count-1)

		fs, ft, fk, fr := folded.verdicts()
		ps, pt, pk, pr := plain.verdicts()
		if !bytes.Equal(fs, ps) {
			t.Errorf("summaries differ:\n-- folded --\n%s-- delivered --\n%s", fs, ps)
		}
		if ft != pt || !reflect.DeepEqual(fk, pk) {
			t.Errorf("folded: %d violations %v; delivered: %d %v", ft, fk, pt, pk)
		}
		if !reflect.DeepEqual(fr, pr) {
			t.Errorf("reports differ:\n-- folded --\n%v\n-- delivered --\n%v", fr, pr)
		}
	})
}
