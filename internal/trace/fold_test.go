package trace

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
)

// logSink records every event it receives, in order.
type logSink struct{ evs []Event }

func (s *logSink) Event(ev Event) { s.evs = append(s.evs, ev) }

// foldEventBytes is the size of one encoded epoch event: kind, a 16-bit
// time offset, an injection age (0: no Ref), a sequence number that also
// picks its per-copy advance, an argument, a connection and a component.
const foldEventBytes = 8

// decodeEpoch turns fuzz bytes into a recorded epoch of at most 600
// events (enough to span several EmitEpochs chunks). Times lie in
// [base, base+65535]; connections run -1..4 and components 0..3, so the
// sinks' dense tables see ids they must ignore and ids they must grow to.
func decodeEpoch(data []byte, base clock.Time) *Epoch {
	ep := &Epoch{}
	for len(data) >= foldEventBytes && len(ep.Events) < 600 {
		b := data[:foldEventBytes]
		data = data[foldEventBytes:]
		ev := Event{
			Kind: Kind(int(b[0]) % kindCount),
			Time: base + clock.Time(b[1])<<8 + clock.Time(b[2]),
			Seq:  int64(b[4] >> 2),
			Arg:  int64(int8(b[5])),
			Conn: phit.ConnID(int(b[6])%6 - 1),
			Comp: CompID(b[7] % 4),
			Slot: NoSlot,
		}
		if b[3] != 0 {
			ev.Ref = ev.Time - clock.Time(b[3])*100
		}
		ep.Events = append(ep.Events, ev)
		ep.DSeq = append(ep.DSeq, int64(b[4]&3))
	}
	return ep
}

// foldRig is one bus with a metrics sink and a sink that does not fold.
type foldRig struct {
	bus *Bus
	m   *Metrics
	log *logSink
}

func newFoldRig() foldRig {
	bus := NewBus()
	for i := 0; i < 4; i++ {
		bus.Component(fmt.Sprintf("c%d", i))
	}
	r := foldRig{bus: bus, m: NewMetrics(bus), log: &logSink{}}
	bus.Attach(r.log)
	return r
}

func (r foldRig) report(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.m.Report(0, 2000).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzMetricsRepeat holds Bus.EmitEpochs to the Folder contract: folding
// count copies of a random recorded epoch, from copy first on, into a
// Metrics sink gives the same Report JSON and the same Events() as
// delivering every shifted event of those copies one by one, and a sink
// that does not fold receives exactly that event stream. pre events of
// the epoch are delivered unshifted first, so the fold also lands on a
// sink that has seen events. Every kind occurs, including Ejects with
// no Ref and Recovered events, which the sink may not fold.
func FuzzMetricsRepeat(f *testing.F) {
	enc := func(evs ...[8]byte) []byte {
		var b []byte
		for _, e := range evs {
			b = append(b, e[:]...)
		}
		return b
	}
	var every []byte
	for k := 0; k < kindCount; k++ {
		every = append(every, enc([8]byte{byte(k), byte(k), byte(3 * k), byte(k % 3), byte(4*k + k%4), byte(k * 7), byte(k + 1), byte(k)})...)
	}
	f.Add(every, uint8(2), uint16(3), uint8(5), uint32(40000))
	steady := enc(
		[8]byte{byte(Inject), 0, 10, 0, 9, 0, 2, 1},
		[8]byte{byte(Send), 0, 40, 1, 9, 0, 2, 1},
		[8]byte{byte(SlotStart), 0, 40, 0, 0, 2, 0, 1},
		[8]byte{byte(RouterForward), 0, 80, 1, 9, 3, 2, 2},
		[8]byte{byte(Eject), 1, 20, 3, 9, 0, 2, 3},
		[8]byte{byte(Credit), 1, 30, 0, 0, 2, 3, 3},
		[8]byte{byte(Occupancy), 1, 30, 0, 0, 4, 0, 2},
		[8]byte{byte(Eject), 1, 60, 2, 13, 0, 1, 3},
	)
	f.Add(steady, uint8(0), uint16(1), uint8(63), uint32(480))
	noRef := append(append([]byte(nil), steady...), enc([8]byte{byte(Eject), 2, 0, 0, 5, 0, 2, 3})...)
	f.Add(noRef, uint8(1), uint16(9), uint8(4), uint32(1000))
	recovered := append(append([]byte(nil), steady...), enc([8]byte{byte(Recovered), 2, 0, 0, 0, 90, 2, 3})...)
	f.Add(recovered, uint8(0), uint16(0), uint8(7), uint32(700))
	var long []byte
	for i := 0; i < 300; i++ {
		long = append(long, steady[8*(i%8):8*(i%8)+8]...)
	}
	f.Add(long, uint8(0), uint16(2), uint8(3), uint32(70000))
	f.Add(steady, uint8(3), uint16(5), uint8(0), uint32(1))

	f.Fuzz(func(t *testing.T, data []byte, pre uint8, first uint16, count uint8, hp uint32) {
		ep := decodeEpoch(data, 1<<20)
		ep.Len = clock.Duration(hp%(1<<20) + 1)
		n := int64(count % 65)
		folded, plain := newFoldRig(), newFoldRig()
		for i := 0; i < int(pre) && i < len(ep.Events); i++ {
			folded.bus.Emit(ep.Events[i])
			plain.bus.Emit(ep.Events[i])
		}
		folded.bus.EmitEpochs(ep, int64(first), n)
		for e := int64(first); e < int64(first)+n; e++ {
			for i := range ep.Events {
				plain.bus.Emit(ep.At(i, e))
			}
		}
		if got, want := folded.m.Events(), plain.m.Events(); got != want {
			t.Fatalf("folded Events() = %d, event by event %d", got, want)
		}
		if got, want := folded.report(t), plain.report(t); !bytes.Equal(got, want) {
			t.Fatalf("folded report differs from the event-by-event one:\n-- folded --\n%s\n-- event by event --\n%s", got, want)
		}
		if len(folded.log.evs) != len(plain.log.evs) {
			t.Fatalf("a sink that does not fold got %d events, want %d", len(folded.log.evs), len(plain.log.evs))
		}
		for i := range plain.log.evs {
			if folded.log.evs[i] != plain.log.evs[i] {
				t.Fatalf("event %d: a sink that does not fold got %+v, want %+v", i, folded.log.evs[i], plain.log.evs[i])
			}
		}
	})
}

// TestEmitEpochsBoundsItsBuffer pins the scratch EmitEpochs builds
// shifted copies in: one chunk, however long the epoch and however many
// copies.
func TestEmitEpochsBoundsItsBuffer(t *testing.T) {
	bus := NewBus()
	log := &logSink{}
	bus.Attach(log)
	ep := &Epoch{Len: 100}
	for i := 0; i < 5*epochChunk+3; i++ {
		ep.Events = append(ep.Events, Event{Time: clock.Time(i), Kind: SlotStart})
		ep.DSeq = append(ep.DSeq, 0)
	}
	bus.EmitEpochs(ep, 1, 3)
	if len(log.evs) != 3*len(ep.Events) || cap(bus.shifted) != epochChunk {
		t.Errorf("delivered %d events through a buffer of capacity %d; want %d through %d",
			len(log.evs), cap(bus.shifted), 3*len(ep.Events), epochChunk)
	}
	bus.SetSilent(true)
	bus.EmitEpochs(ep, 4, 1)
	if len(log.evs) != 3*len(ep.Events) {
		t.Error("a silent bus delivered a folded epoch")
	}
}
