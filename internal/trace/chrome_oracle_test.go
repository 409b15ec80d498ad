package trace_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/phit"
	"repro/internal/trace"
)

// oldChromeWriteTo is Chrome.WriteTo as it was before it rendered through one
// reused buffer — two or three Sprintf/Fprintf calls and two temporary strings
// per event — over the sink's state passed in. It is the oracle of
// TestChromeMatchesSprintfRenderer and must not be tidied.
func oldChromeWriteTo(w io.Writer, comps []string, events []trace.Event, flitCycle int64) (int64, error) {
	cw := &oldCountWriter{w: bufio.NewWriter(w)}
	cw.printf("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	sep := func() {
		if !first {
			cw.printf(",\n")
		} else {
			cw.printf("\n")
			first = false
		}
	}
	for id, name := range comps {
		sep()
		cw.printf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%q}}`, id, name)
	}
	for _, ev := range events {
		sep()
		switch ev.Kind {
		case trace.Occupancy:
			cw.printf(`{"ph":"C","pid":0,"tid":%d,"ts":%s,"name":"occupancy","args":{"words":%d}}`,
				ev.Comp, oldTsString(int64(ev.Time)), ev.Arg)
		case trace.SlotStart, trace.LinkForward, trace.WrapperFire:
			if flitCycle > 0 {
				cw.printf(`{"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"name":%q,"args":{%s}}`,
					ev.Comp, oldTsString(int64(ev.Time)), oldTsString(flitCycle), oldEventName(ev), oldEventArgs(ev))
			} else {
				cw.printf(`{"ph":"i","pid":0,"tid":%d,"ts":%s,"s":"t","name":%q,"args":{%s}}`,
					ev.Comp, oldTsString(int64(ev.Time)), oldEventName(ev), oldEventArgs(ev))
			}
		default:
			cw.printf(`{"ph":"i","pid":0,"tid":%d,"ts":%s,"s":"t","name":%q,"args":{%s}}`,
				ev.Comp, oldTsString(int64(ev.Time)), oldEventName(ev), oldEventArgs(ev))
		}
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	cw.printf("\n]}\n")
	if cw.err == nil {
		cw.err = cw.w.(*bufio.Writer).Flush()
	}
	return cw.n, cw.err
}

func oldTsString(ps int64) string {
	if ps < 0 {
		return fmt.Sprintf("-%d.%06d", -ps/1e6, (-ps)%1e6)
	}
	return fmt.Sprintf("%d.%06d", ps/1e6, ps%1e6)
}

func oldEventName(ev trace.Event) string {
	if ev.Conn != 0 {
		return fmt.Sprintf("%s c%d", ev.Kind, ev.Conn)
	}
	return ev.Kind.String()
}

func oldEventArgs(ev trace.Event) string {
	s := fmt.Sprintf(`"conn":%d`, ev.Conn)
	switch ev.Kind {
	case trace.Send, trace.Eject:
		s += fmt.Sprintf(`,"seq":%d,"lat_ps":%d`, ev.Seq, int64(ev.Time-ev.Ref))
	case trace.SlotStart:
		s += fmt.Sprintf(`,"slot":%d,"words":%d`, ev.Slot, ev.Arg)
	case trace.RouterForward:
		s += fmt.Sprintf(`,"seq":%d,"port":%d`, ev.Seq, ev.Arg)
	case trace.Credit:
		s += fmt.Sprintf(`,"words":%d`, ev.Arg)
	case trace.WrapperFire:
		s += fmt.Sprintf(`,"stalled":%d`, ev.Arg)
	case trace.Inject:
		s += fmt.Sprintf(`,"seq":%d`, ev.Seq)
	case trace.CRCDrop:
		s += fmt.Sprintf(`,"reason":%d,"seq":%d`, ev.Arg, ev.Seq)
	case trace.Retransmit:
		s += fmt.Sprintf(`,"seq":%d,"round":%d`, ev.Seq, ev.Arg)
	case trace.AckAdvance:
		s += fmt.Sprintf(`,"base":%d,"words":%d`, ev.Seq, ev.Arg)
	case trace.Recovered:
		s += fmt.Sprintf(`,"stall_ps":%d`, ev.Arg)
	case trace.Quarantine:
		s += fmt.Sprintf(`,"unacked":%d`, ev.Arg)
	}
	return s
}

type oldCountWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *oldCountWriter) printf(format string, args ...any) {
	if c.err != nil {
		return
	}
	n, err := fmt.Fprintf(c.w, format, args...)
	c.n += int64(n)
	c.err = err
}

type eventLog struct{ evs []trace.Event }

func (l *eventLog) Event(ev trace.Event) { l.evs = append(l.evs, ev) }

// TestChromeMatchesSprintfRenderer records a 20 µs window of the Section VII
// use case, completes it with the kinds a fault-free synchronous network does
// not emit (link stages, wrappers, the reliability layer) and with the awkward
// values — instants before zero, negative arguments, no connection, a kind
// past the last, a component name that needs escaping — and renders it with
// the old renderer and the new: same bytes, same count, with spans and
// without.
func TestChromeMatchesSprintfRenderer(t *testing.T) {
	n, _, _, err := experiments.BuildSec7(experiments.Sec7Seed, 500, core.Synchronous, false)
	if err != nil {
		t.Fatal(err)
	}
	bus := trace.NewBus()
	chrome := trace.NewChrome(bus)
	log := &eventLog{}
	bus.Attach(log)
	n.AttachTracer(bus)
	n.Run(2000, 20000)

	odd := bus.Emitter("odd \"name\"\\\n\té").Comp()
	last := trace.Reroute
	for k := trace.Inject; k <= last+1; k++ {
		for _, ev := range []trace.Event{
			{Kind: k, Comp: odd, Time: 22e6 + 1, Ref: 21e6, Conn: 17, Seq: 5, Arg: 3, Slot: 9},
			{Kind: k, Comp: odd, Time: -1234567, Ref: 99, Conn: 0, Seq: -5, Arg: -3, Slot: trace.NoSlot},
			{Kind: k, Comp: -4, Time: 1<<62 + 999999, Ref: -(1 << 62), Conn: -17, Seq: 1<<63 - 1, Arg: -1 << 63, Slot: -1 << 31},
		} {
			bus.Emit(ev)
		}
	}
	bus.Emit(trace.Event{Kind: 200, Comp: odd, Conn: 3})
	seen := map[trace.Kind]int{}
	for _, ev := range log.evs {
		seen[ev.Kind]++
	}
	for k := trace.Inject; k <= last; k++ {
		if seen[k] == 0 {
			t.Errorf("no %v event in the stream", k)
		}
	}
	if chrome.Len() != len(log.evs) || len(log.evs) < 10000 {
		t.Fatalf("sink holds %d events, the log %d", chrome.Len(), len(log.evs))
	}

	for _, flitCycle := range []int64{0, phit.FlitWords * int64(n.BaseClock().Period)} {
		chrome.SetFlitCycle(flitCycle)
		var got, want bytes.Buffer
		gotN, err := chrome.WriteTo(&got)
		if err != nil {
			t.Fatal(err)
		}
		wantN, err := oldChromeWriteTo(&want, bus.Components(), log.evs, flitCycle)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != wantN || gotN != int64(got.Len()) {
			t.Errorf("flit cycle %d: reported %d bytes, wrote %d, old renderer %d", flitCycle, gotN, got.Len(), wantN)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			lo, hiG, hiW := max(0, i-80), min(len(g), i+80), min(len(w), i+80)
			t.Fatalf("flit cycle %d: output differs at byte %d:\n new: %q\n old: %q", flitCycle, i, g[lo:hiG], w[lo:hiW])
		}
	}
}

// failAfter accepts a number of bytes, then fails.
type failAfter struct{ left int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, io.ErrShortWrite
	}
	f.left -= len(p)
	return len(p), nil
}

// TestChromeWriteToReportsWriterError: a failing writer stops the rendering
// and its error and the bytes it took come back.
func TestChromeWriteToReportsWriterError(t *testing.T) {
	bus := trace.NewBus()
	chrome := trace.NewChrome(bus)
	e := bus.Emitter("c")
	for i := 0; i < 5000; i++ { // several buffers' worth
		e.Emit(trace.Event{Kind: trace.Inject, Conn: 1, Seq: int64(i), Time: 1000})
	}
	n, err := chrome.WriteTo(&failAfter{left: 100000})
	if err != io.ErrShortWrite || n != 100000 {
		t.Fatalf("WriteTo = %d, %v; want 100000, %v", n, err, io.ErrShortWrite)
	}
}
