package trace

import (
	"io"
	"strconv"
)

// A Chrome sink buffers every event and renders the Chrome trace-event
// JSON format (the "JSON Array Format" with a traceEvents wrapper), which
// chrome://tracing and Perfetto load directly.
//
// Mapping:
//
//   - every component becomes a "thread" (tid = interned component id) of
//     one "process" (pid 0), named via thread_name metadata events;
//   - lifecycle events become instant events (ph "i", thread scope) named
//     "<kind> c<conn>";
//   - flit-granular events (SlotStart, LinkForward, WrapperFire) become
//     complete events (ph "X") spanning their flit cycle when the flit
//     cycle duration is known (SetFlitCycle), instant events otherwise;
//   - Occupancy events become counter events (ph "C") so Perfetto draws
//     buffer depth as a track.
//
// Timestamps are microseconds (the format's unit) rendered as a fixed
// six-decimal string from the exact picosecond instant, so output is
// byte-identical across runs of the same seed.
type Chrome struct {
	bus       *Bus
	events    []Event
	flitCycle int64 // ps; 0 renders flit events as instants
}

// NewChrome builds a Chrome sink and attaches it to the bus.
func NewChrome(bus *Bus) *Chrome {
	c := &Chrome{bus: bus}
	bus.Attach(c)
	return c
}

// SetFlitCycle tells the sink the flit cycle duration in picoseconds so
// flit-granular events render as spans of that length.
func (c *Chrome) SetFlitCycle(ps int64) { c.flitCycle = ps }

// Deferred implements Deferrable: the buffer is read only by Len and
// WriteTo, which drain the bus first.
func (c *Chrome) Deferred() bool { return true }

// Event implements Sink.
func (c *Chrome) Event(ev Event) { c.events = append(c.events, ev) }

// Len returns the number of buffered events.
func (c *Chrome) Len() int {
	c.bus.Drain()
	return len(c.events)
}

// chromeFlush is the rendered size past which WriteTo hands its buffer to
// the writer and starts it over.
const chromeFlush = 64 << 10

// appendTs renders a picosecond instant as microseconds with exactly six
// decimals — deterministic, no float formatting involved.
func appendTs(b []byte, ps int64) []byte {
	if ps < 0 {
		b = append(b, '-')
		ps = -ps
	}
	b = strconv.AppendInt(b, ps/1e6, 10)
	b = append(b, '.')
	frac := ps % 1e6
	for div := int64(1e5); div > 0; div /= 10 {
		b = append(b, byte('0'+frac/div%10))
	}
	return b
}

// WriteTo renders the buffered events through one reused buffer. It
// implements io.WriterTo.
func (c *Chrome) WriteTo(w io.Writer) (int64, error) {
	c.bus.Drain()
	var n int64
	buf := make([]byte, 0, chromeFlush+1024)
	flush := func() error {
		m, err := w.Write(buf)
		n += int64(m)
		buf = buf[:0]
		return err
	}
	buf = append(buf, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["...)
	sep := "\n"
	for id, name := range c.bus.comps {
		buf = append(buf, sep...)
		sep = ",\n"
		buf = append(buf, `{"ph":"M","pid":0,"tid":`...)
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, `,"name":"thread_name","args":{"name":`...)
		buf = strconv.AppendQuote(buf, name)
		buf = append(buf, "}}"...)
	}
	for _, ev := range c.events {
		buf = append(buf, sep...)
		sep = ",\n"
		ph := byte('i') // instant; counter for occupancy, span for a flit of known length
		switch ev.Kind {
		case Occupancy:
			ph = 'C'
		case SlotStart, LinkForward, WrapperFire:
			if c.flitCycle > 0 {
				ph = 'X'
			}
		}
		buf = append(buf, `{"ph":"`...)
		buf = append(buf, ph)
		buf = append(buf, `","pid":0,"tid":`...)
		buf = strconv.AppendInt(buf, int64(ev.Comp), 10)
		buf = append(buf, `,"ts":`...)
		buf = appendTs(buf, int64(ev.Time))
		switch ph {
		case 'C':
			buf = append(buf, `,"name":"occupancy","args":{"words":`...)
			buf = strconv.AppendInt(buf, ev.Arg, 10)
		case 'X':
			buf = append(buf, `,"dur":`...)
			buf = appendTs(buf, c.flitCycle)
			buf = appendNameArgs(buf, ev)
		default:
			buf = append(buf, `,"s":"t"`...)
			buf = appendNameArgs(buf, ev)
		}
		buf = append(buf, "}}"...)
		if len(buf) >= chromeFlush {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
	buf = append(buf, "\n]}\n"...)
	err := flush()
	return n, err
}

// appendNameArgs renders `,"name":"<kind>[ c<conn>]","args":{<kind-specific>`
// up to, not including, the two closing braces.
func appendNameArgs(b []byte, ev Event) []byte {
	// The name is a kind name and a number: nothing in it needs escaping.
	b = append(b, `,"name":"`...)
	b = append(b, ev.Kind.String()...)
	if ev.Conn != 0 {
		b = append(b, " c"...)
		b = strconv.AppendInt(b, int64(ev.Conn), 10)
	}
	b = append(b, `","args":{"conn":`...)
	b = strconv.AppendInt(b, int64(ev.Conn), 10)
	field := func(key string, v int64) {
		b = append(b, key...)
		b = strconv.AppendInt(b, v, 10)
	}
	switch ev.Kind {
	case Send, Eject:
		field(`,"seq":`, ev.Seq)
		field(`,"lat_ps":`, int64(ev.Time-ev.Ref))
	case SlotStart:
		field(`,"slot":`, int64(ev.Slot))
		field(`,"words":`, ev.Arg)
	case RouterForward:
		field(`,"seq":`, ev.Seq)
		field(`,"port":`, ev.Arg)
	case Credit:
		field(`,"words":`, ev.Arg)
	case WrapperFire:
		field(`,"stalled":`, ev.Arg)
	case Inject:
		field(`,"seq":`, ev.Seq)
	case CRCDrop:
		field(`,"reason":`, ev.Arg)
		field(`,"seq":`, ev.Seq)
	case Retransmit:
		field(`,"seq":`, ev.Seq)
		field(`,"round":`, ev.Arg)
	case AckAdvance:
		field(`,"base":`, ev.Seq)
		field(`,"words":`, ev.Arg)
	case Recovered:
		field(`,"stall_ps":`, ev.Arg)
	case Quarantine:
		field(`,"unacked":`, ev.Arg)
	}
	return b
}
