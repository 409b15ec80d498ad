package fault

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
)

// An Op is one fault mechanism.
type Op int

const (
	// OpDrop discards the next Param valid phits committed on a link.
	OpDrop Op = iota
	// OpCorrupt XORs the data word of the next Param valid phits on a
	// link with CorruptMask (header corruption re-routes packets; payload
	// corruption flips data bits).
	OpCorrupt
	// OpDuplicate replays the next valid phit on a link into the
	// following cycle, overwriting whatever the writer drove.
	OpDuplicate
	// OpPhase steps a clock's phase by Param picoseconds — drift or a
	// jitter excursion beyond the mesochronous bound.
	OpPhase
	// OpPeriod changes a clock's period by Param picoseconds —
	// plesiochronous drift beyond the rated ppm.
	OpPeriod
	// OpDelay stretches a bi-synchronous FIFO's forwarding delay by Param
	// picoseconds — a slow or metastable synchroniser.
	OpDelay
	// OpStall freezes an asynchronous wrapper's PIC for Param cycles.
	OpStall
)

var opNames = map[Op]string{
	OpDrop:      "drop",
	OpCorrupt:   "corrupt",
	OpDuplicate: "dup",
	OpPhase:     "phase",
	OpPeriod:    "period",
	OpDelay:     "delay",
	OpStall:     "stall",
}

func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// CorruptMask is XORed into the data word of corrupted phits. Bit 0 is the
// low bit of a header's first output-port hop, so corrupting a header
// deterministically mis-routes the packet.
const CorruptMask phit.Word = 1

// An Event is one scheduled fault.
type Event struct {
	At     clock.Time // injection instant, exact picoseconds
	Op     Op
	Target string // resolved against the campaign's Targets by substring
	Param  int64  // count (drop/corrupt), ps (phase/period/delay), cycles (stall)
}

func (e Event) String() string {
	return fmt.Sprintf("%s@%dps:%s:%d", e.Op, e.At, e.Target, e.Param)
}

// A Plan is a deterministic schedule of fault events, optionally combined
// with sustained per-link fault rates. Two campaigns armed with equal
// plans on equal networks produce identical simulations.
type Plan struct {
	Seed   int64
	Events []Event
	// Rates applies sustained random faults for the whole run, on top of
	// (or instead of) the scheduled events.
	Rates []RateRule
}

// A RateRule subjects every link whose name contains Target (every link
// when Target is empty) to sustained random transient faults for the whole
// run. Each matching link draws from its own RNG, seeded from the plan
// seed and the link name, so outcomes are independent of worker count and
// of how many other links are faulted.
type RateRule struct {
	Target string
	// BitFlip is the per-phit probability that one random bit of a
	// payload or padding phit's data word is inverted in transit. Header
	// phits are spared: a flipped route would turn a data fault into a
	// misrouting fault, which the scheduled corrupt op covers separately.
	BitFlip float64
	// Drop is the per-flit probability that a whole 3-phit flit is
	// replaced by idle cycles in transit.
	Drop float64
}

// Validate rejects rates outside [0,1].
func (r RateRule) Validate() error {
	if r.BitFlip < 0 || r.BitFlip > 1 {
		return fmt.Errorf("fault: bit-flip rate %g outside [0,1]", r.BitFlip)
	}
	if r.Drop < 0 || r.Drop > 1 {
		return fmt.Errorf("fault: drop rate %g outside [0,1]", r.Drop)
	}
	return nil
}

// fnv64 hashes a link name (FNV-1a) into a per-link RNG seed component.
func fnv64(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

// ParseSpec parses a campaign specification string: semicolon-separated
// events of the form
//
//	op@TIMEns:target[:param]
//
// where op is drop|corrupt|dup|phase|period|delay|stall, TIME is the
// injection time in nanoseconds (finite, within clock.Time's range),
// target is a substring selecting one injection point (link, clock, FIFO or
// wrapper name), and param is the op count, picosecond delta or cycle count
// (defaults: 1 for drop/corrupt/dup, half a nominal period worth of ps for
// phase, 100 for period/delay in ps, 30 for stall cycles). A count — of
// drop, corrupt, dup or stall — must be positive.
//
// The special form "random:N" expands, at Arm time, into N events drawn
// deterministically from the campaign seed.
func ParseSpec(spec string, seed int64) (*Plan, error) {
	p := &Plan{Seed: seed}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if n, ok := strings.CutPrefix(part, "random:"); ok {
			count, err := strconv.Atoi(n)
			if err != nil || count <= 0 {
				return nil, fmt.Errorf("fault: bad random event count %q", n)
			}
			p.Events = append(p.Events, Event{Op: opRandom, Param: int64(count)})
			continue
		}
		opStr, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("fault: event %q: want op@TIMEns:target[:param]", part)
		}
		var op Op
		found := false
		for o, name := range opNames {
			if name == opStr {
				op, found = o, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fault: unknown op %q in %q", opStr, part)
		}
		fields := strings.Split(rest, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("fault: event %q: want op@TIMEns:target[:param]", part)
		}
		ns, err := strconv.ParseFloat(fields[0], 64)
		at, ok := clock.FromNs(ns)
		if err != nil || !ok {
			return nil, fmt.Errorf("fault: bad time %q in %q", fields[0], part)
		}
		ev := Event{At: at, Op: op, Target: fields[1], Param: defaultParam(op)}
		if len(fields) == 3 {
			v, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad param %q in %q", fields[2], part)
			}
			ev.Param = v
		}
		if ev.Param <= 0 && isCount(op) {
			return nil, fmt.Errorf("fault: %s count %d in %q is not positive", op, ev.Param, part)
		}
		p.Events = append(p.Events, ev)
	}
	if len(p.Events) == 0 {
		return nil, fmt.Errorf("fault: empty campaign spec")
	}
	return p, nil
}

// isCount reports whether an op's param counts phits or cycles, which a
// plan must give as a positive number.
func isCount(op Op) bool {
	switch op {
	case OpDrop, OpCorrupt, OpDuplicate, OpStall:
		return true
	}
	return false
}

// opRandom is the unexpanded "random:N" placeholder; Arm expands it.
const opRandom Op = -1

func defaultParam(op Op) int64 {
	switch op {
	case OpDrop, OpCorrupt, OpDuplicate:
		return 1
	case OpPhase:
		return 1000 // 1 ns: past half a period for any clock ≥ 500 MHz
	case OpPeriod:
		return 100
	case OpDelay:
		return 2000
	case OpStall:
		return 30
	default:
		return 1
	}
}

// Targets enumerates a built network's injection points by name. Any slice
// may be empty; Arm reports an error only when an event matches nothing.
type Targets struct {
	Links  []LinkTarget
	Clocks []*clock.Clock
	Delays []DelayTarget
	Stalls []StallTarget
}

// A LinkTarget is a word link faults can drop, corrupt or duplicate words
// on, through the intercept of its entry wire.
type LinkTarget struct {
	Name string
	Wire *sim.Wire[phit.Phit]
}

// A DelayTarget is a stretchable bi-synchronous FIFO forwarding delay.
type DelayTarget struct {
	Name    string
	Stretch func(delta clock.Duration)
}

// A StallTarget is a stallable asynchronous-wrapper PIC.
type StallTarget struct {
	Name  string
	Stall func(cycles int)
}

// An InjectedFault records one armed event after target resolution — the
// campaign summary's ground truth.
type InjectedFault struct {
	Event  Event
	Target string // fully resolved name
}

// A Campaign owns a plan, arms it on an engine and summarises the outcome.
type Campaign struct {
	Plan      *Plan
	Collector *Collector // nil in strict mode (faults still injected)

	injected []InjectedFault
	hooks    map[*sim.Wire[phit.Phit]]*LinkHook
	rated    []*LinkHook // hooks carrying rate rules, in link-target order
}

// NewCampaign pairs a plan with a collector. A nil collector arms the
// faults but leaves every component in strict mode, so the first violation
// still fails fast.
func NewCampaign(p *Plan, c *Collector) *Campaign {
	return &Campaign{Plan: p, Collector: c, hooks: make(map[*sim.Wire[phit.Phit]]*LinkHook)}
}

// Injected returns the armed faults in schedule order.
func (c *Campaign) Injected() []InjectedFault {
	return append([]InjectedFault(nil), c.injected...)
}

// Arm resolves every event against the targets and schedules its
// application on the engine at the event's exact instant. Call once,
// before running the simulation.
func (c *Campaign) Arm(eng *sim.Engine, t Targets) error {
	events, err := c.expand(t)
	if err != nil {
		return err
	}
	for _, ev := range events {
		ev := ev
		switch ev.Op {
		case OpDrop, OpCorrupt, OpDuplicate:
			lt, err := resolve(ev.Target, t.Links, func(l LinkTarget) string { return l.Name })
			if err != nil {
				return fmt.Errorf("fault: %s: %w", ev, err)
			}
			h := c.hooks[lt.Wire]
			if h == nil {
				h = NewLinkHook(lt.Name)
				h.Attach(lt.Wire)
				c.hooks[lt.Wire] = h
			}
			eng.At(ev.At, func() { h.arm(ev.Op, int(ev.Param)) })
			c.injected = append(c.injected, InjectedFault{Event: ev, Target: lt.Name})
		case OpPhase, OpPeriod:
			ck, err := resolve(ev.Target, t.Clocks, func(c *clock.Clock) string { return c.Name })
			if err != nil {
				return fmt.Errorf("fault: %s: %w", ev, err)
			}
			op, delta := ev.Op, clock.Duration(ev.Param)
			eng.At(ev.At, func() {
				if op == OpPhase {
					ck.Phase += delta
				} else if p := ck.Period + delta; p > 0 {
					ck.Period = p
				}
				eng.InvalidateSchedule()
			})
			c.injected = append(c.injected, InjectedFault{Event: ev, Target: ck.Name})
		case OpDelay:
			dt, err := resolve(ev.Target, t.Delays, func(d DelayTarget) string { return d.Name })
			if err != nil {
				return fmt.Errorf("fault: %s: %w", ev, err)
			}
			delta := clock.Duration(ev.Param)
			eng.At(ev.At, func() { dt.Stretch(delta) })
			c.injected = append(c.injected, InjectedFault{Event: ev, Target: dt.Name})
		case OpStall:
			st, err := resolve(ev.Target, t.Stalls, func(s StallTarget) string { return s.Name })
			if err != nil {
				return fmt.Errorf("fault: %s: %w", ev, err)
			}
			cycles := int(ev.Param)
			eng.At(ev.At, func() { st.Stall(cycles) })
			c.injected = append(c.injected, InjectedFault{Event: ev, Target: st.Name})
		default:
			return fmt.Errorf("fault: %s: unknown op", ev)
		}
	}
	sort.SliceStable(c.injected, func(i, j int) bool { return c.injected[i].Event.At < c.injected[j].Event.At })
	return c.armRates(t)
}

// armRates installs the plan's sustained-rate rules on every matching link.
// Each faulted link gets its own RNG, seeded from the plan seed and the
// link name, so a link's fault stream is a pure function of the plan — not
// of worker count, arming order or the fate of other links.
func (c *Campaign) armRates(t Targets) error {
	for _, r := range c.Plan.Rates {
		if err := r.Validate(); err != nil {
			return err
		}
		matched := 0
		for _, lt := range t.Links {
			if r.Target != "" && !strings.Contains(lt.Name, r.Target) {
				continue
			}
			matched++
			h := c.hooks[lt.Wire]
			if h == nil {
				h = NewLinkHook(lt.Name)
				h.Attach(lt.Wire)
				c.hooks[lt.Wire] = h
			}
			if h.rng == nil {
				h.rng = rand.New(rand.NewSource(c.Plan.Seed ^ fnv64(lt.Name)))
				c.rated = append(c.rated, h)
			}
			h.bitRate += r.BitFlip
			h.dropRate += r.Drop
		}
		if matched == 0 {
			return fmt.Errorf("fault: rate rule matches no link (target %q)", r.Target)
		}
	}
	return nil
}

// expand replaces random:N placeholders with concrete events drawn
// deterministically from the plan seed over the available targets and the
// window spanned by the concrete events (default 1–50 µs).
func (c *Campaign) expand(t Targets) ([]Event, error) {
	var out []Event
	var lo, hi clock.Time = 1 * clock.Microsecond, 50 * clock.Microsecond
	for _, ev := range c.Plan.Events {
		if ev.Op != opRandom && ev.At > hi {
			hi = ev.At
		}
	}
	rng := rand.New(rand.NewSource(c.Plan.Seed))
	for _, ev := range c.Plan.Events {
		if ev.Op != opRandom {
			out = append(out, ev)
			continue
		}
		ops := randomOps(t)
		if len(ops) == 0 {
			return nil, fmt.Errorf("fault: random events requested but the network exposes no injection points")
		}
		for i := int64(0); i < ev.Param; i++ {
			op := ops[rng.Intn(len(ops))]
			at := lo + clock.Time(rng.Int63n(int64(hi-lo)))
			rev := Event{At: at, Op: op, Param: defaultParam(op)}
			switch op {
			case OpDrop, OpCorrupt, OpDuplicate:
				rev.Target = t.Links[rng.Intn(len(t.Links))].Name
				rev.Param = 1 + rng.Int63n(3)
			case OpPhase, OpPeriod:
				rev.Target = t.Clocks[rng.Intn(len(t.Clocks))].Name
				if op == OpPhase {
					rev.Param = 200 + rng.Int63n(1800) // 0.2–2 ns phase step
				} else {
					rev.Param = 50 + rng.Int63n(450) // 50–500 ps period shift
				}
			case OpDelay:
				rev.Target = t.Delays[rng.Intn(len(t.Delays))].Name
				rev.Param = 1000 + rng.Int63n(4000)
			case OpStall:
				rev.Target = t.Stalls[rng.Intn(len(t.Stalls))].Name
				rev.Param = 10 + rng.Int63n(90)
			}
			out = append(out, rev)
		}
	}
	return out, nil
}

// randomOps lists the ops the targets can support.
func randomOps(t Targets) []Op {
	var ops []Op
	if len(t.Links) > 0 {
		ops = append(ops, OpDrop, OpCorrupt, OpDuplicate)
	}
	if len(t.Clocks) > 0 {
		ops = append(ops, OpPhase, OpPeriod)
	}
	if len(t.Delays) > 0 {
		ops = append(ops, OpDelay)
	}
	if len(t.Stalls) > 0 {
		ops = append(ops, OpStall)
	}
	return ops
}

// resolve finds the unique target whose name contains the pattern (exact
// match wins over substring).
func resolve[T any](pattern string, items []T, name func(T) string) (T, error) {
	var zero T
	var found []T
	for _, it := range items {
		if name(it) == pattern {
			return it, nil
		}
		if strings.Contains(name(it), pattern) {
			found = append(found, it)
		}
	}
	switch len(found) {
	case 0:
		return zero, fmt.Errorf("no target matches %q", pattern)
	case 1:
		return found[0], nil
	default:
		names := make([]string, 0, len(found))
		for _, it := range found {
			names = append(names, name(it))
		}
		return zero, fmt.Errorf("pattern %q is ambiguous: %s", pattern, strings.Join(names, ", "))
	}
}

// A LinkHook perturbs phits on one wire in place, via the wire's
// commit-time intercept, so injection itself never shifts timing.
type LinkHook struct {
	name string

	drop    int
	corrupt int
	dup     int

	replay        phit.Phit
	replayPending bool

	// Sustained-rate fault state (rng nil when no rate rule matched).
	rng      *rand.Rand
	bitRate  float64
	dropRate float64
	flitPos  int // word index within the current valid-phit run
	dropRun  int // phits left to erase of a flit being dropped whole

	Dropped      int64
	Corrupted    int64
	Duplicated   int64
	BitsFlipped  int64
	FlitsDropped int64
}

// NewLinkHook returns an idle hook; Attach installs it on a wire.
func NewLinkHook(name string) *LinkHook { return &LinkHook{name: name} }

// Attach installs the hook as the wire's intercept.
func (h *LinkHook) Attach(w *sim.Wire[phit.Phit]) { w.SetIntercept(h.intercept) }

// arm queues count applications of op starting at the next valid phit.
func (h *LinkHook) arm(op Op, count int) {
	switch op {
	case OpDrop:
		h.drop += count
	case OpCorrupt:
		h.corrupt += count
	case OpDuplicate:
		h.dup += count
	}
}

func (h *LinkHook) intercept(v phit.Phit, driven bool) phit.Phit {
	if h.replayPending {
		h.replayPending = false
		h.Duplicated++
		return h.replay
	}
	if !driven || !v.Valid {
		h.flitPos, h.dropRun = 0, 0
		return v
	}
	pos := h.flitPos
	h.flitPos = (h.flitPos + 1) % phit.FlitWords
	if h.rng != nil {
		if pos == 0 {
			h.dropRun = 0
			if h.dropRate > 0 && h.rng.Float64() < h.dropRate {
				h.dropRun = phit.FlitWords
				h.FlitsDropped++
			}
		}
		if h.dropRun > 0 {
			h.dropRun--
			return phit.IdlePhit
		}
		if h.bitRate > 0 && (v.Kind == phit.Payload || v.Kind == phit.Padding) &&
			h.rng.Float64() < h.bitRate {
			v.Data ^= phit.Word(1) << uint(h.rng.Intn(32))
			h.BitsFlipped++
		}
	}
	switch {
	case h.drop > 0:
		h.drop--
		h.Dropped++
		return phit.IdlePhit
	case h.corrupt > 0:
		h.corrupt--
		h.Corrupted++
		v.Data ^= CorruptMask
		return v
	case h.dup > 0:
		h.dup--
		h.replay = v
		h.replayPending = true
	}
	return v
}

// A Summary is the deterministic outcome report of one campaign: with equal
// plans, seeds and networks, two runs render byte-identical summaries.
type Summary struct {
	Faults     []InjectedFault
	Latency    []clock.Duration // detection latency per fault, NoDetection if none
	RateLinks  []RateOutcome    // per-link sustained-rate outcomes, target order
	Total      int64
	ByKind     map[Kind]int64
	Kinds      []Kind
	Violations []Violation // stored subset, detection order
}

// A RateOutcome is the sustained-rate fault tally of one link.
type RateOutcome struct {
	Name         string
	BitsFlipped  int64
	FlitsDropped int64
}

// NoDetection marks a fault with no violation detected at or after it.
const NoDetection clock.Duration = -1

// Summarize computes the campaign summary from its collector (which may be
// nil in strict mode — the summary then lists faults only).
func (c *Campaign) Summarize() *Summary {
	s := &Summary{Faults: c.Injected(), ByKind: map[Kind]int64{}}
	if c.Collector != nil {
		s.Total = c.Collector.Total()
		s.ByKind = c.Collector.CountByKind()
		s.Kinds = c.Collector.Kinds()
		s.Violations = c.Collector.Violations()
	}
	for _, f := range s.Faults {
		lat := NoDetection
		if c.Collector != nil {
			if v, ok := c.Collector.FirstAt(f.Event.At); ok {
				lat = v.Time - f.Event.At
			}
		}
		s.Latency = append(s.Latency, lat)
	}
	for _, h := range c.rated {
		s.RateLinks = append(s.RateLinks, RateOutcome{
			Name: h.name, BitsFlipped: h.BitsFlipped, FlitsDropped: h.FlitsDropped,
		})
	}
	return s
}

// Write renders the summary.
func (s *Summary) Write(w io.Writer) {
	fmt.Fprintf(w, "fault campaign: %d faults injected, %d violations detected\n", len(s.Faults), s.Total)
	if len(s.Faults) > 0 {
		fmt.Fprintf(w, "%10s %8s %-28s %10s %12s\n", "t(ns)", "op", "target", "param", "detectNs")
		for i, f := range s.Faults {
			det := "-"
			if s.Latency[i] != NoDetection {
				det = fmt.Sprintf("%.1f", float64(s.Latency[i])/float64(clock.Nanosecond))
			}
			fmt.Fprintf(w, "%10.1f %8s %-28s %10d %12s\n",
				float64(f.Event.At)/float64(clock.Nanosecond), f.Event.Op, f.Target, f.Event.Param, det)
		}
	}
	if len(s.RateLinks) > 0 {
		var bits, flits int64
		for _, r := range s.RateLinks {
			bits += r.BitsFlipped
			flits += r.FlitsDropped
		}
		fmt.Fprintf(w, "rate faults: %d links, %d bits flipped, %d flits dropped\n",
			len(s.RateLinks), bits, flits)
		for _, r := range s.RateLinks {
			if r.BitsFlipped == 0 && r.FlitsDropped == 0 {
				continue
			}
			fmt.Fprintf(w, "%-34s %8d bitflips %8d drops\n", r.Name, r.BitsFlipped, r.FlitsDropped)
		}
	}
	if len(s.Kinds) > 0 {
		fmt.Fprintf(w, "violations by kind:\n")
		for _, k := range s.Kinds {
			fmt.Fprintf(w, "%16s %8d\n", k, s.ByKind[k])
		}
	}
	const maxList = 20
	for i, v := range s.Violations {
		if i == maxList {
			fmt.Fprintf(w, "  ... %d more\n", len(s.Violations)-maxList)
			break
		}
		fmt.Fprintf(w, "  %s\n", v)
	}
}
