package fault

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
)

// A SlotChecker continuously verifies the Section III contention-freedom
// invariant on one link: a TDM slot (one flit cycle) carries at most one
// flit, and every phit in it belongs to one connection. It observes the
// link's entry without knowing the allocation, so it detects schedule
// corruption whatever its cause (injected faults, allocator bugs, clock
// drift shifting slot boundaries).
type SlotChecker struct {
	name string
	clk  *clock.Clock
	wire *sim.Wire[phit.Phit]
	rep  Reporter

	curSlot int64
	conn    phit.ConnID
	headers int
	flagged bool
}

// NewSlotChecker builds a checker for a link's entry wire, clocked by the
// writer's clock.
func NewSlotChecker(name string, clk *clock.Clock, wire *sim.Wire[phit.Phit], rep Reporter) *SlotChecker {
	return &SlotChecker{name: name, clk: clk, wire: wire, rep: rep, curSlot: -1}
}

// Name implements sim.Component.
func (s *SlotChecker) Name() string { return s.name }

// Clock implements sim.Component.
func (s *SlotChecker) Clock() *clock.Clock { return s.clk }

// Update implements sim.Component.
func (s *SlotChecker) Update(now clock.Time) {
	p := s.wire.Ref()
	if !p.Valid {
		return
	}
	edge, ok := s.clk.EdgeIndex(now)
	if !ok {
		return
	}
	// The word was driven in the previous cycle; attribute it to that
	// cycle's slot.
	drive := edge - 1
	if drive < 0 {
		return
	}
	slot := drive / phit.FlitWords
	if slot != s.curSlot {
		s.curSlot = slot
		s.conn = p.Meta.Conn
		s.headers = 0
		s.flagged = false
	}
	if p.Kind == phit.Header || p.Kind == phit.CreditOnly {
		s.headers++
	}
	if s.flagged {
		return
	}
	if p.Meta.Conn != s.conn {
		s.flagged = true
		Report(s.rep, Violation{
			Kind: SlotContention, Component: s.name, Time: now, Slot: int(slot % int64(1<<31)),
			Detail: fmt.Sprintf("connections %d and %d share one slot", s.conn, p.Meta.Conn),
		})
		return
	}
	if s.headers > 1 {
		s.flagged = true
		Report(s.rep, Violation{
			Kind: SlotContention, Component: s.name, Time: now, Slot: int(slot % int64(1<<31)),
			Detail: fmt.Sprintf("%d packet headers in one slot — two flits on one link in the same slot", s.headers),
		})
	}
}

// Progress is anything whose forward progress the liveness checker can
// watch; *wrapper.Wrapper satisfies it.
type Progress interface {
	Name() string
	Fires() int64
}

// A LivenessChecker verifies the Section VI empty-token liveness claim:
// every asynchronous wrapper keeps firing (data or empty tokens) as long as
// the network runs. A wrapper that makes no progress for a whole window is
// reported once per stall episode.
type LivenessChecker struct {
	name string
	clk  *clock.Clock
	rep  Reporter

	watch   []Progress
	last    []int64
	stalled []bool

	window int64 // check interval in edges of clk
	edge   int64
}

// DefaultLivenessWindow is the check interval in nominal clock cycles —
// generous against transient stalls (slot-table gaps, startup priming) but
// far below any meaningful simulation length.
const DefaultLivenessWindow = 48 * phit.FlitWords

// NewLivenessChecker watches the given wrappers on the nominal clock.
// window 0 selects DefaultLivenessWindow.
func NewLivenessChecker(name string, clk *clock.Clock, watch []Progress, window int64, rep Reporter) *LivenessChecker {
	if window <= 0 {
		window = DefaultLivenessWindow
	}
	return &LivenessChecker{
		name: name, clk: clk, rep: rep,
		watch: watch, last: make([]int64, len(watch)), stalled: make([]bool, len(watch)),
		window: window,
	}
}

// Name implements sim.Component.
func (l *LivenessChecker) Name() string { return l.name }

// Clock implements sim.Component.
func (l *LivenessChecker) Clock() *clock.Clock { return l.clk }

// Update implements sim.Component.
func (l *LivenessChecker) Update(now clock.Time) {
	l.edge++
	if l.edge%l.window != 0 {
		return
	}
	for i, p := range l.watch {
		fires := p.Fires()
		if fires == l.last[i] {
			if !l.stalled[i] {
				l.stalled[i] = true
				Report(l.rep, Violation{
					Kind: Liveness, Component: l.name, Time: now, Slot: NoSlot,
					Detail: fmt.Sprintf("%s made no progress for %d cycles — empty-token liveness lost", p.Name(), l.window),
				})
			}
		} else {
			l.stalled[i] = false
		}
		l.last[i] = fires
	}
}
