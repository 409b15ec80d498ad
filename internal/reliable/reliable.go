package reliable

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/trace"
)

// DefaultRetryBudget bounds timeout-triggered resend rounds per connection
// before quarantine.
const DefaultRetryBudget = 8

// BackoffCap caps the exponential backoff multiplier on the resend
// timeout.
const BackoffCap = 8

// Drop reason codes, carried in the Arg of trace.CRCDrop events.
const (
	DropCRC       = 1 // CRC mismatch or missing sideband
	DropGap       = 2 // sequence number ahead of expected (a flit was lost)
	DropDuplicate = 3 // sequence number behind expected (retransmit overlap)
	DropTruncated = 4 // flit cut short, or phits with no flit head
)

// TxConfig configures the reliability shell of one out-connection.
type TxConfig struct {
	// Windowed enables sequence tracking and retransmission: the data
	// direction of a connection. Unwindowed senders (the ack/credit
	// reverse direction) still stamp sequence numbers and acks but keep
	// no window — their information is cumulative and refreshed, so loss
	// recovers by itself.
	Windowed bool
	// PairedIn names the in-connection at this endpoint whose cumulative
	// ack rides on this connection's sideband (phit.None when none; the
	// mirror of the baseline protocol's piggybacked credits).
	PairedIn phit.ConnID
	// Timeout is the resend timeout: the worst-case interval from a
	// flit's injection to its ack under fault-free operation. Required
	// (positive) for windowed senders.
	Timeout clock.Duration
	// RetryBudget bounds consecutive timeout-triggered resend rounds
	// before quarantine (0 selects DefaultRetryBudget).
	RetryBudget int
}

// RxConfig configures the reliability shell of one in-connection.
type RxConfig struct {
	// Tracked enables in-order sequence filtering: the data direction.
	// Untracked receivers (the ack/credit reverse direction) only verify
	// the CRC and extract acks.
	Tracked bool
	// AckFor names the out-connection at this endpoint whose window is
	// advanced by acks arriving on this in-connection (phit.None when
	// this direction carries no acks for us).
	AckFor phit.ConnID
}

type txEntry struct {
	seq     uint32
	payload [phit.FlitWords - 1]phit.Meta
	words   int
	sentAt  clock.Time
}

type txState struct {
	cfg     TxConfig
	nextSeq uint32
	base    uint32 // seq of the oldest unacked entry
	entries []txEntry

	deadline    clock.Time
	backoff     int // current timeout multiplier
	retries     int // consecutive timeout rounds without ack progress
	resendPos   int // index into entries mid-round, -1 otherwise
	quarantined bool

	freshFlits  int64
	retransmits int64
	ackedFlits  int64
	ackedWords  int64
}

func (tx *txState) outstandingWords() int {
	w := 0
	for i := range tx.entries {
		w += tx.entries[i].words
	}
	return w
}

type rxState struct {
	cfg      RxConfig
	expected uint32
	needAck  bool

	lossValid bool
	lossAt    clock.Time

	accepted   int64
	crcDrops   int64
	gapDrops   int64
	dupDrops   int64
	truncDrops int64
	recovered  int64
}

// An Endpoint is the per-NI reliability state: one per network interface,
// shared by every connection that starts or ends there. It is driven
// synchronously from the NI's own send and receive paths, so it adds no
// components, wires or timing shifts to the simulation.
type Endpoint struct {
	name string
	tx   map[phit.ConnID]*txState
	rx   map[phit.ConnID]*rxState

	// credit returns acked words to the NI's credit counter (bound by
	// the NI; replaces the lossy in-header credit field).
	credit func(now clock.Time, conn phit.ConnID, words int)

	// asm reassembles one flit from the NI's phit-granular receive path.
	asm    phit.Flit
	asmLen int

	// onQuarantine, when set, is invoked synchronously whenever an
	// out-connection transitions into quarantine. It fires from inside the
	// simulation engine's event processing, so the callback must only
	// record the event — reconfiguring the network from here would
	// re-enter the engine.
	onQuarantine func(now clock.Time, conn phit.ConnID)

	rep fault.Reporter
	tr  *trace.Emitter
}

// NewEndpoint builds an empty endpoint for the named NI.
func NewEndpoint(name string) *Endpoint {
	return &Endpoint{
		name: name,
		tx:   make(map[phit.ConnID]*txState),
		rx:   make(map[phit.ConnID]*rxState),
	}
}

// Name returns the endpoint's diagnostic name.
func (ep *Endpoint) Name() string { return ep.name }

// SetReporter routes quarantine violations to r; nil keeps the fail-fast
// panic of strict mode.
func (ep *Endpoint) SetReporter(r fault.Reporter) { ep.rep = r }

// SetTracer installs the recovery-event emitter; nil disables tracing.
func (ep *Endpoint) SetTracer(e *trace.Emitter) { ep.tr = e }

// BindCredit installs the NI callback that returns acked words to a
// sender's end-to-end credit counter.
func (ep *Endpoint) BindCredit(f func(now clock.Time, conn phit.ConnID, words int)) { ep.credit = f }

// SetQuarantineHook installs a callback fired at every quarantine
// transition. The callback runs inside the engine's event processing and
// must not reconfigure the network; the self-healing layer uses it to
// queue the connection for reroute between engine runs.
func (ep *Endpoint) SetQuarantineHook(f func(now clock.Time, conn phit.ConnID)) {
	ep.onQuarantine = f
}

// RegisterTx adds the reliability shell to an out-connection.
func (ep *Endpoint) RegisterTx(conn phit.ConnID, cfg TxConfig) {
	if _, dup := ep.tx[conn]; dup {
		panic(fmt.Sprintf("reliable %s: duplicate tx connection %d", ep.name, conn))
	}
	if cfg.Windowed && cfg.Timeout <= 0 {
		panic(fmt.Sprintf("reliable %s: windowed tx connection %d needs a positive timeout", ep.name, conn))
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	ep.tx[conn] = &txState{cfg: cfg, backoff: 1, resendPos: -1}
}

// RegisterRx adds the reliability shell to an in-connection.
func (ep *Endpoint) RegisterRx(conn phit.ConnID, cfg RxConfig) {
	if _, dup := ep.rx[conn]; dup {
		panic(fmt.Sprintf("reliable %s: duplicate rx connection %d", ep.name, conn))
	}
	ep.rx[conn] = &rxState{cfg: cfg}
}

// Quarantined reports whether the out-connection has been quarantined.
func (ep *Endpoint) Quarantined(conn phit.ConnID) bool {
	tx := ep.tx[conn]
	return tx != nil && tx.quarantined
}

// WantAck reports whether the out-connection should transmit this slot
// even without payload, because its paired in-connection owes the remote
// sender a fresh cumulative ack.
func (ep *Endpoint) WantAck(conn phit.ConnID) bool {
	tx := ep.tx[conn]
	if tx == nil || tx.cfg.PairedIn == phit.None {
		return false
	}
	rx := ep.rx[tx.cfg.PairedIn]
	return rx != nil && rx.cfg.Tracked && rx.needAck
}

// sideband assembles the sideband for one outgoing flit of the connection:
// the given sequence number plus, when the paired in-connection is
// tracked, the current cumulative ack (which this send also satisfies).
func (ep *Endpoint) sideband(tx *txState, seq uint32) phit.Sideband {
	sb := phit.Sideband{Seq: seq & phit.SeqMask}
	if tx.cfg.PairedIn != phit.None {
		if rx := ep.rx[tx.cfg.PairedIn]; rx != nil && rx.cfg.Tracked {
			sb.Ack = rx.expected & phit.SeqMask
			sb.AckValid = true
			rx.needAck = false
		}
	}
	return sb
}

// FinishTx seals a freshly built flit: it stamps the sideband (sequence,
// cumulative ack, CRC) and, for windowed senders, records the flit in the
// retransmission window. words is the payload word count; the flit's
// payload metas are copied so a resend can rebuild the flit bit-exactly.
func (ep *Endpoint) FinishTx(now clock.Time, conn phit.ConnID, f *phit.Flit, words int) {
	tx := ep.tx[conn]
	if tx == nil {
		panic(fmt.Sprintf("reliable %s: FinishTx on unregistered connection %d", ep.name, conn))
	}
	seq := tx.nextSeq & phit.SeqMask
	tx.nextSeq = (tx.nextSeq + 1) & phit.SeqMask
	if tx.cfg.Windowed {
		e := txEntry{seq: seq, words: words, sentAt: now}
		for i := 0; i < words && i < len(e.payload); i++ {
			e.payload[i] = f[i+1].Meta
		}
		if len(tx.entries) == 0 {
			tx.deadline = now + clock.Time(tx.cfg.Timeout)*clock.Time(tx.backoff)
		}
		tx.entries = append(tx.entries, e)
		tx.freshFlits++
	}
	phit.StampSideband(f, ep.sideband(tx, seq))
}

// Resend returns the next flit of an in-progress (or newly due) go-back-N
// resend round, rebuilt on the header word of the current slot. words is
// the flit's payload word count. ok is false when nothing is due — the
// caller is then free to send fresh payload. A connection whose retry
// budget is exhausted is quarantined here.
func (ep *Endpoint) Resend(now clock.Time, conn phit.ConnID, hdr phit.Word) (f phit.Flit, words int, ok bool) {
	tx := ep.tx[conn]
	if tx == nil || !tx.cfg.Windowed || tx.quarantined || len(tx.entries) == 0 {
		return f, 0, false
	}
	if tx.resendPos < 0 {
		if now < tx.deadline {
			return f, 0, false
		}
		// Timeout: the oldest unacked flit (or its ack) was lost.
		tx.retries++
		if tx.retries > tx.cfg.RetryBudget {
			ep.quarantine(now, conn, tx)
			return f, 0, false
		}
		tx.resendPos = 0
	}
	e := tx.entries[tx.resendPos]
	f[0] = phit.Phit{Valid: true, Kind: phit.Header, Data: hdr, Meta: phit.Meta{Conn: conn}}
	w := 1
	for i := 0; i < e.words; i++ {
		meta := e.payload[i]
		f[w] = phit.Phit{Valid: true, Kind: phit.Payload, Data: phit.Word(meta.Seq), Meta: meta}
		w++
	}
	for ; w < phit.FlitWords; w++ {
		f[w] = phit.Phit{Valid: true, Kind: phit.Padding, Meta: phit.Meta{Conn: conn}}
	}
	f[phit.FlitWords-1].EoP = true
	phit.StampSideband(&f, ep.sideband(tx, e.seq))
	tx.resendPos++
	if tx.resendPos >= len(tx.entries) {
		// Round complete: rearm the timeout with exponential backoff.
		tx.resendPos = -1
		if tx.backoff < BackoffCap {
			tx.backoff *= 2
		}
		tx.deadline = now + clock.Time(tx.cfg.Timeout)*clock.Time(tx.backoff)
	}
	tx.retransmits++
	if ep.tr != nil {
		ep.tr.Emit(trace.Event{Time: now, Kind: trace.Retransmit, Conn: conn,
			Seq: int64(e.seq), Arg: int64(tx.retries), Slot: trace.NoSlot})
	}
	return f, e.words, true
}

// quarantine marks the connection degraded — it transmits nothing from now
// on — and reports the violation once. Healthy connections are untouched:
// the quarantined connection's reserved slots simply fall idle.
func (ep *Endpoint) quarantine(now clock.Time, conn phit.ConnID, tx *txState) {
	tx.quarantined = true
	tx.resendPos = -1
	if ep.tr != nil {
		ep.tr.Emit(trace.Event{Time: now, Kind: trace.Quarantine, Conn: conn,
			Arg: int64(len(tx.entries)), Slot: trace.NoSlot})
	}
	if ep.onQuarantine != nil {
		ep.onQuarantine(now, conn)
	}
	fault.Report(ep.rep, fault.Violation{
		Kind: fault.LinkQuarantined, Component: "reliable " + ep.name, Time: now, Slot: fault.NoSlot,
		Detail: fmt.Sprintf("connection %d exhausted its retry budget (%d rounds, %d flits unacked), link quarantined",
			conn, tx.cfg.RetryBudget, len(tx.entries)),
	})
}

// Accept consumes one phit from the NI's receive path. It reassembles
// whole flits, verifies their CRC, filters duplicates and gaps on tracked
// connections and applies piggybacked acks. ok is true when a clean,
// in-order flit is ready: the NI then delivers f's phits exactly as the
// baseline protocol would have.
func (ep *Endpoint) Accept(now clock.Time, p phit.Phit) (f phit.Flit, ok bool) {
	if !p.Valid {
		if ep.asmLen > 0 {
			ep.flushPartial(now)
		}
		return f, false
	}
	head := p.Kind == phit.Header || p.Kind == phit.CreditOnly
	if head && ep.asmLen > 0 {
		// A new flit begins while one is open: the previous was truncated.
		ep.flushPartial(now)
	}
	if !head && ep.asmLen == 0 {
		// Mid-flit phit with no open flit: its head was lost in transit.
		ep.dropPhits(now, p.Meta.Conn, DropTruncated, 1)
		return f, false
	}
	ep.asm[ep.asmLen] = p
	ep.asmLen++
	if ep.asmLen < phit.FlitWords {
		return f, false
	}
	ep.asmLen = 0
	return ep.acceptFlit(now, ep.asm)
}

// flushPartial discards an incomplete flit assembly (a phit of it was
// dropped in transit).
func (ep *Endpoint) flushPartial(now clock.Time) {
	ep.dropPhits(now, ep.asm[0].Meta.Conn, DropTruncated, ep.asmLen)
	ep.asmLen = 0
}

// dropPhits records the loss of part of a flit on a connection.
func (ep *Endpoint) dropPhits(now clock.Time, conn phit.ConnID, reason int, phits int) {
	rx := ep.rx[conn]
	if rx != nil {
		rx.truncDrops++
		if rx.cfg.Tracked {
			ep.markLoss(rx, now)
		}
	}
	if ep.tr != nil {
		ep.tr.Emit(trace.Event{Time: now, Kind: trace.CRCDrop, Conn: conn,
			Arg: int64(reason), Seq: int64(phits), Slot: trace.NoSlot})
	}
}

// markLoss starts the head-of-line recovery clock if it is not already
// running: the interval until in-order delivery resumes is the
// connection's recovery latency.
func (ep *Endpoint) markLoss(rx *rxState, now clock.Time) {
	if !rx.lossValid {
		rx.lossValid = true
		rx.lossAt = now
	}
}

// acceptFlit verifies and filters one reassembled flit.
func (ep *Endpoint) acceptFlit(now clock.Time, f phit.Flit) (phit.Flit, bool) {
	conn := f[0].Meta.Conn
	rx := ep.rx[conn]
	sb, present, crcOK := phit.CheckSideband(&f)
	if !present || !crcOK {
		if rx != nil {
			rx.crcDrops++
			if rx.cfg.Tracked {
				ep.markLoss(rx, now)
			}
		}
		if ep.tr != nil {
			ep.tr.Emit(trace.Event{Time: now, Kind: trace.CRCDrop, Conn: conn,
				Arg: DropCRC, Seq: int64(sb.Seq), Slot: trace.NoSlot})
		}
		return f, false
	}
	// The flit is intact: apply its piggybacked cumulative ack before any
	// sequence filtering (acks ride on every flit of the direction,
	// duplicate or not — cumulative acks are idempotent).
	if sb.AckValid && rx != nil && rx.cfg.AckFor != phit.None {
		ep.applyAck(now, rx.cfg.AckFor, sb.Ack)
	}
	if rx == nil || !rx.cfg.Tracked {
		return f, true
	}
	switch d := phit.SeqDelta(sb.Seq, rx.expected); {
	case d == 0:
		rx.expected = (rx.expected + 1) & phit.SeqMask
		rx.needAck = true
		rx.accepted++
		if rx.lossValid {
			rx.lossValid = false
			rx.recovered++
			if ep.tr != nil {
				ep.tr.Emit(trace.Event{Time: now, Kind: trace.Recovered, Conn: conn,
					Arg: int64(now - rx.lossAt), Slot: trace.NoSlot})
			}
		}
		return f, true
	case d < 0:
		// Duplicate of an already accepted flit: the ack was lost. Drop
		// it but schedule a fresh ack so the sender stops resending.
		rx.dupDrops++
		rx.needAck = true
		if ep.tr != nil {
			ep.tr.Emit(trace.Event{Time: now, Kind: trace.CRCDrop, Conn: conn,
				Arg: DropDuplicate, Seq: int64(sb.Seq), Slot: trace.NoSlot})
		}
		return f, false
	default:
		// Gap: an earlier flit of this connection was lost whole.
		// Go-back-N keeps the receiver trivial: drop until the sender
		// rewinds.
		rx.gapDrops++
		ep.markLoss(rx, now)
		if ep.tr != nil {
			ep.tr.Emit(trace.Event{Time: now, Kind: trace.CRCDrop, Conn: conn,
				Arg: DropGap, Seq: int64(sb.Seq), Slot: trace.NoSlot})
		}
		return f, false
	}
}

// applyAck advances a windowed sender's base to a cumulative ack and
// returns the acked words as end-to-end credits.
func (ep *Endpoint) applyAck(now clock.Time, conn phit.ConnID, ack uint32) {
	tx := ep.tx[conn]
	if tx == nil || !tx.cfg.Windowed {
		return
	}
	d := int(phit.SeqDelta(ack, tx.base))
	if d <= 0 || d > len(tx.entries) {
		return // stale or out-of-window ack: ignore
	}
	words := 0
	for i := 0; i < d; i++ {
		words += tx.entries[i].words
	}
	tx.entries = append(tx.entries[:0], tx.entries[d:]...)
	tx.base = ack & phit.SeqMask
	tx.ackedFlits += int64(d)
	tx.ackedWords += int64(words)
	// Ack progress proves the path works: reset the escalation state and
	// cancel any in-flight resend round (a timeout re-opens it if the
	// remaining window is really stuck).
	tx.retries = 0
	tx.backoff = 1
	tx.resendPos = -1
	if len(tx.entries) > 0 {
		tx.deadline = now + clock.Time(tx.cfg.Timeout)
	}
	if ep.tr != nil {
		ep.tr.Emit(trace.Event{Time: now, Kind: trace.AckAdvance, Conn: conn,
			Seq: int64(ack), Arg: int64(words), Slot: trace.NoSlot})
	}
	if ep.credit != nil && words > 0 {
		ep.credit(now, conn, words)
	}
}

// TxStats is the send-side reliability aggregate of one connection.
type TxStats struct {
	Windowed         bool
	Timeout          clock.Duration // the configured resend timeout
	Quarantined      bool
	FreshFlits       int64 // flits entered into the window
	Retransmits      int64 // flits re-sent by go-back-N rounds
	AckedFlits       int64
	AckedWords       int64
	Outstanding      int // unacked flits currently in the window
	OutstandingWords int
	Retries          int // consecutive timeout rounds without ack progress
}

// TxStatsOf returns the send-side aggregate (ok false when the connection
// has no reliability shell here).
func (ep *Endpoint) TxStatsOf(conn phit.ConnID) (TxStats, bool) {
	tx := ep.tx[conn]
	if tx == nil {
		return TxStats{}, false
	}
	return TxStats{
		Windowed: tx.cfg.Windowed, Timeout: tx.cfg.Timeout, Quarantined: tx.quarantined,
		FreshFlits: tx.freshFlits, Retransmits: tx.retransmits,
		AckedFlits: tx.ackedFlits, AckedWords: tx.ackedWords,
		Outstanding: len(tx.entries), OutstandingWords: tx.outstandingWords(),
		Retries: tx.retries,
	}, true
}

// RxStats is the receive-side reliability aggregate of one connection.
type RxStats struct {
	Tracked    bool
	Accepted   int64 // clean in-order flits delivered
	CRCDrops   int64 // flits dropped on CRC or sideband failure
	GapDrops   int64 // flits dropped because an earlier one was lost
	DupDrops   int64 // duplicate flits dropped (lost-ack overlap)
	TruncDrops int64 // truncated-flit and stray-phit drops
	Recovered  int64 // head-of-line stalls that ended in recovery
}

// RxStatsOf returns the receive-side aggregate (ok false when the
// connection has no reliability shell here).
func (ep *Endpoint) RxStatsOf(conn phit.ConnID) (RxStats, bool) {
	rx := ep.rx[conn]
	if rx == nil {
		return RxStats{}, false
	}
	return RxStats{
		Tracked: rx.cfg.Tracked, Accepted: rx.accepted,
		CRCDrops: rx.crcDrops, GapDrops: rx.gapDrops, DupDrops: rx.dupDrops,
		TruncDrops: rx.truncDrops, Recovered: rx.recovered,
	}, true
}
