package phit

import (
	"fmt"

	"repro/internal/clock"
)

// FlitWords is the flit size in words. The paper fixes it to 3: the router
// has a 3-stage pipeline and the TDM slot, the flit and the router
// forwarding delay all coincide at 3 cycles.
const FlitWords = 3

// A Word is the bit-exact content of one phit. Widths above 64 bits appear
// only in the area model, never on simulated links, so uint64 suffices.
type Word uint64

// A ConnID identifies a connection (a unidirectional channel between two IP
// ports). The zero value means "no connection".
type ConnID int32

// None is the absent connection.
const None ConnID = 0

// Kind distinguishes the roles a valid phit can play.
type Kind uint8

const (
	// Idle marks an invalid phit (valid bit low).
	Idle Kind = iota
	// Header is the first word of a packet: path, queue id, credits.
	Header
	// Payload is user data.
	Payload
	// CreditOnly marks a header whose packet carries no payload; it
	// exists purely to return end-to-end credits on an otherwise idle
	// reverse channel.
	CreditOnly
	// Padding fills a TDM slot up to the full flit size. aelite links
	// always carry whole 3-word flits in used slots so the mesochronous
	// link FSM (paper Section V) can forward exactly FlitWords words per
	// flit cycle; padding words are part of the packet (they may carry
	// the EoP marker) and are discarded by the destination NI.
	Padding
)

func (k Kind) String() string {
	switch k {
	case Idle:
		return "idle"
	case Header:
		return "header"
	case Payload:
		return "payload"
	case CreditOnly:
		return "credit"
	case Padding:
		return "pad"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Meta is simulation-side bookkeeping attached to a phit. It has no
// hardware counterpart; it exists so that measurement (latency per word,
// per-connection accounting) and invariant checks do not have to re-derive
// identity from bit patterns.
type Meta struct {
	Conn     ConnID
	Seq      int64      // payload word sequence number within the connection
	Injected clock.Time // when the word was accepted by the source NI queue
	Sent     clock.Time // when the word left the source NI onto the network
}

// A Phit is the value on a link during one cycle: sideband valid and EoP
// control bits plus one data word.
type Phit struct {
	Valid bool
	EoP   bool
	Kind  Kind
	Data  Word
	Meta  Meta
	// SB is the reliability sideband word (see sideband.go), carried on
	// the first phit of a flit when the end-to-end reliability layer is
	// active and zero otherwise. Like the valid and EoP bits it models
	// extra link wires: routers, link stages and wrappers forward it
	// untouched, and the transient-fault model never flips its bits (the
	// CRC it carries protects the data wires, and real deployments would
	// protect the sideband separately, e.g. with a stronger code or
	// triplication).
	SB Word
}

// IdlePhit is the value of an undriven link.
var IdlePhit = Phit{}

func (p Phit) String() string {
	if !p.Valid {
		return "idle"
	}
	eop := ""
	if p.EoP {
		eop = "|eop"
	}
	return fmt.Sprintf("%s(c%d #%d 0x%x%s)", p.Kind, p.Meta.Conn, p.Meta.Seq, uint64(p.Data), eop)
}

// A Flit is one TDM slot's worth of phits.
type Flit [FlitWords]Phit

// Empty reports whether no phit in the flit is valid. Empty flits are the
// "empty tokens" of the asynchronous wrapper (paper Section VI): they carry
// no data but synchronise neighbouring elements.
func (f *Flit) Empty() bool {
	for _, p := range f {
		if p.Valid {
			return false
		}
	}
	return true
}
