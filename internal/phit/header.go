package phit

import (
	"errors"
	"fmt"
)

// A HeaderLayout describes how the first word of a packet packs the source
// route, the destination queue id and the piggybacked credits:
//
//	bit 0                                        WordBits-1
//	| path (PathBits)                | qid | credits | unused |
//
// The path field holds up to MaxHops() output-port indices of PortBits
// each, least-significant hop first. Every router consumes the low PortBits
// and shifts the remaining path down, so the port for the *current* hop is
// always in the low bits — exactly the hardware behaviour of the aelite
// Header Parsing Unit, which therefore needs no per-hop counter. The qid
// and credit fields sit at fixed positions above the path field and are
// untouched by routers; only the destination NI reads them.
type HeaderLayout struct {
	WordBits   int // link data width; path+qid+credits must fit
	PortBits   int // bits per hop in the path field
	PathBits   int // total width of the path field
	QIDBits    int // destination queue id width
	CreditBits int // piggybacked credit counter width
}

// DefaultLayout is sized for the paper's experiments: 32-bit words, routers
// up to arity 8 (3 bits per hop), up to 7 hops, 32 queues per NI and up to
// 31 credits per header.
var DefaultLayout = HeaderLayout{
	WordBits:   32,
	PortBits:   3,
	PathBits:   21,
	QIDBits:    5,
	CreditBits: 5,
}

// WideLayout is the scaled-up instance for large meshes: 64-bit links,
// the same arity-8 routers, up to 16 hops (enough for minimal routes on
// meshes up to diameter 14, e.g. 8x8), 64 queues per NI and up to 127
// credits per header. Scale studies pair it with 8-byte words so the
// header still occupies exactly one link word.
var WideLayout = HeaderLayout{
	WordBits:   64,
	PortBits:   3,
	PathBits:   48,
	QIDBits:    6,
	CreditBits: 7,
}

// LayoutFor picks the header layout for source routes of up to hops
// routers, and the word width in bytes that keeps the header one link
// word: the paper's 32-bit layout while it fits, the 64-bit WideLayout
// past it. On a cols x rows mesh the worst minimal route visits
// cols+rows-1 routers. Beyond WideLayout no runnable header exists: ok is
// false and the wide layout is returned for allocation-only planning.
func LayoutFor(hops int) (l HeaderLayout, wordBytes int, ok bool) {
	if hops <= DefaultLayout.MaxHops() {
		return DefaultLayout, 4, true
	}
	return WideLayout, 8, hops <= WideLayout.MaxHops()
}

// Validate checks internal consistency of the layout.
func (l HeaderLayout) Validate() error {
	switch {
	case l.WordBits <= 0 || l.WordBits > 64:
		return fmt.Errorf("phit: word width %d out of range (1..64)", l.WordBits)
	case l.PortBits <= 0 || l.PortBits > 8:
		return fmt.Errorf("phit: port bits %d out of range (1..8)", l.PortBits)
	case l.PathBits < l.PortBits:
		return fmt.Errorf("phit: path field (%d bits) narrower than one hop (%d bits)", l.PathBits, l.PortBits)
	case l.PathBits%l.PortBits != 0:
		return fmt.Errorf("phit: path field (%d bits) not a multiple of port bits (%d)", l.PathBits, l.PortBits)
	case l.QIDBits < 0 || l.CreditBits < 0:
		return errors.New("phit: negative field width")
	case l.PathBits+l.QIDBits+l.CreditBits > l.WordBits:
		return fmt.Errorf("phit: fields (%d+%d+%d bits) exceed word width %d",
			l.PathBits, l.QIDBits, l.CreditBits, l.WordBits)
	}
	return nil
}

// MaxHops returns the longest source route the path field can hold.
func (l HeaderLayout) MaxHops() int { return l.PathBits / l.PortBits }

// MaxPort returns the largest encodable output-port index.
func (l HeaderLayout) MaxPort() int { return 1<<l.PortBits - 1 }

// MaxQID returns the largest encodable queue id.
func (l HeaderLayout) MaxQID() int { return 1<<l.QIDBits - 1 }

// MaxCredits returns the largest credit count one header can carry.
func (l HeaderLayout) MaxCredits() int { return 1<<l.CreditBits - 1 }

func (l HeaderLayout) pathMask() Word   { return 1<<l.PathBits - 1 }
func (l HeaderLayout) portMask() Word   { return 1<<l.PortBits - 1 }
func (l HeaderLayout) qidShift() int    { return l.PathBits }
func (l HeaderLayout) creditShift() int { return l.PathBits + l.QIDBits }

// Encode packs a source route, queue id and credit count into a header
// word. The path lists the output-port index consumed at each successive
// router, first hop first.
func (l HeaderLayout) Encode(path []int, qid, credits int) (Word, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if len(path) > l.MaxHops() {
		return 0, fmt.Errorf("phit: path of %d hops exceeds layout maximum %d", len(path), l.MaxHops())
	}
	if qid < 0 || qid > l.MaxQID() {
		return 0, fmt.Errorf("phit: qid %d out of range (0..%d)", qid, l.MaxQID())
	}
	if credits < 0 || credits > l.MaxCredits() {
		return 0, fmt.Errorf("phit: credits %d out of range (0..%d)", credits, l.MaxCredits())
	}
	var w Word
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		if p < 0 || p > l.MaxPort() {
			return 0, fmt.Errorf("phit: port %d at hop %d out of range (0..%d)", p, i, l.MaxPort())
		}
		w = w<<l.PortBits | Word(p)
	}
	w |= Word(qid) << l.qidShift()
	w |= Word(credits) << l.creditShift()
	return w, nil
}

// NextPort extracts the output port for the current hop and returns the
// header with the path shifted down by one hop, as the aelite HPU does in
// hardware.
func (l HeaderLayout) NextPort(w Word) (port int, shifted Word) {
	port = int(w & l.portMask())
	path := (w & l.pathMask()) >> l.PortBits
	shifted = (w &^ l.pathMask()) | path
	return port, shifted
}

// QID extracts the destination queue id.
func (l HeaderLayout) QID(w Word) int {
	return int(w>>l.qidShift()) & l.MaxQID()
}

// Credits extracts the piggybacked credit count.
func (l HeaderLayout) Credits(w Word) int {
	return int(w>>l.creditShift()) & l.MaxCredits()
}

// WithCredits returns the header word with its credit field replaced.
func (l HeaderLayout) WithCredits(w Word, credits int) (Word, error) {
	if credits < 0 || credits > l.MaxCredits() {
		return 0, fmt.Errorf("phit: credits %d out of range (0..%d)", credits, l.MaxCredits())
	}
	mask := Word(l.MaxCredits()) << l.creditShift()
	return (w &^ mask) | Word(credits)<<l.creditShift(), nil
}

// DecodePath recovers the remaining path (up to maxHops entries, or until
// the field is exhausted) from a header word. It is primarily a test and
// diagnostics helper: hardware never decodes the whole path at once.
func (l HeaderLayout) DecodePath(w Word, hops int) []int {
	if hops > l.MaxHops() {
		hops = l.MaxHops()
	}
	out := make([]int, 0, hops)
	path := w & l.pathMask()
	for i := 0; i < hops; i++ {
		out = append(out, int(path&l.portMask()))
		path >>= l.PortBits
	}
	return out
}
