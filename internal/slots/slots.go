package slots

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/parallel"
	"repro/internal/phit"
	"repro/internal/route"
	"repro/internal/topology"
)

// A Table is one NI's injection slot table: Slots[s] names the connection
// that may inject a flit in slot s, or phit.None.
type Table struct {
	Slots []phit.ConnID
}

// NewTable returns an all-idle table of the given size.
func NewTable(size int) *Table {
	if size <= 0 {
		panic(fmt.Sprintf("slots: table size %d must be positive", size))
	}
	return &Table{Slots: make([]phit.ConnID, size)}
}

// Size returns the table period in slots.
func (t *Table) Size() int { return len(t.Slots) }

// Owner returns the connection owning slot s (taken modulo the size).
func (t *Table) Owner(s int) phit.ConnID {
	return t.Slots[s%len(t.Slots)]
}

// SlotsOf returns the slots owned by the given connection, in order.
func (t *Table) SlotsOf(c phit.ConnID) []int {
	var out []int
	for s, owner := range t.Slots {
		if owner == c {
			out = append(out, s)
		}
	}
	return out
}

// A Request asks the allocator for slot reservations for one connection.
type Request struct {
	Conn phit.ConnID
	// Paths lists candidate routes in preference order; the allocator
	// uses the first one on which it can find enough free slots.
	Paths []*route.Path
	// Count is the number of slots required per table revolution.
	Count int
	// GapTarget, when positive, is the largest tolerable service
	// window, in slots: the worst sum of WindowSlots consecutive
	// reservation gaps must not exceed it (the latency requirement in
	// slot form). If the evenly-spread ideal cannot be realised on the
	// loaded table, the allocator adds slots until the realised window
	// meets the target.
	GapTarget int
	// WindowSlots is the number of consecutive owned slots a whole
	// transaction needs (1 for single-word latency requirements).
	WindowSlots int
}

// An Assignment is the allocator's answer for one connection. Different
// slots may ride different (equal-length, equal-shift) minimal paths —
// the freedom the Æthereal allocation tools exploit to defeat slot
// fragmentation on loaded meshes. Because every candidate path has the
// same TotalShift, per-slot path mixing preserves in-order delivery.
type Assignment struct {
	Conn  phit.ConnID
	Path  *route.Path // primary (first) path, for reporting
	Slots []int       // injection slots at the source NI, ascending
	// PathOf gives the path each slot was reserved on: PathOf[i] carries
	// Slots[i].
	PathOf []*route.Path
}

// An Allocation is a complete, contention-free set of assignments over a
// topology.
type Allocation struct {
	TableSize int
	ByConn    map[phit.ConnID]*Assignment
	// links is the occupancy table, indexed by topology.LinkID. A link no
	// claim has ever touched has no entry (or a zero one) and reads as
	// free; only Claim materialises rows.
	links []linkRow
	// owners and busy: the rest of the chunks materialise carves rows from.
	owners []phit.ConnID
	busy   []uint64
	// scratch is the working memory of the placement search and of Verify.
	// It makes them, like Claim, unsafe for concurrent use on one
	// Allocation.
	scratch scratch
}

// A scratch holds the buffers the placement search and Verify refill on
// every call, so that a steady-state placement allocates nothing but the
// Assignment it returns. Nothing in it outlives a call.
type scratch struct {
	masks   []uint64      // per candidate path its joint-free slot set, maskWords each
	avail   []uint64      // slots free on some candidate and not yet chosen
	chosen  []int         // the slots chosen so far
	paths   []*route.Path // a request's candidates, grouped by TotalShift
	hottest []int         // per path of a group, its hottest link's used-slot count
	claimed []uint64      // Verify: per worker, per link the slots its assignments claim, maskWords each
	count   []int32       // blockers: per ConnID its blocking slots, negative when not rippable; zero between calls
	touched []phit.ConnID // blockers: the ids whose count is set, to reset
}

// sized sets the scratch buffer's length to n, reallocating only when it is
// too small, and returns it. The contents are unspecified.
func sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// A linkRow is one link's slot occupancy in three redundant forms, kept in
// step by Claim and Release and cross-checked by Verify: who owns each
// slot, the same as a bitset (the form the free-slot search ANDs across a
// path), and how many slots are owned (so utilisation is a lookup).
type linkRow struct {
	owner []phit.ConnID // owner[slot], phit.None when free; len TableSize
	busy  []uint64      // bit slot set iff owner[slot] != phit.None
	used  int           // number of set bits
}

// NewAllocation returns an empty allocation with the given table size.
func NewAllocation(tableSize int) *Allocation {
	if tableSize <= 0 {
		panic(fmt.Sprintf("slots: table size %d must be positive", tableSize))
	}
	return &Allocation{
		TableSize: tableSize,
		ByConn:    make(map[phit.ConnID]*Assignment),
	}
}

// maskWords is the length of a slot bitset for this table size.
func (a *Allocation) maskWords() int { return (a.TableSize + 63) / 64 }

// row returns the link's occupancy for reading, or nil when nothing was
// ever claimed on it. Queries go through here so they never allocate.
func (a *Allocation) row(l topology.LinkID) *linkRow {
	if l < 0 || int(l) >= len(a.links) || a.links[l].owner == nil {
		return nil
	}
	return &a.links[l]
}

// rowChunk is how many link rows materialise carves from one allocation.
const rowChunk = 64

// materialise returns the link's occupancy for writing, creating it on
// first use. Only Claim calls it.
func (a *Allocation) materialise(l topology.LinkID) *linkRow {
	if int(l) >= len(a.links) {
		a.links = append(a.links, make([]linkRow, int(l)+1-len(a.links))...)
	}
	r := &a.links[l]
	if r.owner == nil {
		t, words := a.TableSize, a.maskWords()
		if len(a.owners) == 0 {
			a.owners = make([]phit.ConnID, rowChunk*t)
			a.busy = make([]uint64, rowChunk*words)
		}
		r.owner, a.owners = a.owners[:t:t], a.owners[t:]
		r.busy, a.busy = a.busy[:words:words], a.busy[words:]
	}
	return r
}

// wrap reduces an injection slot plus a hop's shift to a slot of the link:
// one subtraction on any path shorter than the table, % only past that.
func (a *Allocation) wrap(slot int) int {
	if slot >= a.TableSize {
		if slot -= a.TableSize; slot >= a.TableSize {
			slot %= a.TableSize
		}
	}
	return slot
}

// freeMask writes into mask (length maskWords) the injection slots that are
// free on every link of p — bit s is set iff SlotFree(p, s) — and returns
// the used-slot count of p's hottest link. Each link's busy set is rotated
// by the link's shift into injection-slot coordinates and the rotations are
// ORed, so the whole table is answered in a few word operations per hop
// instead of TableSize probes per hop.
func (a *Allocation) freeMask(p *route.Path, mask []uint64) (hottest int) {
	t := a.TableSize
	clear(mask)
	for _, h := range p.Links {
		r := a.row(h.Link)
		if r == nil || r.used == 0 {
			continue
		}
		hottest = max(hottest, r.used)
		orRotated(mask, r.busy, a.wrap(int(h.Shift)), t)
	}
	// mask holds the blocked slots; the free ones are its complement
	// within the table.
	for i := range mask {
		mask[i] = ^mask[i]
	}
	if rem := t % 64; rem != 0 {
		mask[len(mask)-1] &= 1<<uint(rem) - 1
	}
	return hottest
}

// orRotated ORs into dst the t-bit set src rotated down by r (0 <= r < t):
// bit s of the rotation is bit (s+r) mod t of src. Bits of dst at or above
// t may be set as a side effect; freeMask masks them off once at the end.
func orRotated(dst, src []uint64, r, t int) {
	orShiftedDown(dst, src, r)
	orShiftedUp(dst, src, t-r)
}

// orShiftedDown ORs src >> n into dst, both little-endian word slices of
// the same length.
func orShiftedDown(dst, src []uint64, n int) {
	w, b := n/64, uint(n%64)
	for i := 0; i+w < len(src); i++ {
		v := src[i+w] >> b
		if b != 0 && i+w+1 < len(src) {
			v |= src[i+w+1] << (64 - b)
		}
		dst[i] |= v
	}
}

// orShiftedUp ORs src << n into dst; bits shifted past the last word are
// dropped.
func orShiftedUp(dst, src []uint64, n int) {
	w, b := n/64, uint(n%64)
	for i := len(dst) - 1; i-w >= 0; i-- {
		v := src[i-w] << b
		if b != 0 && i-w-1 >= 0 {
			v |= src[i-w-1] >> (64 - b)
		}
		dst[i] |= v
	}
}

// SlotFree reports whether injection slot s is free on every link of path p.
func (a *Allocation) SlotFree(p *route.Path, s int) bool {
	for _, h := range p.Links {
		if r := a.row(h.Link); r != nil && r.owner[a.wrap(s+int(h.Shift))] != phit.None {
			return false
		}
	}
	return true
}

// Claim reserves injection slot s on every link of p for connection c. It
// panics if the slot is taken: callers must check SlotFree first, and a
// violation means the allocator itself is broken.
func (a *Allocation) Claim(c phit.ConnID, p *route.Path, s int) {
	for _, h := range p.Links {
		slot := a.wrap(s + int(h.Shift))
		r := a.materialise(h.Link)
		if r.owner[slot] != phit.None {
			panic(fmt.Sprintf("slots: link %d slot %d already owned by connection %d", h.Link, slot, r.owner[slot]))
		}
		r.owner[slot] = c
		r.busy[slot/64] |= 1 << uint(slot%64)
		r.used++
	}
}

// unclaim is Claim's inverse for one injection slot: it panics unless c
// owns the slot on every link of p.
func (a *Allocation) unclaim(c phit.ConnID, p *route.Path, s int) {
	for _, h := range p.Links {
		slot := a.wrap(s + int(h.Shift))
		r := a.row(h.Link)
		if r == nil || r.owner[slot] != c {
			panic(fmt.Sprintf("slots: link %d slot %d owned by %d, not releasing connection %d",
				h.Link, slot, a.LinkOwner(h.Link, slot), c))
		}
		r.owner[slot] = phit.None
		r.busy[slot/64] &^= 1 << uint(slot%64)
		r.used--
	}
}

// LinkOwner returns the connection occupying the link in the given slot.
func (a *Allocation) LinkOwner(l topology.LinkID, slot int) phit.ConnID {
	r := a.row(l)
	if r == nil {
		return phit.None
	}
	return r.owner[slot%a.TableSize]
}

// linkUsed returns the number of occupied slots on the link.
func (a *Allocation) linkUsed(l topology.LinkID) int {
	if r := a.row(l); r != nil {
		return r.used
	}
	return 0
}

// LinkUtilisation returns the fraction of slots occupied on the link.
func (a *Allocation) LinkUtilisation(l topology.LinkID) float64 {
	return float64(a.linkUsed(l)) / float64(a.TableSize)
}

// NITable builds the injection slot table for the given source NI from the
// assignments in the allocation.
func (a *Allocation) NITable(ni topology.NodeID) *Table {
	t := NewTable(a.TableSize)
	for _, as := range a.ByConn {
		if as.Path.Src != ni {
			continue
		}
		for _, s := range as.Slots {
			if t.Slots[s] != phit.None {
				panic(fmt.Sprintf("slots: NI %d slot %d doubly assigned (%d and %d)", ni, s, t.Slots[s], as.Conn))
			}
			t.Slots[s] = as.Conn
		}
	}
	return t
}

// Verify recomputes from the assignments which slots of which links are
// claimed and reports any double-booking — the structural
// contention-freedom check — and then holds the live table against the
// recomputation: every claim must be owned by its claimant, every owned
// slot must be claimed, and every bitset bit and used counter must agree
// with the owners, so a claim leaked or left stale by a release or an
// undone repair is caught too.
//
// A large allocation splits the connection walk, and then the link sweep,
// into contiguous ranges, one per worker, each claiming into its own set.
// The error is the one a single walk in ascending order meets first.
func (a *Allocation) Verify() error {
	conns := a.Conns()
	jobs, words := verifyJobs(len(conns)), a.maskWords()
	span := words * len(a.links)
	claimed := sized(&a.scratch.claimed, jobs*span)
	set := func(k int) []uint64 { return claimed[k*span : (k+1)*span] }
	part := func(k int) []phit.ConnID { return conns[k*len(conns)/jobs : (k+1)*len(conns)/jobs] }
	errs, _ := parallel.Map(jobs, jobs, func(k int) (error, error) {
		clear(set(k))
		return a.claimAll(part(k), set(k)), nil
	})
	for k, err := range errs {
		if err != nil {
			// A range that met no error claimed only slots its own
			// connections own, so a single walk meets none there either: its
			// first error is in range k, walked again here on their claims.
			clear(set(k))
			for j := range k {
				orInto(set(k), set(j))
			}
			return a.claimAll(part(k), set(k))
		}
	}
	_, err := parallel.Map(jobs, jobs, func(k int) (struct{}, error) {
		lo, hi := k*len(a.links)/jobs, (k+1)*len(a.links)/jobs
		for j := 1; j < jobs; j++ {
			orInto(set(0)[lo*words:hi*words], set(j)[lo*words:hi*words])
		}
		return struct{}{}, a.sweep(lo, hi, set(0))
	})
	return err
}

// parallelVerify is the smallest number of assignments whose Verify is split
// across workers.
const parallelVerify = 1024

// verifyJobs returns how many ranges Verify splits n assignments into.
func verifyJobs(n int) int {
	if n < parallelVerify {
		return 1
	}
	return min(parallel.Jobs(0), n)
}

// orInto ORs src into dst, both of one length.
func orInto(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// claimAll walks the assignments of conns (ascending), marking their claims
// in claimed, and returns the first error it meets.
func (a *Allocation) claimAll(conns []phit.ConnID, claimed []uint64) error {
	t, words := a.TableSize, a.maskWords()
	for _, c := range conns {
		as := a.ByConn[c]
		if len(as.Slots) == 0 {
			return fmt.Errorf("slots: connection %d has no slots", c)
		}
		if len(as.PathOf) != len(as.Slots) {
			return fmt.Errorf("slots: connection %d has %d slots but paths for %d", c, len(as.Slots), len(as.PathOf))
		}
		for i, s := range as.Slots {
			if s < 0 || s >= t {
				return fmt.Errorf("slots: connection %d slot %d out of range", c, s)
			}
			for _, h := range as.PathOf[i].Links {
				slot := a.wrap(s + int(h.Shift))
				have := phit.None
				if r := a.row(h.Link); r != nil {
					have = r.owner[slot]
				}
				at, bit := int(h.Link)*words+slot/64, uint64(1)<<uint(slot%64)
				// An owned slot has a row, so claimed covers it. Only a
				// slot's owner marks it, and connections are visited in
				// ascending order, as the message names them.
				if have != phit.None && claimed[at]&bit != 0 {
					return fmt.Errorf("slots: contention on link %d slot %d between connections %d and %d",
						h.Link, slot, have, c)
				}
				if have != c || have == phit.None {
					return fmt.Errorf("slots: link %d slot %d: table says connection %d, assignments say %d (stale or leaked claim)",
						h.Link, slot, have, c)
				}
				claimed[at] |= bit
			}
		}
	}
	return nil
}

// sweep checks links [from, to) against claimed, the merged claims of every
// assignment, and returns the first error it meets. The claims are a subset
// of the owned slots, so a row is right when, a word of 64 slots at a time,
// its owners, its occupancy bits and the claims are one set. Only a word
// that disagrees is walked slot by slot, to name its first wrong slot (or,
// for a stray bit past the table's end, to find none).
func (a *Allocation) sweep(from, to int, claimed []uint64) error {
	t, words := a.TableSize, a.maskWords()
	for l := from; l < to; l++ {
		r := a.row(topology.LinkID(l))
		if r == nil {
			continue
		}
		used := 0
		for w := range words {
			lo, hi := w*64, min(w*64+64, t)
			owned := uint64(0)
			for i, have := range r.owner[lo:hi] {
				// The sign bit of have|-have is set iff have != phit.None:
				// no branch to mispredict on a half-full row.
				owned |= uint64(uint32(have|-have)>>31) << uint(i)
			}
			if owned == claimed[l*words+w] && owned == r.busy[w] {
				used += bits.OnesCount64(owned)
				continue
			}
			for slot := lo; slot < hi; slot++ {
				have := r.owner[slot]
				if have != phit.None && claimed[l*words+w]>>uint(slot%64)&1 == 0 {
					return fmt.Errorf("slots: link %d slot %d: table says connection %d, no assignment claims it (stale or leaked claim)",
						l, slot, have)
				}
				if bit := r.busy[w]>>uint(slot%64)&1 != 0; bit != (have != phit.None) {
					return fmt.Errorf("slots: link %d slot %d: occupancy bit %v disagrees with owner %d", l, slot, bit, have)
				}
				if have != phit.None {
					used++
				}
			}
		}
		if r.used != used {
			return fmt.Errorf("slots: link %d: used counter %d, %d slots owned", l, r.used, used)
		}
	}
	return nil
}

// Release frees every claim of a connection, making its slots available
// to future AllocateInto calls — one half of use-case reconfiguration
// (Hansson et al., DATE 2007 [16]: applications are added and removed
// without disrupting the others, because slot ownership is the only
// shared state).
func (a *Allocation) Release(c phit.ConnID) {
	asg := a.ByConn[c]
	if asg == nil {
		panic(fmt.Sprintf("slots: release of unknown connection %d", c))
	}
	for i, s := range asg.Slots {
		a.unclaim(c, asg.PathOf[i], s)
	}
	delete(a.ByConn, c)
}

// ReleaseAll frees every claim of the given connections as one atomic
// reconfiguration step: all of them are validated as live owners before
// any slot changes hands, so a bad id leaves the allocation untouched
// instead of half-released. This is how CloseConnection retires a data
// connection and its credit channel together — the table never passes
// through a state where one direction is free and the other still owned.
func (a *Allocation) ReleaseAll(cs ...phit.ConnID) {
	for _, c := range cs {
		if a.ByConn[c] == nil {
			panic(fmt.Sprintf("slots: release of unknown connection %d", c))
		}
	}
	for _, c := range cs {
		a.Release(c)
	}
}

// Clone deep-copies the allocation: the scratchpad on which admission
// control runs trial placements without touching the live table. Paths
// are shared (they are immutable once routed); slot sets and link
// occupancy are copied. The allocators themselves no longer clone — rip-up
// repairs run in place under an undo list — so this is admission's tool
// only.
func (a *Allocation) Clone() *Allocation {
	c := &Allocation{
		TableSize: a.TableSize,
		ByConn:    make(map[phit.ConnID]*Assignment, len(a.ByConn)),
		links:     append([]linkRow(nil), a.links...),
	}
	for id, asg := range a.ByConn {
		c.ByConn[id] = &Assignment{
			Conn:   asg.Conn,
			Path:   asg.Path,
			Slots:  append([]int(nil), asg.Slots...),
			PathOf: append([]*route.Path(nil), asg.PathOf...),
		}
	}
	for l := range c.links {
		r := &c.links[l]
		r.owner = append([]phit.ConnID(nil), r.owner...)
		r.busy = append([]uint64(nil), r.busy...)
	}
	return c
}

// Conns returns the ids of every live owner, ascending — the iteration
// surface of the release-overlap property check.
func (a *Allocation) Conns() []phit.ConnID {
	out := make([]phit.ConnID, 0, len(a.ByConn))
	for c := range a.ByConn {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// AllocateInto places additional requests into an existing allocation —
// the other half of reconfiguration: connections of a newly started
// application claim only slots that are currently free, so running
// applications are untouched by construction. It is the greedy strategy;
// Allocator (allocator.go) is the seam for alternatives.
func AllocateInto(a *Allocation, requests []Request) error {
	_, err := Greedy{}.Place(a, requests, false)
	return err
}

// requestOrder returns the deterministic service order of the requests:
// tightest gap targets first (they need regular combs, which only an
// empty table offers; requests without a target sort last), then heaviest
// slot counts, then longest primary paths, ties by connection id.
func requestOrder(requests []Request) []int {
	order := make([]int, len(requests))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		ri, rj := requests[order[i]], requests[order[j]]
		gi, gj := ri.GapTarget, rj.GapTarget
		if gi <= 0 {
			gi = 1 << 30
		}
		if gj <= 0 {
			gj = 1 << 30
		}
		if gi != gj {
			return gi < gj
		}
		if ri.Count != rj.Count {
			return ri.Count > rj.Count
		}
		hi, hj := len(ri.Paths[0].Links), len(rj.Paths[0].Links)
		if hi != hj {
			return hi > hj
		}
		return ri.Conn < rj.Conn
	})
	return order
}

// checkRequest rejects malformed requests — misuse, as opposed to a
// legitimate placement failure, so these abort even best-effort passes.
func checkRequest(a *Allocation, req Request) error {
	if req.Count <= 0 {
		return fmt.Errorf("slots: connection %d requests %d slots", req.Conn, req.Count)
	}
	if req.Count > a.TableSize {
		return fmt.Errorf("slots: connection %d needs %d slots, table has %d", req.Conn, req.Count, a.TableSize)
	}
	if _, dup := a.ByConn[req.Conn]; dup {
		return fmt.Errorf("slots: duplicate request for connection %d", req.Conn)
	}
	return nil
}

// placeRequest finds a placement for one (pre-checked) request on the
// current allocation, or nil when none exists. It does not claim slots;
// commitAssignment does.
func placeRequest(a *Allocation, req Request) *Assignment {
	tableSize, words := a.TableSize, a.maskWords()
	// Stagger each connection's ideal slot positions so that
	// equal-count connections do not all fight for the same
	// comb (0, S/k, 2S/k, ...), which fragments the joint
	// free-slot sets of multi-hop paths.
	offset := int(uint32(req.Conn)*2654435761) % tableSize
	// Per-slot path mixing is only valid between paths of equal
	// TotalShift (words would reorder otherwise), so group the
	// candidates by shift — minimal routes first, detours after —
	// and take the first group that fits. Within a group, prefer
	// the path whose hottest link is coolest.
	sc := &a.scratch
	paths := sc.paths[:0]
	for i, p := range req.Paths {
		if hasShift(req.Paths[:i], p.TotalShift) {
			continue // gathered with the first path of its group
		}
		for _, q := range req.Paths[i:] {
			if q.TotalShift == p.TotalShift {
				paths = append(paths, q)
			}
		}
	}
	sc.paths = paths
	ws := req.WindowSlots
	if ws < 1 {
		ws = 1
	}
	for len(paths) > 0 {
		n := 1
		for n < len(paths) && paths[n].TotalShift == paths[0].TotalShift {
			n++
		}
		group := paths[:n]
		paths = paths[n:]
		// One walk per path fills its joint-free mask and scores it by its
		// hottest link's used-slot count (the table size is common, so
		// counts order as utilisations do), then a stable insertion sort
		// moves the masks with their paths: groups hold a handful of paths.
		masks := sized(&sc.masks, words*n)
		hottest := sized(&sc.hottest, n)
		for i, p := range group {
			hottest[i] = a.freeMask(p, masks[i*words:(i+1)*words])
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && hottest[j] < hottest[j-1]; j-- {
				group[j], group[j-1] = group[j-1], group[j]
				hottest[j], hottest[j-1] = hottest[j-1], hottest[j]
				for w := j * words; w < (j+1)*words; w++ {
					masks[w], masks[w-words] = masks[w-words], masks[w]
				}
			}
		}
		if asg := pickSlotsMultiPath(a, group, masks, req.Count, req.GapTarget, ws, offset); asg != nil {
			return asg
		}
	}
	return nil
}

// hasShift reports whether any of the paths has the given TotalShift.
func hasShift(paths []*route.Path, totalShift int) bool {
	for _, p := range paths {
		if p.TotalShift == totalShift {
			return true
		}
	}
	return false
}

// commitAssignment claims the chosen slots and records the assignment.
func commitAssignment(a *Allocation, req Request, asg *Assignment) {
	for i, s := range asg.Slots {
		a.Claim(req.Conn, asg.PathOf[i], s)
	}
	asg.Conn = req.Conn
	asg.Path = req.Paths[0]
	a.ByConn[req.Conn] = asg
}

// placementError builds the diagnostic for an unplaceable request: per
// candidate path, the joint-free slot count and the hottest link.
func placementError(a *Allocation, req Request) *PlacementError {
	tableSize := a.TableSize
	pe := &PlacementError{Conn: req.Conn, Needed: req.Count, GapTarget: req.GapTarget,
		Table: tableSize, Link: topology.Invalid}
	mask := sized(&a.scratch.masks, a.maskWords())
	mostFree := -1
	for pi, p := range req.Paths {
		a.freeMask(p, mask)
		worstLink, worstUtil := topology.LinkID(-1), 0.0
		for _, h := range p.Links {
			if u := a.LinkUtilisation(h.Link); u > worstUtil {
				worstLink, worstUtil = h.Link, u
			}
		}
		free := popcount(mask)
		pe.Detail += fmt.Sprintf("; path %d: %d joint-free slots, hottest link %d at %.0f%%",
			pi, free, worstLink, worstUtil*100)
		if free > mostFree {
			mostFree, pe.Link, pe.FreeSlots = free, worstLink, tableSize-a.linkUsed(worstLink)
		}
	}
	return pe
}

// pickSlotsMultiPath chooses at least count injection slots where each
// slot may be reserved on any of the candidate paths (tried in the given
// preference order); masks holds each path's joint-free slot set as
// freeMask computes it, maskWords per path. When gapTarget is positive the
// chosen set's cyclic MaxGap must not exceed it; a greedy
// furthest-within-target cover is computed first and then topped up to
// count. It returns nil when the free-slot union cannot satisfy the
// request. It works out of the allocation's scratch and allocates only the
// Assignment it returns.
func pickSlotsMultiPath(a *Allocation, paths []*route.Path, masks []uint64, count, windowTarget, windowSlots, offset int) *Assignment {
	t, words := a.TableSize, a.maskWords()
	sc := &a.scratch
	// avail is the masks' union, less every slot chosen so far.
	avail := sized(&sc.avail, words)
	clear(avail)
	for i := range paths {
		for w, bitsFree := range masks[i*words : (i+1)*words] {
			avail[w] |= bitsFree
		}
	}
	if popcount(avail) < count {
		return nil
	}
	// Choose count slots near evenly spread ideals. Of two free slots
	// equally near an ideal, the lower-numbered one wins.
	sc.chosen = sc.chosen[:0]
	for i := 0; i < count; i++ {
		ideal := (i*t/count + offset) % t
		up, down := nextSet(avail, ideal), prevSet(avail, ideal)
		if up < 0 {
			up = nextSet(avail, 0) // wrap: the lowest free slot
		}
		if down < 0 {
			down = prevSet(avail, t-1) // wrap: the highest free slot
		}
		s := min(up, down)
		if du, dd := (up-ideal+t)%t, (ideal-down+t)%t; du < dd {
			s = up
		} else if dd < du {
			s = down
		}
		avail[s/64] &^= 1 << uint(s%64)
		sc.chosen = append(sc.chosen, s)
	}
	slices.Sort(sc.chosen)
	if windowTarget > 0 && !sc.repairWindow(t, windowTarget, windowSlots) {
		return nil
	}
	asg := &Assignment{Slots: make([]int, len(sc.chosen)), PathOf: make([]*route.Path, len(sc.chosen))}
	copy(asg.Slots, sc.chosen)
	for i, s := range asg.Slots {
		// The first candidate path with slot s free carries it.
		for pi := 0; asg.PathOf[i] == nil; pi++ {
			if masks[pi*words+s/64]>>uint(s%64)&1 != 0 {
				asg.PathOf[i] = paths[pi]
			}
		}
	}
	return asg
}

// repairWindow enforces the window constraint on the chosen slots
// (ascending): while the worst windowSlots-gap window exceeds the target,
// it adds a free slot inside that window's largest gap. Each addition
// strictly shrinks some gap, so this terminates. It reports false when no
// free slot can shrink the window.
func (sc *scratch) repairWindow(t, windowTarget, windowSlots int) bool {
	for {
		w, at := maxGapWindowAt(sc.chosen, t, windowSlots)
		if w <= windowTarget {
			return true
		}
		// The offending window spans gaps starting at chosen index at;
		// find its largest gap and a free slot inside.
		bestSlot, bestGap := -1, 0
		for j := 0; j < windowSlots && j < len(sc.chosen); j++ {
			i0 := (at + j) % len(sc.chosen)
			from := sc.chosen[i0]
			gap := cyclicGap(sc.chosen, i0, t)
			if gap <= bestGap {
				continue
			}
			// Free slot nearest the gap's middle.
			mid := (from + gap/2) % t
			for d := 0; d < gap/2+1 && bestGap != gap; d++ {
				for _, cand := range [2]int{(mid + d) % t, (mid - d + t) % t} {
					if sc.avail[cand/64]>>uint(cand%64)&1 != 0 && inGap(from, gap, cand, t) {
						bestSlot, bestGap = cand, gap
						break
					}
				}
			}
		}
		if bestSlot < 0 {
			return false
		}
		sc.avail[bestSlot/64] &^= 1 << uint(bestSlot%64)
		pos, _ := slices.BinarySearch(sc.chosen, bestSlot)
		sc.chosen = slices.Insert(sc.chosen, pos, bestSlot)
	}
}

// popcount returns the number of set bits in a slot set.
func popcount(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

// nextSet returns the lowest set bit of set at or above from, or -1.
func nextSet(set []uint64, from int) int {
	w := from / 64
	if v := set[w] >> uint(from%64); v != 0 {
		return from + bits.TrailingZeros64(v)
	}
	for w++; w < len(set); w++ {
		if set[w] != 0 {
			return w*64 + bits.TrailingZeros64(set[w])
		}
	}
	return -1
}

// prevSet returns the highest set bit of set at or below from, or -1.
func prevSet(set []uint64, from int) int {
	w := from / 64
	if v := set[w] << uint(63-from%64); v != 0 {
		return from - bits.LeadingZeros64(v)
	}
	for w--; w >= 0; w-- {
		if set[w] != 0 {
			return w*64 + 63 - bits.LeadingZeros64(set[w])
		}
	}
	return -1
}

// inGap reports whether slot cand lies strictly inside the cyclic gap
// starting at from with the given length.
func inGap(from, gap, cand, tableSize int) bool {
	d := cand - from
	if d < 0 {
		d += tableSize
	}
	return d > 0 && d < gap
}

// maxGapWindowAt returns the worst sum of m consecutive cyclic gaps and
// the index of the chosen slot where that window starts. When m exceeds
// the slot count, the services wrap around whole table revolutions: k
// slots deliver k services per revolution, so m services cost
// floor(m/k) full revolutions plus the worst (m mod k)-gap window.
func maxGapWindowAt(sorted []int, tableSize, m int) (int, int) {
	if len(sorted) == 0 {
		return tableSize * m, 0
	}
	k := len(sorted)
	full := (m / k) * tableSize
	rem := m % k
	if rem == 0 {
		// The worst case still starts just after the least
		// convenient slot; a full multiple of revolutions is
		// position-independent.
		return full, 0
	}
	best, at := 0, 0
	for i := range sorted {
		sum := 0
		for j := 0; j < rem; j++ {
			sum += cyclicGap(sorted, (i+j)%k, tableSize)
		}
		if sum > best {
			best, at = sum, i
		}
	}
	return full + best, at
}

// cyclicGap returns the distance from sorted[i] to the next slot of the
// set, cyclically; a single slot is a whole revolution from itself.
func cyclicGap(sorted []int, i, tableSize int) int {
	g := sorted[(i+1)%len(sorted)] - sorted[i]
	if g <= 0 {
		g += tableSize
	}
	return g
}

// A PlacementError reports the first connection the greedy allocator
// could not place; callers can relax that connection's requirement (more
// table sizes, a looser latency budget) and retry.
type PlacementError struct {
	Conn      phit.ConnID
	Needed    int
	GapTarget int
	Table     int
	// Link is the link that ran out: the hottest link of the candidate path
	// with the most joint-free slots (topology.Invalid when no link of it
	// carries a claim). FreeSlots is how many of its slots are still free.
	Link      topology.LinkID
	FreeSlots int
	Detail    string
}

func (e *PlacementError) Error() string {
	return fmt.Sprintf("slots: no feasible slots for connection %d (%d needed, gap target %d, table %d)%s",
		e.Conn, e.Needed, e.GapTarget, e.Table, e.Detail)
}

// MaxGapWindow returns the largest sum of m consecutive cyclic gaps of
// the slot set — the worst-case time, in slots, to obtain m services
// starting from an arbitrary instant. It drives the transactional latency
// bound.
func MaxGapWindow(slotSet []int, tableSize, m int) int {
	sorted := append([]int(nil), slotSet...)
	sort.Ints(sorted)
	w, _ := maxGapWindowAt(sorted, tableSize, m)
	return w
}

// MaxGap returns the largest distance, in slots, from one owned slot to
// the next (cyclically). A connection injecting a word just after missing
// its slot waits at most MaxGap slots; this drives the worst-case latency
// bound.
func MaxGap(slots []int, tableSize int) int {
	if len(slots) == 0 {
		return tableSize
	}
	sorted := append([]int(nil), slots...)
	sort.Ints(sorted)
	max := 0
	for i := range sorted {
		next := sorted[(i+1)%len(sorted)]
		gap := next - sorted[i]
		if gap <= 0 {
			gap += tableSize
		}
		if gap > max {
			max = gap
		}
	}
	return max
}
