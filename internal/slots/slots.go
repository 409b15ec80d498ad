package slots

import (
	"fmt"
	"math/bits"
	"sort"

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
	// PathOf gives the path each slot was reserved on.
	PathOf map[int]*route.Path
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

// materialise returns the link's occupancy for writing, creating it on
// first use. Only Claim calls it.
func (a *Allocation) materialise(l topology.LinkID) *linkRow {
	if int(l) >= len(a.links) {
		a.links = append(a.links, make([]linkRow, int(l)+1-len(a.links))...)
	}
	r := &a.links[l]
	if r.owner == nil {
		r.owner = make([]phit.ConnID, a.TableSize)
		r.busy = make([]uint64, a.maskWords())
	}
	return r
}

// freeMask writes into mask (length maskWords) the injection slots that are
// free on every link of p: bit s is set iff SlotFree(p, s). Each link's
// busy set is rotated by the link's shift into injection-slot coordinates
// and the rotations are ORed, so the whole table is answered in a few word
// operations per hop instead of TableSize probes per hop.
func (a *Allocation) freeMask(p *route.Path, mask []uint64) {
	t := a.TableSize
	clear(mask)
	for k, lid := range p.Links {
		r := a.row(lid)
		if r == nil || r.used == 0 {
			continue
		}
		orRotated(mask, r.busy, p.Shift[k]%t, t)
	}
	// mask holds the blocked slots; the free ones are its complement
	// within the table.
	for i := range mask {
		mask[i] = ^mask[i]
	}
	if rem := t % 64; rem != 0 {
		mask[len(mask)-1] &= 1<<uint(rem) - 1
	}
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
	for k, lid := range p.Links {
		if r := a.row(lid); r != nil && r.owner[(s+p.Shift[k])%a.TableSize] != phit.None {
			return false
		}
	}
	return true
}

// Claim reserves injection slot s on every link of p for connection c. It
// panics if the slot is taken: callers must check SlotFree first, and a
// violation means the allocator itself is broken.
func (a *Allocation) Claim(c phit.ConnID, p *route.Path, s int) {
	for k, lid := range p.Links {
		slot := (s + p.Shift[k]) % a.TableSize
		r := a.materialise(lid)
		if r.owner[slot] != phit.None {
			panic(fmt.Sprintf("slots: link %d slot %d already owned by connection %d", lid, slot, r.owner[slot]))
		}
		r.owner[slot] = c
		r.busy[slot/64] |= 1 << uint(slot%64)
		r.used++
	}
}

// unclaim is Claim's inverse for one injection slot: it panics unless c
// owns the slot on every link of p.
func (a *Allocation) unclaim(c phit.ConnID, p *route.Path, s int) {
	for k, lid := range p.Links {
		slot := (s + p.Shift[k]) % a.TableSize
		r := a.row(lid)
		if r == nil || r.owner[slot] != c {
			panic(fmt.Sprintf("slots: link %d slot %d owned by %d, not releasing connection %d",
				lid, slot, a.LinkOwner(lid, slot), c))
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

// pathOfSlot returns the path injection slot s of the assignment rides.
func (as *Assignment) pathOfSlot(s int) *route.Path {
	if p := as.PathOf[s]; p != nil {
		return p
	}
	return as.Path
}

// Verify recomputes link occupancy from the assignments and reports any
// double-booking — the structural contention-freedom check — and then
// holds the live table against the recomputation: every owner entry, every
// bitset bit and every used counter must agree, so a claim leaked or left
// stale by a release or an undone repair is caught too.
func (a *Allocation) Verify() error {
	var occ [][]phit.ConnID
	for _, c := range a.Conns() {
		as := a.ByConn[c]
		if len(as.Slots) == 0 {
			return fmt.Errorf("slots: connection %d has no slots", c)
		}
		for _, s := range as.Slots {
			if s < 0 || s >= a.TableSize {
				return fmt.Errorf("slots: connection %d slot %d out of range", c, s)
			}
			p := as.pathOfSlot(s)
			for k, lid := range p.Links {
				slot := (s + p.Shift[k]) % a.TableSize
				if int(lid) >= len(occ) {
					occ = append(occ, make([][]phit.ConnID, int(lid)+1-len(occ))...)
				}
				if occ[lid] == nil {
					occ[lid] = make([]phit.ConnID, a.TableSize)
				}
				if o := occ[lid][slot]; o != phit.None {
					return fmt.Errorf("slots: contention on link %d slot %d between connections %d and %d",
						lid, slot, o, c)
				}
				occ[lid][slot] = c
			}
		}
	}
	// A link without a row on either side reads as all free there.
	free := linkRow{owner: make([]phit.ConnID, a.TableSize), busy: make([]uint64, a.maskWords())}
	for l := 0; l < max(len(occ), len(a.links)); l++ {
		lid := topology.LinkID(l)
		want, r := free.owner, a.row(lid)
		if l < len(occ) && occ[l] != nil {
			want = occ[l]
		} else if r == nil {
			continue
		}
		if r == nil {
			r = &free
		}
		used := 0
		for slot, have := range r.owner {
			if have != want[slot] {
				return fmt.Errorf("slots: link %d slot %d: table says connection %d, assignments say %d (stale or leaked claim)",
					lid, slot, have, want[slot])
			}
			if bit := r.busy[slot/64]>>uint(slot%64)&1 != 0; bit != (have != phit.None) {
				return fmt.Errorf("slots: link %d slot %d: occupancy bit %v disagrees with owner %d", lid, slot, bit, have)
			}
			if have != phit.None {
				used++
			}
		}
		if r.used != used {
			return fmt.Errorf("slots: link %d: used counter %d, %d slots owned", lid, r.used, used)
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
	for _, s := range asg.Slots {
		a.unclaim(c, asg.pathOfSlot(s), s)
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
		na := &Assignment{
			Conn:   asg.Conn,
			Path:   asg.Path,
			Slots:  append([]int(nil), asg.Slots...),
			PathOf: make(map[int]*route.Path, len(asg.PathOf)),
		}
		for s, p := range asg.PathOf {
			na.PathOf[s] = p
		}
		c.ByConn[id] = na
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
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Allocate performs greedy slot allocation: requests are served in
// descending slot-count order (heaviest first, longest path breaking
// ties), and each request takes, among its candidate paths with enough
// jointly free slots, the one whose hottest link is least utilised —
// load-balancing the mesh as the Æthereal allocation tools [16] do.
// Within a path, slots are chosen spread as evenly as possible across the
// table (staggered per connection), which minimises the worst-case
// waiting time in the NI (paper Section VII ties latency to the slot
// spacing).
//
// It returns an error naming the first connection that cannot be placed;
// callers typically retry with a larger table or a different seed.
func Allocate(tableSize int, requests []Request) (*Allocation, error) {
	a := NewAllocation(tableSize)
	if err := AllocateInto(a, requests); err != nil {
		return nil, err
	}
	return a, nil
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
	tableSize := a.TableSize
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
	var groups [][]*route.Path
	for _, p := range req.Paths {
		placed := false
		for gi := range groups {
			if groups[gi][0].TotalShift == p.TotalShift {
				groups[gi] = append(groups[gi], p)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []*route.Path{p})
		}
	}
	ws := req.WindowSlots
	if ws < 1 {
		ws = 1
	}
	for _, paths := range groups {
		// Score each path once (its hottest link's used-slot count; the
		// table size is common, so counts order as utilisations do), then
		// a stable insertion sort: groups hold a handful of paths.
		hottest := make([]int, len(paths))
		for i, p := range paths {
			for _, lid := range p.Links {
				if u := a.linkUsed(lid); u > hottest[i] {
					hottest[i] = u
				}
			}
		}
		for i := 1; i < len(paths); i++ {
			for j := i; j > 0 && hottest[j] < hottest[j-1]; j-- {
				paths[j], paths[j-1] = paths[j-1], paths[j]
				hottest[j], hottest[j-1] = hottest[j-1], hottest[j]
			}
		}
		if asg := pickSlotsMultiPath(a, paths, req.Count, req.GapTarget, ws, offset); asg != nil {
			return asg
		}
	}
	return nil
}

// commitAssignment claims the chosen slots and records the assignment.
func commitAssignment(a *Allocation, req Request, asg *Assignment) {
	for _, s := range asg.Slots {
		a.Claim(req.Conn, asg.PathOf[s], s)
	}
	asg.Conn = req.Conn
	asg.Path = req.Paths[0]
	a.ByConn[req.Conn] = asg
}

// placementError builds the diagnostic for an unplaceable request: per
// candidate path, the joint-free slot count and the hottest link.
func placementError(a *Allocation, req Request) *PlacementError {
	tableSize := a.TableSize
	detail := ""
	mask := make([]uint64, a.maskWords())
	for pi, p := range req.Paths {
		a.freeMask(p, mask)
		free := 0
		for _, w := range mask {
			free += bits.OnesCount64(w)
		}
		worstLink, worstUtil := topology.LinkID(-1), 0.0
		for _, lid := range p.Links {
			if u := a.LinkUtilisation(lid); u > worstUtil {
				worstLink, worstUtil = lid, u
			}
		}
		detail += fmt.Sprintf("; path %d: %d joint-free slots, hottest link %d at %.0f%%",
			pi, free, worstLink, worstUtil*100)
	}
	return &PlacementError{Conn: req.Conn, Needed: req.Count, GapTarget: req.GapTarget,
		Table: tableSize, Detail: detail}
}

// pickSlotsMultiPath chooses at least count injection slots where each
// slot may be reserved on any of the candidate paths (tried in the given
// preference order). When gapTarget is positive the chosen set's cyclic
// MaxGap must not exceed it; a greedy furthest-within-target cover is
// computed first and then topped up to count. It returns nil when the
// free-slot union cannot satisfy the request.
func pickSlotsMultiPath(a *Allocation, paths []*route.Path, count, windowTarget, windowSlots, offset int) *Assignment {
	// masks holds one joint-free slot set per candidate path, computed once.
	words := a.maskWords()
	masks := make([]uint64, words*len(paths))
	for i, p := range paths {
		a.freeMask(p, masks[i*words:(i+1)*words])
	}
	// pathFor[s] is the first candidate path with slot s free, or nil.
	pathFor := make([]*route.Path, a.TableSize)
	free := make([]int, 0, a.TableSize)
	for s := 0; s < a.TableSize; s++ {
		w, bit := s/64, uint64(1)<<uint(s%64)
		for i, p := range paths {
			if masks[i*words+w]&bit != 0 {
				pathFor[s] = p
				free = append(free, s)
				break
			}
		}
	}
	if len(free) < count {
		return nil
	}
	taken := make([]bool, a.TableSize)
	chosen := make([]int, 0, count)
	take := func(s int) {
		if !taken[s] {
			taken[s] = true
			chosen = append(chosen, s)
		}
	}
	// Choose count slots near evenly spread ideals.
	for i := 0; len(chosen) < count && i < count; i++ {
		ideal := (i*a.TableSize/count + offset) % a.TableSize
		best, bestDist := -1, a.TableSize+1
		for _, s := range free {
			if taken[s] {
				continue
			}
			d := s - ideal
			if d < 0 {
				d = -d
			}
			if wrap := a.TableSize - d; wrap < d {
				d = wrap
			}
			if d < bestDist {
				best, bestDist = s, d
			}
		}
		if best < 0 {
			return nil
		}
		take(best)
	}
	if len(chosen) < count {
		return nil
	}
	sort.Ints(chosen)
	// Repair the window constraint: while the worst windowSlots-gap
	// window exceeds the target, add a free slot inside its largest
	// gap. Each addition strictly shrinks some gap, so this terminates.
	if windowTarget > 0 {
		for {
			w, at := maxGapWindowAt(chosen, a.TableSize, windowSlots)
			if w <= windowTarget {
				break
			}
			// The offending window spans gaps starting at chosen
			// index at; find its largest gap and a free slot
			// inside.
			bestSlot, bestGap := -1, 0
			for j := 0; j < windowSlots && j < len(chosen); j++ {
				i0 := (at + j) % len(chosen)
				from := chosen[i0]
				to := chosen[(i0+1)%len(chosen)]
				gap := to - from
				if gap <= 0 {
					gap += a.TableSize
				}
				if gap <= bestGap {
					continue
				}
				// Free slot nearest the gap's middle.
				mid := (from + gap/2) % a.TableSize
				for d := 0; d < gap/2+1; d++ {
					for _, cand := range []int{(mid + d) % a.TableSize, (mid - d + a.TableSize) % a.TableSize} {
						if !taken[cand] && pathFor[cand] != nil && inGap(from, gap, cand, a.TableSize) {
							bestSlot, bestGap = cand, gap
							break
						}
					}
					if bestGap == gap {
						break
					}
				}
			}
			if bestSlot < 0 {
				return nil // no free slot can shrink the window
			}
			take(bestSlot)
			sort.Ints(chosen)
		}
	}
	asg := &Assignment{Slots: chosen, PathOf: make(map[int]*route.Path, len(chosen))}
	for _, s := range chosen {
		asg.PathOf[s] = pathFor[s]
	}
	return asg
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
	gaps := make([]int, k)
	for i := range sorted {
		g := sorted[(i+1)%k] - sorted[i]
		if g <= 0 {
			g += tableSize
		}
		gaps[i] = g
	}
	best, at := 0, 0
	for i := range gaps {
		sum := 0
		for j := 0; j < rem; j++ {
			sum += gaps[(i+j)%k]
		}
		if sum > best {
			best, at = sum, i
		}
	}
	return full + best, at
}

// A PlacementError reports the first connection the greedy allocator
// could not place; callers can relax that connection's requirement (more
// table sizes, a looser latency budget) and retry.
type PlacementError struct {
	Conn      phit.ConnID
	Needed    int
	GapTarget int
	Table     int
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
