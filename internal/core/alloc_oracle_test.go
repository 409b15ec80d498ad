package core_test

import "fmt"

// The allocation oracle checks a slot plan against the constraint
// formulation of Even & Fais ("Algorithms for Network-on-Chip Design with
// Guaranteed QoS") from plain values alone: it imports nothing of the
// planner, so it re-derives every shift and bandwidth figure the planner
// also computes instead of asking the planner for them.

// Flit format: a flit is flitWords words wide and one of them is the
// header, so a reserved slot guarantees payloadWords words per revolution.
const (
	flitWords    = 3
	payloadWords = flitWords - 1
)

// An allocView is a slot plan as the oracle reads it.
type allocView struct {
	TableSize int
	FreqMHz   float64
	WordBytes int
	// Stages[l] is the pipeline-stage count of link l.
	Stages   []int
	Channels []channelView
}

// A channelView is one placed channel: a data connection with its required
// rate, or a credit channel with rate 0.
type channelView struct {
	ID       int
	RateMBps float64
	// Slots are the injection slots; Links[i] the link ids, in order, that
	// the flit injected in Slots[i] traverses.
	Slots []int
	Links [][]int
}

// checkAllocation reports the first violated constraint, or nil:
//   - contention freedom: a flit injected in slot s enters the first link of
//     its route in slot s and every later link one slot after it left the
//     previous one, that link's pipeline stages included, so the pairs
//     (link, (s + shift) mod T) of all channels are distinct;
//   - rate sufficiency: slots × the per-slot bandwidth, payloadWords ×
//     WordBytes × f ÷ (flitWords × T), covers the channel's rate.
func checkAllocation(v allocView) error {
	perSlotMBps := float64(payloadWords*v.WordBytes) * v.FreqMHz / float64(flitWords*v.TableSize)
	owner := make(map[[2]int]int)
	for _, c := range v.Channels {
		if len(c.Links) != len(c.Slots) {
			return fmt.Errorf("channel %d: %d slots, routes for %d", c.ID, len(c.Slots), len(c.Links))
		}
		for i, s := range c.Slots {
			if s < 0 || s >= v.TableSize {
				return fmt.Errorf("channel %d: slot %d outside a %d-slot table", c.ID, s, v.TableSize)
			}
			shift := 0
			for k, l := range c.Links[i] {
				if k > 0 {
					shift += 1 + v.Stages[c.Links[i][k-1]]
				}
				at := [2]int{l, (s + shift) % v.TableSize}
				if prev, taken := owner[at]; taken {
					return fmt.Errorf("link %d slot %d: claimed by channels %d and %d", at[0], at[1], prev, c.ID)
				}
				owner[at] = c.ID
			}
		}
		// A rate of n slots' worth exactly must not fail on rounding.
		if have := float64(len(c.Slots)) * perSlotMBps; have < c.RateMBps*(1-1e-12) {
			return fmt.Errorf("channel %d: %d slots carry %.3f Mbyte/s, %.3f required", c.ID, len(c.Slots), have, c.RateMBps)
		}
	}
	return nil
}
