package scenario

import (
	"sort"

	"repro/internal/phit"
)

// MaxReplayDenominator is the largest power-of-two denominator of the
// words-per-cycle rational a quantised rate may reduce to. The
// whole-network hyperperiod of a CBR workload is lcm over generators of
// their pattern periods and the slot revolution; capping the denominator
// at 256 keeps that hyperperiod at lcm(256, FlitWords*TableSize) cycles —
// small enough for the replay recorder's arena at any supported table
// size (the Section VII quantiser's table goes one step finer, to 3/512).
const MaxReplayDenominator = 256

// AdmissibleRatesMBps returns, descending, the replay-admissible CBR
// rates at the given frequency and word width: every rate whose
// words-per-cycle value is m/2^r with m in {1, 3} and 2^r at most
// MaxReplayDenominator, capped at the guaranteed payload capacity of a
// fully-owned link (PayloadWordsPerSlot of every FlitWords-word flit).
// Arbitrary byte-exact rates, by contrast, reduce to rationals with
// denominators of billions of cycles — periodic in principle but far past
// any arena worth recording, so the replay compiler classifies them
// aperiodic and falls back to cycle-accurate execution.
func AdmissibleRatesMBps(fMHz float64, wordBytes int) []float64 {
	cap := float64(phit.FlitWords-1) / float64(phit.FlitWords) // payload words per cycle
	var out []float64
	for den := 1; den <= MaxReplayDenominator; den *= 2 {
		for _, m := range []float64{1, 3} {
			wpc := m / float64(den)
			if wpc > cap {
				continue
			}
			out = append(out, wpc*fMHz*float64(wordBytes))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	// m/2^r values never collide across (m, r) pairs, so no dedup needed.
	return out
}

// QuantizeRateMBps rounds a bandwidth requirement down to the nearest
// replay-admissible rate at the given frequency and word width (never
// below the smallest admissible rate). Rounding down preserves allocation
// feasibility: lowering a requirement can only free slots. This is the
// per-frequency generalisation of experiments.Sec7QuantizeRateMBps (which
// is the 500 MHz / 4-byte instance).
func QuantizeRateMBps(rateMBps, fMHz float64, wordBytes int) float64 {
	return quantize(rateMBps, AdmissibleRatesMBps(fMHz, wordBytes))
}

// quantize rounds a rate down within a descending AdmissibleRatesMBps table,
// which a caller quantising many rates at one frequency builds once.
func quantize(rateMBps float64, rates []float64) float64 {
	for _, r := range rates {
		if r <= rateMBps {
			return r
		}
	}
	return rates[len(rates)-1]
}
