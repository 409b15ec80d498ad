package scenario

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/parallel"
)

func TestFamiliesParse(t *testing.T) {
	for _, f := range Families() {
		got, err := ParseFamily(string(f))
		if err != nil || got != f {
			t.Errorf("ParseFamily(%q) = %q, %v", f, got, err)
		}
	}
	if _, err := ParseFamily("tornado"); err == nil {
		t.Error("ParseFamily accepted an unknown family")
	}
}

// TestDeterministicFingerprint is the core determinism contract: the same
// config yields a byte-identical scenario, run to run and at any
// parallel.Map worker count.
func TestDeterministicFingerprint(t *testing.T) {
	for _, f := range Families() {
		cfg := Default(f, 4, 4, 40, 77)
		s1, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		s2, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(s1.Fingerprint(), s2.Fingerprint()) {
			t.Errorf("%s: two generations of the same config differ", f)
		}
	}

	// Across worker counts: generate every family through parallel.Map at
	// 1 and 4 workers and compare fingerprints position by position.
	gen := func(jobs int) [][]byte {
		fams := Families()
		fps, err := parallel.Map(jobs, len(fams), func(i int) ([]byte, error) {
			s, err := Generate(Default(fams[i], 4, 4, 40, 77))
			if err != nil {
				return nil, err
			}
			return s.Fingerprint(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fps
	}
	serial, wide := gen(1), gen(4)
	for i := range serial {
		if !bytes.Equal(serial[i], wide[i]) {
			t.Errorf("family %s: fingerprint differs between 1 and 4 workers", Families()[i])
		}
	}
}

// TestGeneratedConnectionsFeasible is the property test behind the
// generator contract: every emitted connection has a replay-admissible
// rate within link capacity and a latency budget the clamp pass deems
// analytically reachable, in every family.
func TestGeneratedConnectionsFeasible(t *testing.T) {
	for _, f := range Families() {
		cfg := Default(f, 6, 6, 150, 42)
		s, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		got := s.Cfg // post-default config
		if len(s.UseCase.Connections) != cfg.Conns {
			t.Errorf("%s: %d connections, want %d", f, len(s.UseCase.Connections), cfg.Conns)
		}
		if err := s.UseCase.Validate(); err != nil {
			t.Errorf("%s: generated use case invalid: %v", f, err)
		}
		for _, c := range s.UseCase.Connections {
			// Replay-admissible: quantisation is idempotent exactly on
			// admissible rates.
			if q := QuantizeRateMBps(c.BandwidthMBps, got.FreqMHz, got.WordBytes); q != c.BandwidthMBps {
				t.Errorf("%s conn %d: rate %.4f MB/s not replay-admissible (quantises to %.4f)",
					f, c.ID, c.BandwidthMBps, q)
			}
			// Within link capacity: the rate's slot need fits the table.
			slots, err := analysis.SlotsForBandwidth(c.BandwidthMBps, got.FreqMHz, got.WordBytes, got.TableSize, false)
			if err != nil {
				t.Errorf("%s conn %d: rate %.2f MB/s exceeds link capacity: %v", f, c.ID, c.BandwidthMBps, err)
			} else if slots > got.TableSize {
				t.Errorf("%s conn %d: needs %d slots, table has %d", f, c.ID, slots, got.TableSize)
			}
			if c.BandwidthMBps < minRateMBps/2 {
				t.Errorf("%s conn %d: rate %.2f far below the band min %.2f",
					f, c.ID, c.BandwidthMBps, minRateMBps)
			}
			if c.MaxLatencyNs <= 0 {
				t.Errorf("%s conn %d: nonpositive latency budget", f, c.ID)
			}
		}
	}
}

// TestSeedsDiffer guards against a degenerate generator: different seeds
// must produce different workloads.
func TestSeedsDiffer(t *testing.T) {
	a, err := Generate(Default(Uniform, 4, 4, 30, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Default(Uniform, 4, 4, 30, 2))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Fingerprint(), b.Fingerprint()) {
		t.Error("seeds 1 and 2 produced identical scenarios")
	}
}

func TestQuantizeAdmissible(t *testing.T) {
	rates := AdmissibleRatesMBps(500, 4)
	if len(rates) == 0 {
		t.Fatal("no admissible rates")
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] >= rates[i-1] {
			t.Fatalf("admissible rates not strictly descending at %d: %v", i, rates[:i+1])
		}
	}
	for _, r := range rates {
		if q := QuantizeRateMBps(r, 500, 4); q != r {
			t.Errorf("admissible rate %.4f quantises to %.4f", r, q)
		}
	}
	// Rounding is downward onto a member, floored at the smallest.
	for _, in := range []float64{rates[0] * 2, (rates[0] + rates[1]) / 2, rates[len(rates)-1] / 3, 0.0001} {
		q := QuantizeRateMBps(in, 500, 4)
		found := false
		for _, r := range rates {
			if q == r {
				found = true
			}
		}
		if !found {
			t.Errorf("QuantizeRateMBps(%.4f) = %.4f, not an admissible rate", in, q)
		}
		if q > in && in >= rates[len(rates)-1] {
			t.Errorf("QuantizeRateMBps(%.4f) = %.4f rounded up", in, q)
		}
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Family: "tornado", Cols: 4, Rows: 4, Conns: 10}); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := Generate(Config{Family: Uniform, Cols: 1, Rows: 1, Conns: 10}); err == nil {
		t.Error("degenerate mesh accepted")
	}
}
