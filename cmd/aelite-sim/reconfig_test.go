package main

import (
	"math"
	"strings"
	"testing"
)

// FuzzReconfigScript: the -reconfig parser never panics, and every step it
// accepts is in range — a time inside the measurement window, a positive
// connection id for a close, a finite positive rate and budget for an
// open. It is seeded with every -reconfig script the golden rows pin.
func FuzzReconfigScript(f *testing.F) {
	const measureNs = 20000
	for _, r := range rows {
		fields := strings.Fields(r.Args)
		for i := 0; i+1 < len(fields); i++ {
			if fields[i] == "-reconfig" {
				f.Add(fields[i+1])
			}
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		steps, err := parseReconfigScript(s, measureNs)
		if err != nil {
			return
		}
		if len(steps) == 0 {
			t.Fatalf("%q: accepted with no steps", s)
		}
		for _, st := range steps {
			if !(st.atNs >= 0 && st.atNs <= measureNs) {
				t.Fatalf("%q: step at %g ns, outside [0, %d]", s, st.atNs, measureNs)
			}
			if st.close {
				if st.conn <= 0 {
					t.Fatalf("%q: close of connection %d", s, st.conn)
				}
				continue
			}
			for _, v := range []float64{st.bw, st.lat} {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Fatalf("%q: open with rate %g MB/s, budget %g ns", s, st.bw, st.lat)
				}
			}
		}
	})
}
