package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/phit"
	"repro/internal/spec"
)

// A reconfigStep is one parsed -reconfig action: a connection close or an
// admission-controlled open, at a given instant inside the measurement
// window.
type reconfigStep struct {
	atNs  float64
	close bool

	conn phit.ConnID // close: the connection to stop

	src, dst spec.IPID // open: the endpoints
	bw, lat  float64   // open: required Mbyte/s and latency budget ns
}

// parseReconfigScript parses the -reconfig flag: semicolon-separated
// actions, each close@TIMEns:CONN or open@TIMEns:SRC:DST:MBPS:LATNS.
// It follows the -faults op@TIME:args idiom. Every TIME lies in
// [0, measureNs], the measurement window, and every MBPS and LATNS is
// finite and positive.
func parseReconfigScript(s string, measureNs float64) ([]reconfigStep, error) {
	var out []reconfigStep
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("action %q: want close@TIMEns:CONN or open@TIMEns:SRC:DST:MBPS:LATNS", part)
		}
		fields := strings.Split(rest, ":")
		at, err := strconv.ParseFloat(fields[0], 64)
		if _, ok := clock.FromNs(at); err != nil || !ok || at > measureNs {
			return nil, fmt.Errorf("action %q: bad time %q (ns into the %g ns measurement window)", part, fields[0], measureNs)
		}
		st := reconfigStep{atNs: at}
		switch op {
		case "close":
			if len(fields) != 2 {
				return nil, fmt.Errorf("action %q: want close@TIMEns:CONN", part)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id <= 0 {
				return nil, fmt.Errorf("action %q: bad connection id %q", part, fields[1])
			}
			st.close = true
			st.conn = phit.ConnID(id)
		case "open":
			if len(fields) != 5 {
				return nil, fmt.Errorf("action %q: want open@TIMEns:SRC:DST:MBPS:LATNS", part)
			}
			src, err1 := strconv.Atoi(fields[1])
			dst, err2 := strconv.Atoi(fields[2])
			bw, err3 := strconv.ParseFloat(fields[3], 64)
			lat, err4 := strconv.ParseFloat(fields[4], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("action %q: bad endpoint IP ids %q:%q", part, fields[1], fields[2])
			}
			if err3 != nil || err4 != nil || !finitePositive(bw) || !finitePositive(lat) {
				return nil, fmt.Errorf("action %q: bandwidth and latency must be finite positive numbers", part)
			}
			st.src, st.dst = spec.IPID(src), spec.IPID(dst)
			st.bw, st.lat = bw, lat
		default:
			return nil, fmt.Errorf("action %q: unknown op %q (close | open)", part, op)
		}
		out = append(out, st)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty script")
	}
	return out, nil
}

// finitePositive reports whether v is a finite number above zero.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// reconfigActions turns parsed steps into RunTimed actions. Closes drain
// and release; opens run admission control and print the typed decision —
// an inadmissible request is an answer, not an error, and leaves the
// network untouched. The auditor (when attached) is resynchronised after
// every action that changed the allocation.
func reconfigActions(steps []reconfigStep, aud *audit.Auditor, stdout io.Writer) []core.TimedAction {
	var acts []core.TimedAction
	for _, st := range steps {
		st := st
		acts = append(acts, core.TimedAction{AtNs: st.atNs, Do: func(n *core.Network) error {
			if st.close {
				if err := n.CloseConnection(st.conn); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "reconfig @%.0fns: closed connection %d (slots released)\n", st.atNs, st.conn)
				if aud != nil {
					aud.Resync(n)
				}
				return nil
			}
			c := spec.Connection{
				ID: n.FreshConnID(), Src: st.src, Dst: st.dst,
				BandwidthMBps: st.bw, MaxLatencyNs: st.lat,
			}
			d, err := n.Admit(c)
			if err != nil {
				return err
			}
			if !d.Admissible {
				fmt.Fprintf(stdout, "reconfig @%.0fns: open IP%d>IP%d %.1fMB/s %.0fns REJECTED: %s (%s)\n",
					st.atNs, st.src, st.dst, st.bw, st.lat, d.Reason, d.Detail)
				return nil
			}
			fmt.Fprintf(stdout, "reconfig @%.0fns: open IP%d>IP%d admitted as connection %d: %.1fMB/s guaranteed, bound %.1fns, %d+%d slots\n",
				st.atNs, st.src, st.dst, c.ID, d.GuaranteeMBps, d.LatencyBoundNs, d.DataSlots, d.RevSlots)
			if aud != nil {
				aud.Resync(n)
			}
			return nil
		}})
	}
	return acts
}
