package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
)

// lifecycleNet builds a 2x2 mesh, one NI per router and one IP per NI
// (IP i on router i%2, i/2), carrying the given connections.
func lifecycleNet(t *testing.T, cfg Config, conns ...spec.Connection) *Network {
	t.Helper()
	m := topology.NewMesh(2, 2, 1)
	uc := &spec.UseCase{Name: "lifecycle", Apps: 1, Connections: conns}
	for i := 0; i < 4; i++ {
		uc.IPs = append(uc.IPs, spec.IP{ID: spec.IPID(i), Name: fmt.Sprintf("ip%d", i), NI: m.NIAt(i%2, i/2, 0)})
	}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// mustAdmit admits c into n, failing the test unless it is admitted.
func mustAdmit(t *testing.T, n *Network, c spec.Connection) Decision {
	t.Helper()
	d, err := n.Admit(c)
	if err != nil || !d.Admissible {
		t.Fatalf("Admit(%d): %v, %s (%s)", c.ID, err, d.Reason, d.Detail)
	}
	return d
}

// TestBuildIsAdmission: a connection gets the same service whether Build
// set it up or Admit admitted it into the running network, because
// both run the same route, size, derive and attach steps. A and B share no
// link, so B's slot sets coincide in the two networks and everything
// derived from them must too — including the reliable sender's timeout.
func TestBuildIsAdmission(t *testing.T) {
	a := spec.Connection{ID: 1, Src: 0, Dst: 1, BandwidthMBps: 100, MaxLatencyNs: 800}
	b := spec.Connection{ID: 10, Src: 2, Dst: 3, BandwidthMBps: 60, MaxLatencyNs: 600}
	for _, mode := range []Mode{Synchronous, Mesochronous} {
		for _, reliable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s,reliable=%v", mode, reliable), func(t *testing.T) {
				cfg := Config{Mode: mode, TableSize: 16, PhaseSeed: 5, Reliable: reliable}
				built := lifecycleNet(t, cfg, a, b)
				admitted := lifecycleNet(t, cfg, a)
				mustAdmit(t, admitted, b)
				want, err := built.Info(b.ID)
				if err != nil {
					t.Fatal(err)
				}
				got, err := admitted.Info(b.ID)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Slots) == 0 || want.BoundNs <= 0 || want.RecvCapacity <= 0 {
					t.Fatalf("built connection carries no service: %+v", want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("admitted connection differs from built one:\n got %+v\nwant %+v", got, want)
				}
				wantTx, wantOK := built.ReliableTxStats(b.ID)
				gotTx, gotOK := admitted.ReliableTxStats(b.ID)
				if wantOK != reliable || gotOK != reliable {
					t.Fatalf("reliability shell present: built %v, admitted %v, want %v", wantOK, gotOK, reliable)
				}
				if reliable && (wantTx.Timeout <= 0 || gotTx.Timeout != wantTx.Timeout) {
					t.Errorf("sender timeout: admitted %d, built %d", gotTx.Timeout, wantTx.Timeout)
				}
				// The injection tables attach programmed are the allocation's.
				for _, n := range []*Network{built, admitted} {
					for _, id := range n.Mesh.AllNIs() {
						if got, want := n.InjectionTable(id).Slots, n.Alloc.NITable(id).Slots; !reflect.DeepEqual(got, want) {
							t.Errorf("NI %d injection table %v, allocation says %v", id, got, want)
						}
					}
				}
			})
		}
	}
}

// networkState renders everything an admission may change.
func networkState(n *Network) string {
	var b strings.Builder
	ids := make([]phit.ConnID, 0, len(n.Alloc.ByConn))
	for id := range n.Alloc.ByConn {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, "alloc %d %v\n", id, n.Alloc.ByConn[id].Slots)
	}
	for _, l := range n.Mesh.Links() {
		fmt.Fprintf(&b, "link %d %.4f\n", l.ID, n.Alloc.LinkUtilisation(l.ID))
	}
	for _, id := range n.Mesh.AllNIs() {
		fmt.Fprintf(&b, "ni %d qid %d table %v\n", id, n.qidNext[id], n.niTables[id].Slots)
	}
	fmt.Fprintf(&b, "conns %v gens %d idHigh %d\n", n.Connections(), len(n.gens), n.idHigh)
	return b.String()
}

// TestRejectedOpenLeavesNetworkUntouched holds Admit and Probe to their
// doc comments: one typed reason per rejection cause, the same decision
// from both (Probe decides on a clone, Admit on the live table), and a
// rejection changes nothing.
func TestRejectedOpenLeavesNetworkUntouched(t *testing.T) {
	light := func(id phit.ConnID, src, dst spec.IPID) spec.Connection {
		return spec.Connection{ID: id, Src: src, Dst: dst, BandwidthMBps: 20, MaxLatencyNs: 2000}
	}
	heavy := func(id phit.ConnID, dst spec.IPID) spec.Connection {
		return spec.Connection{ID: id, Src: 1, Dst: dst, BandwidthMBps: 600, MaxLatencyNs: 2000}
	}
	twoQueues := phit.DefaultLayout
	twoQueues.QIDBits = 1
	cases := []struct {
		name   string
		cfg    Config
		built  []spec.Connection
		opened []spec.Connection // admitted before the request
		req    spec.Connection
		avoid  bool // every router-to-router link
		cause  error
		reason string
	}{
		// IP 1's NI link is filled by two heavy senders, so a connection
		// *to* IP 1 finds room for its data channel and none for its
		// credit channel: the half-placed pair must be rolled back.
		{name: "no slots", cfg: Config{TableSize: 8}, built: []spec.Connection{heavy(1, 0), heavy(2, 3)},
			req:   spec.Connection{ID: 20, Src: 2, Dst: 1, BandwidthMBps: 100, MaxLatencyNs: 2000},
			cause: ErrNoSlots, reason: "no-slots"},
		{name: "id of an open connection", cfg: Config{TableSize: 16}, built: []spec.Connection{light(1, 0, 3)},
			req: light(1, 1, 2), cause: ErrDuplicate, reason: "duplicate-id"},
		// Credit channels are connections too: connection 1's took id 2.
		{name: "id in use by a credit channel", cfg: Config{TableSize: 16}, built: []spec.Connection{light(1, 0, 3)},
			req: light(2, 1, 2), cause: ErrDuplicate, reason: "duplicate-id"},
		// Two queues per NI: the third connection between one pair has none.
		{name: "queue ids exhausted", cfg: Config{TableSize: 16, Layout: twoQueues}, built: []spec.Connection{light(1, 0, 3)},
			opened: []spec.Connection{light(10, 0, 3)}, req: light(20, 0, 3), cause: ErrQueueExhausted, reason: "queue-exhausted"},
		{name: "unknown endpoint", cfg: Config{TableSize: 16}, built: []spec.Connection{light(1, 0, 3)},
			req: light(10, 999, 1), cause: ErrUnknownEndpoint, reason: "unknown-endpoint"},
		// A slot carries two payload words of a three-word flit: 1333 MB/s
		// at 500 MHz with 4-byte words, even with every slot free.
		{name: "rate above link capacity", cfg: Config{TableSize: 16}, built: []spec.Connection{light(1, 0, 3)},
			req:   spec.Connection{ID: 10, Src: 1, Dst: 2, BandwidthMBps: 2000, MaxLatencyNs: 5000},
			cause: ErrInfeasible, reason: "bound-infeasible"},
		{name: "latency budget below the path delay", cfg: Config{TableSize: 16}, built: []spec.Connection{light(1, 0, 3)},
			req:   spec.Connection{ID: 10, Src: 1, Dst: 2, BandwidthMBps: 20, MaxLatencyNs: 1},
			cause: ErrInfeasible, reason: "bound-infeasible"},
		// Checked before routing: NaN passes every comparison it is in.
		{name: "rate not a number", cfg: Config{TableSize: 16}, built: []spec.Connection{light(1, 0, 3)},
			req:   spec.Connection{ID: 10, Src: 1, Dst: 2, BandwidthMBps: math.NaN(), MaxLatencyNs: 900},
			cause: ErrInfeasible, reason: "bound-infeasible"},
		{name: "infinite latency budget", cfg: Config{TableSize: 16}, built: []spec.Connection{light(1, 0, 3)},
			req:   spec.Connection{ID: 10, Src: 1, Dst: 2, BandwidthMBps: 20, MaxLatencyNs: math.Inf(1)},
			cause: ErrInfeasible, reason: "bound-infeasible"},
		{name: "no path under an avoid set", cfg: Config{TableSize: 16}, built: []spec.Connection{light(1, 0, 3)},
			req: light(10, 1, 2), avoid: true, cause: ErrNoRoute, reason: "no-path"},
		{name: "mode unsupported", cfg: Config{Mode: Asynchronous, TableSize: 16}, built: []spec.Connection{light(1, 0, 3)},
			req: light(10, 1, 2), cause: ErrModeUnsupported, reason: "mode-unsupported"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := lifecycleNet(t, tc.cfg, tc.built...)
			for _, c := range tc.opened {
				mustAdmit(t, n, c)
			}
			var avoid []topology.LinkID
			if tc.avoid {
				for _, l := range n.Mesh.Links() {
					avoid = append(avoid, l.ID)
				}
				avoid = routerLinks(n.Mesh, avoid)
			}
			before := networkState(n)
			probed := n.Probe(tc.req, avoid...)
			if probed.Admissible || probed.Reason != tc.reason || !errors.Is(probed.Err(), tc.cause) {
				t.Fatalf("Probe(%d) = %s (%v), want %s (%v)", tc.req.ID, probed.Reason, probed.Err(), tc.reason, tc.cause)
			}
			if after := networkState(n); after != before {
				t.Errorf("rejected probe changed the network:\n-- before --\n%s-- after --\n%s", before, after)
			}
			admitted, err := n.Admit(tc.req, avoid...)
			if err != nil {
				t.Fatalf("Admit returned an error for a mere rejection: %v", err)
			}
			if !reflect.DeepEqual(admitted, probed) {
				t.Errorf("Admit decided %+v, Probe %+v", admitted, probed)
			}
			if after := networkState(n); after != before {
				t.Errorf("rejected admission changed the network:\n-- before --\n%s-- after --\n%s", before, after)
			}
			if err := n.Alloc.Verify(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAdmitDelivers: an admissible probe carries the full requested
// guarantees and changes nothing; Admit then makes the same decision,
// programs the promised slots, and the connection delivers within its
// bound.
func TestAdmitDelivers(t *testing.T) {
	a := spec.Connection{ID: 1, Src: 0, Dst: 1, BandwidthMBps: 100, MaxLatencyNs: 800}
	b := spec.Connection{ID: 10, Src: 2, Dst: 3, BandwidthMBps: 60, MaxLatencyNs: 600}
	n := lifecycleNet(t, Config{Mode: Mesochronous, TableSize: 16, PhaseSeed: 5}, a)
	n.Run(0, 5000)
	before := networkState(n)
	probed := n.Probe(b)
	if !probed.Admissible || probed.Err() != nil {
		t.Fatalf("probe rejected: %s (%s)", probed.Reason, probed.Detail)
	}
	if after := networkState(n); after != before {
		t.Fatalf("admissible probe changed the network:\n-- before --\n%s-- after --\n%s", before, after)
	}
	if probed.GuaranteeMBps < b.BandwidthMBps || probed.LatencyBoundNs > b.MaxLatencyNs {
		t.Errorf("probe guarantees %.1f MB/s within %.1f ns, asked %.1f MB/s within %.1f ns",
			probed.GuaranteeMBps, probed.LatencyBoundNs, b.BandwidthMBps, b.MaxLatencyNs)
	}
	if probed.DataSlots == 0 || probed.RevSlots == 0 || probed.PathHops == 0 {
		t.Errorf("admissible probe sized %d+%d slots over %d hops", probed.DataSlots, probed.RevSlots, probed.PathHops)
	}
	if d := mustAdmit(t, n, b); !reflect.DeepEqual(d, probed) {
		t.Errorf("Admit decided %+v, Probe %+v", d, probed)
	}
	info, err := n.Info(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Slots) != probed.DataSlots {
		t.Errorf("decision promised %d data slots, admission programmed %d", probed.DataSlots, len(info.Slots))
	}
	for _, cr := range n.Run(0, 30000).Conns {
		if cr.Conn != b.ID {
			continue
		}
		if cr.Delivered == 0 {
			t.Error("admitted connection delivered nothing")
		}
		if cr.LatMaxNs > probed.LatencyBoundNs {
			t.Errorf("observed %.1f ns above the admitted bound %.1f ns", cr.LatMaxNs, probed.LatencyBoundNs)
		}
		return
	}
	t.Fatal("admitted connection missing from the report")
}
