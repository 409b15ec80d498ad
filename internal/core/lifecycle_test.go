package core

import (
	"errors"
	"fmt"
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

// TestBuildIsAdmission: a connection gets the same service whether Build
// set it up or OpenConnection admitted it into the running network, because
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
				if err := admitted.OpenConnection(b); err != nil {
					t.Fatalf("OpenConnection: %v", err)
				}
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

// TestRejectedOpenLeavesNetworkUntouched holds OpenConnection to its doc
// comment: a rejection changes nothing.
func TestRejectedOpenLeavesNetworkUntouched(t *testing.T) {
	reject := func(t *testing.T, n *Network, c spec.Connection, cause error) {
		t.Helper()
		before := networkState(n)
		if err := n.OpenConnection(c); !errors.Is(err, cause) {
			t.Fatalf("OpenConnection(%d) = %v, want %v", c.ID, err, cause)
		}
		if after := networkState(n); after != before {
			t.Errorf("rejected admission changed the network:\n-- before --\n%s-- after --\n%s", before, after)
		}
		if err := n.Alloc.Verify(); err != nil {
			t.Error(err)
		}
	}

	// IP 1's NI link is filled by two heavy senders, so a connection *to*
	// IP 1 finds room for its data channel and none for its credit channel:
	// the half-placed pair must be rolled back.
	t.Run("no slots", func(t *testing.T) {
		heavy := func(id phit.ConnID, dst spec.IPID) spec.Connection {
			return spec.Connection{ID: id, Src: 1, Dst: dst, BandwidthMBps: 600, MaxLatencyNs: 2000}
		}
		n := lifecycleNet(t, Config{TableSize: 8}, heavy(1, 0), heavy(2, 3))
		reject(t, n, spec.Connection{ID: 20, Src: 2, Dst: 1, BandwidthMBps: 100, MaxLatencyNs: 2000}, ErrNoSlots)
	})

	// Credit channels are connections too: connection 1's took id 2.
	t.Run("id in use by a credit channel", func(t *testing.T) {
		n := lifecycleNet(t, Config{TableSize: 16}, spec.Connection{ID: 1, Src: 0, Dst: 3, BandwidthMBps: 20, MaxLatencyNs: 2000})
		reject(t, n, spec.Connection{ID: 2, Src: 1, Dst: 2, BandwidthMBps: 20, MaxLatencyNs: 2000}, ErrDuplicate)
	})

	// Two queues per NI: the third connection between one pair has none.
	t.Run("queue ids exhausted", func(t *testing.T) {
		layout := phit.DefaultLayout
		layout.QIDBits = 1
		light := func(id phit.ConnID) spec.Connection {
			return spec.Connection{ID: id, Src: 0, Dst: 3, BandwidthMBps: 20, MaxLatencyNs: 2000}
		}
		n := lifecycleNet(t, Config{TableSize: 16, Layout: layout}, light(1))
		if err := n.OpenConnection(light(10)); err != nil {
			t.Fatalf("second connection: %v", err)
		}
		reject(t, n, light(20), ErrQueueExhausted)
	})
}
