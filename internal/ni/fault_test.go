package ni

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/slots"
)

// faultNI builds a bare NI for violation testing: out connection 1 owns
// slot 0 with 6 initial credits, and in connection 3 sits at queue 0.
func faultNI(creditFor phit.ConnID) *NI {
	clk := clock.NewMHz("clk", 500, 0)
	tb := slots.NewTable(4)
	tb.Slots[0] = 1
	n := New("f", clk, layout, tb, nil, nil)
	hdr, _ := layout.Encode(nil, 0, 0)
	n.AddOutConn(OutConnConfig{ID: 1, Headers: slotHeaders(hdr, 0), InitialCredits: 6})
	n.AddInConn(InConnConfig{ID: 3, QID: 0, CreditFor: creditFor})
	return n
}

func header(t *testing.T, qid, credits int) phit.Phit {
	t.Helper()
	hdr, err := layout.Encode(nil, qid, credits)
	if err != nil {
		t.Fatal(err)
	}
	return phit.Phit{Valid: true, Kind: phit.Header, Data: hdr, Meta: phit.Meta{Conn: 3}}
}

// TestNIViolations drives every converted panic site of the NI twice: in
// strict mode (nil reporter) the original fail-fast panic must fire, and
// in collecting mode the same stimulus must record exactly the expected
// violation kind and leave the NI running.
func TestNIViolations(t *testing.T) {
	payload := phit.Phit{Valid: true, Kind: phit.Payload, Meta: phit.Meta{Conn: 3}}
	cases := []struct {
		name  string
		kind  fault.Kind
		build func(t *testing.T) *NI
		run   func(t *testing.T, n *NI)
	}{
		{
			name:  "expected-header",
			kind:  fault.ProtocolError,
			build: func(t *testing.T) *NI { return faultNI(phit.None) },
			run: func(t *testing.T, n *NI) {
				n.receivePhit(100, payload)
			},
		},
		{
			name:  "unknown-queue",
			kind:  fault.UnknownQueue,
			build: func(t *testing.T) *NI { return faultNI(phit.None) },
			run: func(t *testing.T, n *NI) {
				n.receivePhit(100, header(t, 1, 0)) // queue 1 does not exist
				// The packet body must be swallowed without further reports.
				n.receivePhit(102, payload)
				eop := payload
				eop.EoP = true
				n.receivePhit(104, eop)
			},
		},
		{
			name:  "credits-without-target",
			kind:  fault.CreditError,
			build: func(t *testing.T) *NI { return faultNI(phit.None) },
			run: func(t *testing.T, n *NI) {
				n.receivePhit(100, header(t, 0, 2))
			},
		},
		{
			name:  "credit-overflow",
			kind:  fault.CreditError,
			build: func(t *testing.T) *NI { return faultNI(1) },
			run: func(t *testing.T, n *NI) {
				// Connection 1 already holds its full 6-credit window; any
				// return is a duplicate.
				n.receivePhit(100, header(t, 0, 1))
			},
		},
		{
			name:  "kind-inside-packet",
			kind:  fault.ProtocolError,
			build: func(t *testing.T) *NI { return faultNI(phit.None) },
			run: func(t *testing.T, n *NI) {
				n.receivePhit(100, header(t, 0, 0))
				n.receivePhit(102, header(t, 0, 0)) // header inside a packet
			},
		},
		{
			name:  "packet-open-into-unowned-slot",
			kind:  fault.PacketState,
			build: func(t *testing.T) *NI { return faultNI(phit.None) },
			run: func(t *testing.T, n *NI) {
				n.openConn = 1
				n.buildFlit(100, 1) // slot 1 is unowned
			},
		},
		{
			name: "packet-open-into-foreign-slot",
			kind: fault.PacketState,
			build: func(t *testing.T) *NI {
				n := faultNI(phit.None)
				hdr, _ := layout.Encode(nil, 0, 0)
				n.AddOutConn(OutConnConfig{ID: 9, Headers: slotHeaders(hdr, 1), InitialCredits: 6})
				n.table.Slots[1] = 9
				return n
			},
			run: func(t *testing.T, n *NI) {
				n.openConn = 1
				n.buildFlit(100, 1) // slot 1 belongs to connection 9
			},
		},
		{
			name:  "kept-open-with-nothing-to-send",
			kind:  fault.PacketState,
			build: func(t *testing.T) *NI { return faultNI(phit.None) },
			run: func(t *testing.T, n *NI) {
				n.openConn = 1
				n.buildFlit(100, 0) // own slot, but the send queue is empty
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/strict", func(t *testing.T) {
			n := tc.build(t)
			defer func() {
				if recover() == nil {
					t.Error("no panic in strict mode")
				}
			}()
			tc.run(t, n)
		})
		t.Run(tc.name+"/collect", func(t *testing.T) {
			n := tc.build(t)
			col := fault.NewCollector()
			n.SetReporter(col)
			tc.run(t, n)
			if col.Total() != 1 {
				t.Fatalf("collected %d violations, want exactly 1: %v", col.Total(), col.Violations())
			}
			if got := col.Violations()[0].Kind; got != tc.kind {
				t.Errorf("violation kind %v, want %v", got, tc.kind)
			}
		})
	}
}

// TestNIForceClosedPacketRecovers: after a packet-state violation is
// collected, the NI must close the packet cleanly and keep injecting.
func TestNIForceClosedPacketRecovers(t *testing.T) {
	n := faultNI(phit.None)
	col := fault.NewCollector()
	n.SetReporter(col)
	n.openConn = 1
	n.buildFlit(100, 0) // kept open with nothing to send
	if n.openConn != phit.None {
		t.Error("packet not force-closed")
	}
	if !n.flitBuf[phit.FlitWords-1].EoP {
		t.Error("force-closed flit missing EoP")
	}
	// Next owned slot with real data must still work.
	n.Offer(200, 1, phit.Meta{Seq: 1})
	n.buildFlit(10000, 0)
	if !n.flitBuf[0].Valid || n.flitBuf[0].Kind != phit.Header {
		t.Errorf("NI stopped injecting after a collected violation: %v", n.flitBuf[0])
	}
}
