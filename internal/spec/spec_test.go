package spec

import (
	"path/filepath"
	"testing"

	"repro/internal/phit"
	"repro/internal/topology"
)

func validConfig() RandomConfig {
	return RandomConfig{
		Name: "t", Seed: 1, IPs: 10, Apps: 3, Conns: 20,
		MinRateMBps: 10, MaxRateMBps: 500,
		MinLatencyNs: 35, MaxLatencyNs: 500,
	}
}

func TestRandomGeneratesValid(t *testing.T) {
	u := Random(validConfig())
	if err := u.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(u.IPs) != 10 || len(u.Connections) != 20 {
		t.Fatalf("sizes: %d IPs, %d conns", len(u.IPs), len(u.Connections))
	}
	for _, c := range u.Connections {
		if c.BandwidthMBps < 10 || c.BandwidthMBps > 500 {
			t.Errorf("rate %v outside range", c.BandwidthMBps)
		}
		if c.MaxLatencyNs < 35 || c.MaxLatencyNs > 500 {
			t.Errorf("latency %v outside range", c.MaxLatencyNs)
		}
		if c.Src == c.Dst {
			t.Error("self-loop generated")
		}
	}
	if u.TotalBandwidthMBps() <= 0 {
		t.Error("zero total bandwidth")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(validConfig())
	b := Random(validConfig())
	for i := range a.Connections {
		if a.Connections[i] != b.Connections[i] {
			t.Fatal("same seed produced different workloads")
		}
	}
	cfg := validConfig()
	cfg.Seed = 2
	c := Random(cfg)
	same := true
	for i := range a.Connections {
		if a.Connections[i] != c.Connections[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestHeavyTail(t *testing.T) {
	cfg := validConfig()
	cfg.Conns = 400
	cfg.HeavyFraction = 0.1
	cfg.HeavyMinRateMBps = 40
	u := Random(cfg)
	heavy := 0
	for _, c := range u.Connections {
		if c.BandwidthMBps >= 40 {
			heavy++
		}
	}
	frac := float64(heavy) / 400
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("heavy fraction %.2f, want ~0.1", frac)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *UseCase {
		return &UseCase{Apps: 2, IPs: []IP{{ID: 0}, {ID: 1}},
			Connections: []Connection{{ID: 1, App: 0, Src: 0, Dst: 1, BandwidthMBps: 10, MaxLatencyNs: 100}}}
	}
	cases := map[string]func(u *UseCase){
		"dup ip":       func(u *UseCase) { u.IPs = append(u.IPs, IP{ID: 0}) },
		"zero conn id": func(u *UseCase) { u.Connections[0].ID = phit.None },
		"negative id":  func(u *UseCase) { u.Connections[0].ID = -3 },
		"dup conn":     func(u *UseCase) { u.Connections = append(u.Connections, u.Connections[0]) },
		"unknown src":  func(u *UseCase) { u.Connections[0].Src = 9 },
		"unknown dst":  func(u *UseCase) { u.Connections[0].Dst = 9 },
		"self loop":    func(u *UseCase) { u.Connections[0].Dst = 0 },
		"zero rate":    func(u *UseCase) { u.Connections[0].BandwidthMBps = 0 },
		"zero latency": func(u *UseCase) { u.Connections[0].MaxLatencyNs = 0 },
		"bad app":      func(u *UseCase) { u.Connections[0].App = 5 },
	}
	for name, mutate := range cases {
		u := base()
		mutate(u)
		if err := u.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Errorf("base case rejected: %v", err)
	}
}

func TestMappings(t *testing.T) {
	m := topology.NewMesh(2, 2, 2)
	u := Random(validConfig())
	MapIPsRoundRobin(u, m, 3)
	for _, ip := range u.IPs {
		if ip.NI == topology.Invalid {
			t.Fatal("round robin left an IP unmapped")
		}
	}
	u3 := Random(validConfig())
	MapIPsByTraffic(u3, m)
	for _, ip := range u3.IPs {
		if ip.NI == topology.Invalid {
			t.Fatal("by-traffic left an IP unmapped")
		}
	}
}

func TestConnectionsOfAppAndIP(t *testing.T) {
	u := Random(validConfig())
	total := 0
	for a := 0; a < u.Apps; a++ {
		total += len(u.ConnectionsOfApp(AppID(a)))
	}
	if total != len(u.Connections) {
		t.Errorf("apps partition %d of %d connections", total, len(u.Connections))
	}
	if _, err := u.IP(0); err != nil {
		t.Errorf("IP(0): %v", err)
	}
	if _, err := u.IP(999); err == nil {
		t.Error("IP(999) found")
	}
}

// TestIPWhenIDsAreNotPositions: a hand-written spec may number its IPs in
// any order; the lookup must not take the IP at position id for IP id.
func TestIPWhenIDsAreNotPositions(t *testing.T) {
	u := &UseCase{IPs: []IP{{ID: 5, Name: "dsp"}, {ID: 0, Name: "cpu"}, {ID: 1, Name: "mem"}}}
	for id, want := range map[IPID]string{5: "dsp", 0: "cpu", 1: "mem"} {
		if ip, err := u.IP(id); err != nil || ip.Name != want {
			t.Errorf("IP(%d) = %+v, %v; want %s", id, ip, err, want)
		}
	}
	for _, id := range []IPID{-1, 2, 3} {
		if ip, err := u.IP(id); err == nil {
			t.Errorf("IP(%d) found %+v", id, ip)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "uc.json")
	u := Random(validConfig())
	m := topology.NewMesh(2, 2, 2)
	MapIPsRoundRobin(u, m, 1)
	if err := u.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Name != u.Name || len(got.Connections) != len(u.Connections) {
		t.Error("round trip lost data")
	}
	for i := range got.Connections {
		if got.Connections[i] != u.Connections[i] {
			t.Fatal("connection changed in round trip")
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("Load accepted a missing file")
	}
}

func TestSection7Config(t *testing.T) {
	cfg := Section7Config(1)
	if cfg.IPs != 70 || cfg.Apps != 4 || cfg.Conns != 200 {
		t.Errorf("Section7Config = %+v", cfg)
	}
	if cfg.MinRateMBps != 10 || cfg.MaxRateMBps != 500 {
		t.Error("rate range wrong")
	}
	if cfg.MinLatencyNs != 35 || cfg.MaxLatencyNs != 500 {
		t.Error("latency range wrong")
	}
	u := Random(cfg)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPanicsOnDegenerate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for degenerate config")
		}
	}()
	Random(RandomConfig{IPs: 1, Conns: 1, Apps: 1})
}

func TestEndpointsAndValidateMapped(t *testing.T) {
	m := topology.NewMesh(2, 2, 2)
	u := Random(validConfig())
	if err := u.ValidateMapped(); err == nil {
		t.Error("ValidateMapped accepted an unmapped use case")
	}
	MapIPsRoundRobin(u, m, 3)
	if err := u.ValidateMapped(); err != nil {
		t.Errorf("ValidateMapped rejected a mapped use case: %v", err)
	}
	c := u.Connections[0]
	src, dst, err := u.Endpoints(c)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := u.IP(c.Src)
	d, _ := u.IP(c.Dst)
	if src != s.NI || dst != d.NI {
		t.Errorf("Endpoints = %d, %d; IPs sit on %d, %d", src, dst, s.NI, d.NI)
	}
	c.Dst = IPID(len(u.IPs))
	if _, _, err := u.Endpoints(c); err == nil {
		t.Error("Endpoints accepted an unknown destination IP")
	}
	u.Connections[0].BandwidthMBps = 0
	if err := u.ValidateMapped(); err == nil {
		t.Error("ValidateMapped accepted what Validate rejects")
	}
}
