package topology

import "testing"

func TestGraphBasics(t *testing.T) {
	g := New()
	r := g.AddNode(Router, "r", 3)
	n := g.AddNode(NI, "n", 1)
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	l1, l2 := g.ConnectBidir(n, 0, r, 2)
	if g.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d", g.NumLinks())
	}
	if g.OutLink(n, 0) != l1 || g.InLink(r, 2) != l1 {
		t.Error("forward link misconnected")
	}
	if g.OutLink(r, 2) != l2 || g.InLink(n, 0) != l2 {
		t.Error("reverse link misconnected")
	}
	if g.OutLink(r, 0) != Invalid {
		t.Error("unconnected port should be Invalid")
	}
	if g.OutLink(r, 99) != Invalid {
		t.Error("out-of-range port should be Invalid")
	}
	lk := g.Link(l1)
	if lk.From != n || lk.To != r || lk.ToPort != 2 {
		t.Errorf("link = %+v", lk)
	}
	if got := g.Node(r).Name; got != "r" {
		t.Errorf("Node name = %q", got)
	}
}

func TestConnectPanics(t *testing.T) {
	cases := map[string]func(g *Graph, r, n NodeID){
		"bad from port": func(g *Graph, r, n NodeID) { g.Connect(r, 9, n, 0) },
		"bad to port":   func(g *Graph, r, n NodeID) { g.Connect(r, 0, n, 9) },
		"double out": func(g *Graph, r, n NodeID) {
			g.Connect(r, 0, n, 0)
			g.Connect(r, 0, n, 0)
		},
	}
	for name, f := range cases {
		g := New()
		r := g.AddNode(Router, "r", 2)
		n := g.AddNode(NI, "n", 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f(g, r, n)
		}()
	}
}

func TestAddNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero ports")
		}
	}()
	New().AddNode(Router, "r", 0)
}

func TestMeshStructure(t *testing.T) {
	m := NewMesh(4, 3, 4)
	if got := len(m.Routers()); got != 12 {
		t.Errorf("routers = %d, want 12", got)
	}
	if got := len(m.NIs()); got != 48 {
		t.Errorf("NIs = %d, want 48", got)
	}
	// Mesh links: horizontal 3*3*2 + vertical 4*2*2 = 18+16 = 34;
	// NI links: 48*2 = 96.
	if got := m.NumLinks(); got != 130 {
		t.Errorf("links = %d, want 130", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Router arity = 4 mesh + 4 NI ports.
	r := m.Node(m.RouterAt(1, 1))
	if r.Ports != 8 {
		t.Errorf("router ports = %d", r.Ports)
	}
	if r.X != 1 || r.Y != 1 {
		t.Errorf("router coords = %d,%d", r.X, r.Y)
	}
	// Interior router has all mesh ports connected; corner does not.
	for p := 0; p < 4; p++ {
		if m.OutLink(m.RouterAt(1, 1), p) == Invalid {
			t.Errorf("interior router missing mesh port %d", p)
		}
	}
	if m.OutLink(m.RouterAt(0, 0), North) != Invalid || m.OutLink(m.RouterAt(0, 0), West) != Invalid {
		t.Error("corner router has links off the mesh edge")
	}
	// NI attachment.
	ni := m.Node(m.NIAt(2, 1, 3))
	if ni.Router != m.RouterAt(2, 1) {
		t.Error("NI attached to wrong router")
	}
	if got := len(m.AllNIs()); got != 48 {
		t.Errorf("AllNIs = %d", got)
	}
}

func TestMeshNeighbours(t *testing.T) {
	m := NewMesh(3, 3, 1)
	r11 := m.RouterAt(1, 1)
	east := m.Link(m.OutLink(r11, East)).To
	if m.Node(east).X != 2 || m.Node(east).Y != 1 {
		t.Errorf("east neighbour at (%d,%d)", m.Node(east).X, m.Node(east).Y)
	}
	south := m.Link(m.OutLink(r11, South)).To
	if m.Node(south).X != 1 || m.Node(south).Y != 2 {
		t.Errorf("south neighbour at (%d,%d)", m.Node(south).X, m.Node(south).Y)
	}
}

func TestPipelineStages(t *testing.T) {
	m := NewMesh(2, 2, 1)
	m.SetMeshPipelineStages(2)
	meshLinks, niLinks := 0, 0
	for _, l := range m.Links() {
		routerToRouter := m.Node(l.From).Kind == Router && m.Node(l.To).Kind == Router
		if routerToRouter {
			meshLinks++
			if l.PipelineStages != 2 {
				t.Errorf("mesh link %d has %d stages", l.ID, l.PipelineStages)
			}
		} else {
			niLinks++
			if l.PipelineStages != 0 {
				t.Errorf("NI link %d has %d stages", l.ID, l.PipelineStages)
			}
		}
	}
	if meshLinks != 8 || niLinks != 8 {
		t.Errorf("mesh/NI links = %d/%d", meshLinks, niLinks)
	}
	m.SetAllPipelineStages(1)
	for _, l := range m.Links() {
		if l.PipelineStages != 1 {
			t.Errorf("link %d has %d stages after SetAll", l.ID, l.PipelineStages)
		}
	}
}

func TestMeshPanics(t *testing.T) {
	m := NewMesh(2, 2, 1)
	for name, f := range map[string]func(){
		"bad mesh":     func() { NewMesh(0, 2, 1) },
		"no NIs":       func() { NewMesh(2, 2, 0) },
		"router range": func() { m.RouterAt(5, 0) },
		"ni range":     func() { m.NIAt(0, 0, 7) },
		"neg stages":   func() { m.SetPipelineStages(0, -1) },
		"bad node":     func() { m.Node(-1) },
		"bad link":     func() { m.Link(LinkID(999)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestKindString(t *testing.T) {
	if Router.String() != "router" || NI.String() != "NI" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string")
	}
}

// TestNewMeshSizesGraphOnce: the node and link counts NewMesh computes up
// front are exact, so neither table is regrown or over-allocated.
func TestNewMeshSizesGraphOnce(t *testing.T) {
	for _, s := range []struct{ cols, rows, nis int }{{1, 1, 1}, {1, 5, 2}, {4, 3, 4}, {32, 32, 1}} {
		m := NewMesh(s.cols, s.rows, s.nis)
		if len(m.nodes) != cap(m.nodes) || len(m.links) != cap(m.links) {
			t.Errorf("%dx%dx%d: %d nodes in room for %d, %d links in room for %d",
				s.cols, s.rows, s.nis, len(m.nodes), cap(m.nodes), len(m.links), cap(m.links))
		}
	}
}
