package topology

import "fmt"

// A Mesh is a 2-D mesh of routers with NIs concentrated on each router,
// the topology used throughout the paper's evaluation (Section VII uses a
// 4x3 mesh with 4 NIs per router).
type Mesh struct {
	*Graph
	Cols, Rows   int
	NIsPerRouter int

	routers [][]NodeID // [col][row]
	nis     [][]NodeID // [router index][ni index]
}

// NewMesh builds a cols x rows mesh with n NIs attached to every router.
// Router arity is 4 + n (mesh ports North/East/South/West plus one port
// per NI); border routers leave their outward mesh ports unconnected, as
// in hardware. NIs have a single network port (port 0).
func NewMesh(cols, rows, nisPerRouter int) *Mesh {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d", cols, rows))
	}
	if nisPerRouter <= 0 {
		panic("topology: mesh needs at least one NI per router")
	}
	// Every router has nisPerRouter NIs; every adjacent router pair and
	// every NI attachment is two unidirectional links.
	routers := cols * rows
	g := &Graph{
		nodes: make([]Node, 0, routers*(1+nisPerRouter)),
		links: make([]Link, 0, 2*((cols-1)*rows+cols*(rows-1)+routers*nisPerRouter)),
	}
	m := &Mesh{Graph: g, Cols: cols, Rows: rows, NIsPerRouter: nisPerRouter}
	m.routers = make([][]NodeID, cols)
	for x := 0; x < cols; x++ {
		m.routers[x] = make([]NodeID, rows)
		for y := 0; y < rows; y++ {
			id := m.AddNode(Router, fmt.Sprintf("R%d.%d", x, y), 4+nisPerRouter)
			n := m.node(id)
			n.X, n.Y = x, y
			m.routers[x][y] = id
		}
	}
	// Mesh links. North decreases y, South increases y (screen
	// coordinates); East increases x.
	for x := 0; x < cols; x++ {
		for y := 0; y < rows; y++ {
			r := m.routers[x][y]
			if x+1 < cols {
				m.Connect(r, East, m.routers[x+1][y], West)
				m.Connect(m.routers[x+1][y], West, r, East)
			}
			if y+1 < rows {
				m.Connect(r, South, m.routers[x][y+1], North)
				m.Connect(m.routers[x][y+1], North, r, South)
			}
		}
	}
	// NIs.
	m.nis = make([][]NodeID, routers)
	for x := 0; x < cols; x++ {
		for y := 0; y < rows; y++ {
			r := m.routers[x][y]
			idx := x*rows + y
			m.nis[idx] = make([]NodeID, 0, nisPerRouter)
			for k := 0; k < nisPerRouter; k++ {
				ni := m.AddNode(NI, fmt.Sprintf("NI%d.%d.%d", x, y, k), 1)
				nn := m.node(ni)
				nn.Router = r
				m.Connect(ni, 0, r, NIPortBase+k)
				m.Connect(r, NIPortBase+k, ni, 0)
				m.nis[idx] = append(m.nis[idx], ni)
			}
		}
	}
	return m
}

// RouterAt returns the router at mesh coordinate (x, y).
func (m *Mesh) RouterAt(x, y int) NodeID {
	if x < 0 || x >= m.Cols || y < 0 || y >= m.Rows {
		panic(fmt.Sprintf("topology: no router at (%d,%d) in %dx%d mesh", x, y, m.Cols, m.Rows))
	}
	return m.routers[x][y]
}

// NIAt returns the k-th NI of the router at (x, y).
func (m *Mesh) NIAt(x, y, k int) NodeID {
	r := m.RouterAt(x, y) // bounds check
	_ = r
	idx := x*m.Rows + y
	if k < 0 || k >= m.NIsPerRouter {
		panic(fmt.Sprintf("topology: router (%d,%d) has no NI %d", x, y, k))
	}
	return m.nis[idx][k]
}

// AllNIs returns every NI in deterministic (router-major) order.
func (m *Mesh) AllNIs() []NodeID {
	var out []NodeID
	for _, group := range m.nis {
		out = append(out, group...)
	}
	return out
}

// SetMeshPipelineStages puts the given number of link pipeline stages on
// every router-to-router link (NI links stay direct, matching the paper's
// placement of link pipeline stages on long inter-router wires).
func (m *Mesh) SetMeshPipelineStages(stages int) {
	for _, l := range m.links {
		if m.nodes[l.From].Kind == Router && m.nodes[l.To].Kind == Router {
			m.SetPipelineStages(l.ID, stages)
		}
	}
}
