package topology

import "fmt"

// NodeID identifies a node within a Graph.
type NodeID int

// LinkID identifies a link within a Graph. It is 32 bits wide because
// routes store one per hop, by the tens of thousands on a large mesh.
type LinkID int32

// Invalid marks an absent node or link reference.
const Invalid = -1

// Kind distinguishes node types.
type Kind uint8

const (
	// Router is an aelite (or baseline) router.
	Router Kind = iota
	// NI is a network interface connecting IPs to the network.
	NI
)

func (k Kind) String() string {
	switch k {
	case Router:
		return "router"
	case NI:
		return "NI"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Mesh directions for router ports 0..3.
const (
	North = 0
	East  = 1
	South = 2
	West  = 3
	// NIPortBase is the first router port used for NI attachment on
	// mesh routers.
	NIPortBase = 4
)

// A Node is a router or NI.
type Node struct {
	ID    NodeID
	Kind  Kind
	Name  string
	Ports int // number of ports (router arity, or NI network ports)

	// X, Y are mesh coordinates for routers created by NewMesh;
	// -1 otherwise.
	X, Y int

	// Router is, for an NI, the router it attaches to; Invalid for
	// routers.
	Router NodeID

	out []LinkID // per output port, Invalid if unconnected
	in  []LinkID // per input port, Invalid if unconnected
}

// A Link is a unidirectional connection from (From, FromPort) to
// (To, ToPort).
type Link struct {
	ID       LinkID
	From     NodeID
	FromPort int
	To       NodeID
	ToPort   int

	// PipelineStages is the number of mesochronous link pipeline stages
	// on this link. Each stage adds one flit cycle of latency and one
	// slot of TDM shift.
	PipelineStages int
}

// A Graph is an immutable-after-construction NoC topology.
type Graph struct {
	nodes []Node
	links []Link
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node with the given kind, name and port count and
// returns its id.
func (g *Graph) AddNode(kind Kind, name string, ports int) NodeID {
	if ports <= 0 {
		panic(fmt.Sprintf("topology: node %q must have at least one port", name))
	}
	id := NodeID(len(g.nodes))
	// One backing array holds both port tables.
	tables := make([]LinkID, 2*ports)
	for i := range tables {
		tables[i] = Invalid
	}
	n := Node{ID: id, Kind: kind, Name: name, Ports: ports, X: -1, Y: -1, Router: Invalid,
		out: tables[:ports:ports], in: tables[ports:]}
	g.nodes = append(g.nodes, n)
	return id
}

// Connect adds a unidirectional link and returns its id. It panics if
// either port is out of range or already connected in that direction:
// topologies are built once, so misconnection is a programming error.
func (g *Graph) Connect(from NodeID, fromPort int, to NodeID, toPort int) LinkID {
	f, t := g.node(from), g.node(to)
	if fromPort < 0 || fromPort >= f.Ports {
		panic(fmt.Sprintf("topology: %s has no output port %d", f.Name, fromPort))
	}
	if toPort < 0 || toPort >= t.Ports {
		panic(fmt.Sprintf("topology: %s has no input port %d", t.Name, toPort))
	}
	if f.out[fromPort] != Invalid {
		panic(fmt.Sprintf("topology: %s output port %d already connected", f.Name, fromPort))
	}
	if t.in[toPort] != Invalid {
		panic(fmt.Sprintf("topology: %s input port %d already connected", t.Name, toPort))
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, From: from, FromPort: fromPort, To: to, ToPort: toPort})
	f.out[fromPort] = id
	t.in[toPort] = id
	return id
}

// ConnectBidir adds links in both directions using the same port number on
// each side and returns the two link ids (a->b, b->a).
func (g *Graph) ConnectBidir(a NodeID, aPort int, b NodeID, bPort int) (LinkID, LinkID) {
	return g.Connect(a, aPort, b, bPort), g.Connect(b, bPort, a, aPort)
}

// SetAllPipelineStages sets the pipeline-stage count on every link (used
// by the asynchronous-wrapper mode, where each hop advances the flit by a
// uniform number of dataflow iterations).
func (g *Graph) SetAllPipelineStages(stages int) {
	for i := range g.links {
		g.SetPipelineStages(g.links[i].ID, stages)
	}
}

// SetPipelineStages sets the number of link pipeline stages on a link.
func (g *Graph) SetPipelineStages(l LinkID, stages int) {
	if stages < 0 {
		panic("topology: negative pipeline stage count")
	}
	g.links[l].PipelineStages = stages
}

func (g *Graph) node(id NodeID) *Node {
	if id < 0 || int(id) >= len(g.nodes) {
		panic(fmt.Sprintf("topology: no node %d", id))
	}
	return &g.nodes[id]
}

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) Node { return *g.node(id) }

// Link returns the link with the given id.
func (g *Graph) Link(id LinkID) Link {
	if id < 0 || int(id) >= len(g.links) {
		panic(fmt.Sprintf("topology: no link %d", id))
	}
	return g.links[id]
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the link count.
func (g *Graph) NumLinks() int { return len(g.links) }

// Nodes returns a copy of all nodes.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	for i := range g.nodes {
		out[i] = g.nodes[i]
	}
	return out
}

// Links returns a copy of all links.
func (g *Graph) Links() []Link {
	return append([]Link(nil), g.links...)
}

// OutLink returns the link leaving the node's output port, or Invalid.
func (g *Graph) OutLink(n NodeID, port int) LinkID {
	node := g.node(n)
	if port < 0 || port >= node.Ports {
		return Invalid
	}
	return node.out[port]
}

// InLink returns the link entering the node's input port, or Invalid.
func (g *Graph) InLink(n NodeID, port int) LinkID {
	node := g.node(n)
	if port < 0 || port >= node.Ports {
		return Invalid
	}
	return node.in[port]
}

// Routers returns the ids of all router nodes in id order.
func (g *Graph) Routers() []NodeID { return g.byKind(Router) }

// NIs returns the ids of all NI nodes in id order.
func (g *Graph) NIs() []NodeID { return g.byKind(NI) }

func (g *Graph) byKind(k Kind) []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if g.nodes[i].Kind == k {
			out = append(out, g.nodes[i].ID)
		}
	}
	return out
}

// Validate checks structural sanity: every NI is attached to a router,
// every link endpoint exists, and mesh routers have consistent back-links.
func (g *Graph) Validate() error {
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.Kind == NI {
			if n.Router == Invalid {
				return fmt.Errorf("topology: NI %s not attached to a router", n.Name)
			}
			if g.nodes[n.Router].Kind != Router {
				return fmt.Errorf("topology: NI %s attached to non-router %s", n.Name, g.nodes[n.Router].Name)
			}
		}
	}
	for _, l := range g.links {
		if g.node(l.From).out[l.FromPort] != l.ID || g.node(l.To).in[l.ToPort] != l.ID {
			return fmt.Errorf("topology: link %d has inconsistent port back-references", l.ID)
		}
	}
	return nil
}
