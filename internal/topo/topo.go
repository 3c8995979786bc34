// Package topo builds and routes PowerMANNA interconnect topologies
// (Section 3 and Figure 5 of the paper).
//
// The interconnect is a hierarchy of 16×16 crossbars. Every node carries
// two bidirectional link ports attached to two separate networks — the
// duplicated communication system that doubles bandwidth and lets system
// software claim one network while applications own the other (Section 4).
//
// Two standard configurations are provided:
//
//   - Cluster8 (Figure 5a): eight single-board nodes and two crossbars in
//     one desk-side cabinet. Node i's link 0 attaches to crossbar A port
//     i, link 1 to crossbar B port i; ports 8–15 of both crossbars remain
//     free as eight asynchronous dual-links for inter-cluster cabling.
//
//   - System256 (Figure 5b): 256 processors = 128 two-way nodes = 16
//     clusters. Each network's free cluster ports fan out to a stage of
//     eight central 16×16 crossbars (one link from every cluster to every
//     central crossbar), forming a permutation network per link plane —
//     the rows and columns of the figure. Any two nodes are connected
//     through at most three crossbars, as the paper states.
//
// Arbitrary hierarchies can be assembled with the same primitives; routes
// are found by breadth-first search over the port graph, which is valid
// because the PowerMANNA crossbar routes any input to any output (unlike
// the CM-5's level-restricted 8×8 crossbar).
//
// A route is a pure function of (src, dst, network), so each Topology
// memoizes them in one route table shared by every network, transport
// and psim shard built over it. The table fills lazily: the first Route
// call for a triple runs the search and publishes the result with an
// atomic compare-and-swap, and the entry is immutable from then on, so
// concurrent callers (the rows of a parallel campaign) need no lock and a
// repeat lookup allocates nothing. Connect drops the table, because a new
// link can shorten existing routes; wiring is not safe to run
// concurrently with Route.
package topo

import (
	"fmt"
	"sync/atomic"

	"powermanna/internal/xbar"
)

// NetworkA and NetworkB select which of the duplicated networks (node
// link ports) a route uses.
const (
	NetworkA = 0
	NetworkB = 1
)

// port identifies one attachment point on a device.
type port struct {
	dev  int // device index: 0..nodes-1 are nodes, then crossbars
	port int
}

// edge is one bidirectional physical link, seen from one of its ends.
type edge struct {
	peerDev  int
	peerPort int
	async    bool // crosses an asynchronous transceiver pair
	wired    bool // false for a free port
}

// Topology is an assembled interconnect.
type Topology struct {
	name     string
	nodes    int
	xbarName []string
	// adj is the dense adjacency: the edge leaving (dev, port) sits at
	// dev*xbar.Ports+port. Nodes use only their first two slots.
	adj []edge
	// routes is the lazily filled route table (nil until the first
	// Route, and again after every Connect).
	routes atomic.Pointer[routeTable]
}

// routeTable memoizes Route: one slot per (src, dst, network), written
// once by compare-and-swap and immutable after.
type routeTable struct {
	slots []atomic.Pointer[routeResult]
}

// routeResult is one memoized Route outcome.
type routeResult struct {
	path Path
	err  error
}

// New starts an empty topology with the given number of nodes.
func New(name string, nodes int) *Topology {
	return &Topology{name: name, nodes: nodes, adj: make([]edge, nodes*xbar.Ports)}
}

// Name returns the topology label.
func (t *Topology) Name() string { return t.name }

// Nodes reports the node count.
func (t *Topology) Nodes() int { return t.nodes }

// Crossbars reports the crossbar count.
func (t *Topology) Crossbars() int { return len(t.xbarName) }

// CrossbarName returns the label of crossbar i.
func (t *Topology) CrossbarName(i int) string { return t.xbarName[i] }

// AddCrossbar appends a crossbar and returns its device index (node count
// + crossbar ordinal).
func (t *Topology) AddCrossbar(name string) int {
	t.xbarName = append(t.xbarName, name)
	t.adj = append(t.adj, make([]edge, xbar.Ports)...)
	return t.nodes + len(t.xbarName) - 1
}

// xbarIndex converts a device index to a crossbar ordinal.
func (t *Topology) xbarIndex(dev int) int { return dev - t.nodes }

// isNode reports whether a device index is a node.
func (t *Topology) isNode(dev int) bool { return dev < t.nodes }

// link returns the edge leaving (dev, p) and whether that port is wired;
// a port outside the device range is reported unwired.
func (t *Topology) link(dev, p int) (edge, bool) {
	if dev < 0 || p < 0 || p >= xbar.Ports || dev*xbar.Ports+p >= len(t.adj) {
		return edge{}, false
	}
	e := t.adj[dev*xbar.Ports+p]
	return e, e.wired
}

// Connect wires (devA, portA) to (devB, portB) as one bidirectional link.
// async marks an inter-cabinet link through transceivers. It returns an
// error if either port is already wired or out of range. Connecting
// drops the route table.
func (t *Topology) Connect(devA, portA, devB, portB int, async bool) error {
	for _, p := range []port{{devA, portA}, {devB, portB}} {
		if err := t.checkPort(p); err != nil {
			return err
		}
		if _, used := t.link(p.dev, p.port); used {
			return fmt.Errorf("topo %s: port %v already wired", t.name, p)
		}
	}
	t.adj[devA*xbar.Ports+portA] = edge{peerDev: devB, peerPort: portB, async: async, wired: true}
	t.adj[devB*xbar.Ports+portB] = edge{peerDev: devA, peerPort: portA, async: async, wired: true}
	t.routes.Store(nil)
	return nil
}

func (t *Topology) checkPort(p port) error {
	switch {
	case p.dev < 0 || p.dev >= t.nodes+len(t.xbarName):
		return fmt.Errorf("topo %s: device %d out of range", t.name, p.dev)
	case t.isNode(p.dev) && (p.port < 0 || p.port > 1):
		return fmt.Errorf("topo %s: node %d has ports 0 and 1, not %d", t.name, p.dev, p.port)
	case !t.isNode(p.dev) && (p.port < 0 || p.port >= xbar.Ports):
		return fmt.Errorf("topo %s: crossbar port %d out of range", t.name, p.port)
	}
	return nil
}

// Hop is one crossbar traversal of a route.
type Hop struct {
	// Xbar is the crossbar ordinal (index into Crossbars()).
	Xbar int
	// In and Out are the input and output channels used.
	In, Out int
	// AsyncIn marks that the link feeding this hop crossed transceivers.
	AsyncIn bool
}

// Path is a source-routed connection.
type Path struct {
	Src, Dst int
	Network  int
	Hops     []Hop
	// RouteBytes is the message header: one route command per crossbar,
	// consumed hop by hop (Section 3.1).
	RouteBytes []byte
	// AsyncLinks counts transceiver crossings end to end.
	AsyncLinks int
}

// Route finds the shortest path from node src to node dst leaving src on
// the given network (link port). Among equal-length paths the choice is
// deterministic per (src, dst) pair but *spread*: the crossbar output
// scan order is rotated by a pair hash, so the eight parallel central
// crossbars of the Figure 5b system share permutation traffic instead of
// funnelling through one — the load distribution the duplicated
// hierarchy is built for.
//
// Routes come from the topology's shared route table: the first call for
// a (src, dst, network) runs the search, later calls return the same
// result without allocating. The returned Hops and RouteBytes are shared
// with every other caller and must not be modified.
//
//pmlint:hotpath
func (t *Topology) Route(src, dst, network int) (Path, error) {
	if src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes ||
		(network != NetworkA && network != NetworkB) {
		return Path{}, t.routeArgError(src, dst, network)
	}
	if src == dst {
		return Path{Src: src, Dst: dst, Network: network}, nil
	}
	tab := t.routes.Load()
	if tab == nil {
		tab = t.newRouteTable()
	}
	slot := &tab.slots[(src*t.nodes+dst)*2+network]
	r := slot.Load()
	if r == nil {
		r = t.search(src, dst, network)
		if !slot.CompareAndSwap(nil, r) {
			r = slot.Load() // a concurrent caller published the same route first
		}
	}
	return r.path, r.err
}

// routeArgError explains why Route rejected its arguments.
func (t *Topology) routeArgError(src, dst, network int) error {
	if src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes {
		return fmt.Errorf("topo %s: node out of range (%d, %d)", t.name, src, dst)
	}
	return fmt.Errorf("topo %s: network %d invalid", t.name, network)
}

// newRouteTable installs an empty route table, or returns the one a
// concurrent caller installed first.
func (t *Topology) newRouteTable() *routeTable {
	tab := &routeTable{slots: make([]atomic.Pointer[routeResult], t.nodes*t.nodes*2)}
	if t.routes.CompareAndSwap(nil, tab) {
		return tab
	}
	return t.routes.Load()
}

// bfsVisit is the search's record of one reached device.
type bfsVisit struct {
	// from and out are the crossbar the search arrived from and the
	// output port it left by.
	from int32
	out  int8
	seen bool
	// asyncIn marks that the link the search arrived on crossed
	// transceivers.
	asyncIn bool
}

// search runs the breadth-first route search behind Route for src != dst,
// both in range. The search stops as soon as it reaches dst: a device's
// record is written once, when first reached, so expanding the rest of
// the queue could not change the path.
func (t *Topology) search(src, dst, network int) *routeResult {
	first, ok := t.link(src, network)
	if !ok {
		return &routeResult{err: fmt.Errorf("topo %s: node %d link %d not wired", t.name, src, network)}
	}

	// BFS over devices, starting from the device at the end of src's link.
	visit := make([]bfsVisit, t.nodes+len(t.xbarName))
	visit[src].seen = true
	visit[first.peerDev] = bfsVisit{seen: true, asyncIn: first.async}
	queue := make([]int32, 1, len(visit))
	queue[0] = int32(first.peerDev)
	found := first.peerDev == dst
	for head := 0; head < len(queue) && !found; head++ {
		cur := int(queue[head])
		if t.isNode(cur) {
			continue // routes only pass through crossbars
		}
		// Deterministic expansion order, shuffled per (src, dst, device)
		// so equal-cost alternatives spread uniformly across parallel
		// crossbars (a rotation would bias toward the first valid port).
		order := portOrder(uint64(src)*1_000_003 + uint64(dst)*131 + uint64(network)*17 + uint64(cur)*31)
		for _, out := range order {
			e := t.adj[cur*xbar.Ports+out]
			if !e.wired || visit[e.peerDev].seen {
				continue
			}
			visit[e.peerDev] = bfsVisit{from: int32(cur), out: int8(out), seen: true, asyncIn: e.async}
			if e.peerDev == dst {
				found = true
				break
			}
			queue = append(queue, int32(e.peerDev))
		}
	}
	if !found {
		return &routeResult{err: fmt.Errorf("topo %s: no route %d -> %d on network %d", t.name, src, dst, network)}
	}

	// Reconstruct: walk back from dst counting crossbars and async links,
	// then fill the hops src→dst in reverse.
	n, async := 0, 0
	for dev := dst; dev != first.peerDev; dev = int(visit[dev].from) {
		n++
		if visit[dev].asyncIn {
			async++
		}
	}
	if first.async {
		async++
	}
	path := Path{Src: src, Dst: dst, Network: network, AsyncLinks: async}
	if n > 0 {
		path.Hops = make([]Hop, n)
		path.RouteBytes = make([]byte, n)
	}
	i := n - 1
	for dev := dst; dev != first.peerDev; dev = int(visit[dev].from) {
		v := visit[dev]
		path.Hops[i] = Hop{Xbar: t.xbarIndex(int(v.from)), Out: int(v.out)}
		path.RouteBytes[i] = xbar.EncodeRoute(int(v.out))
		i--
	}
	// Input ports and async inputs: each hop enters where the previous
	// hop's output link lands.
	inPort, asyncIn := first.peerPort, first.async
	for i := range path.Hops {
		h := &path.Hops[i]
		h.In, h.AsyncIn = inPort, asyncIn
		e := t.adj[(t.nodes+h.Xbar)*xbar.Ports+h.Out]
		inPort, asyncIn = e.peerPort, e.async
	}
	return &routeResult{path: path}
}

// portOrder returns a deterministic pseudo-random permutation of the
// crossbar ports for the given seed (xorshift-driven Fisher–Yates).
func portOrder(seed uint64) [xbar.Ports]int {
	var p [xbar.Ports]int
	for i := range p {
		p[i] = i
	}
	x := seed*2654435761 + 1
	for i := xbar.Ports - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// MaxCrossbars reports the maximum crossbar count over all node pairs and
// both networks — the paper's "at most three crossbars" claim for the
// 256-processor system.
func (t *Topology) MaxCrossbars() (int, error) {
	max := 0
	for s := 0; s < t.nodes; s++ {
		for d := 0; d < t.nodes; d++ {
			if s == d {
				continue
			}
			for _, net := range []int{NetworkA, NetworkB} {
				if _, wired := t.link(s, net); !wired {
					continue // single-network topologies (e.g. meshes)
				}
				p, err := t.Route(s, d, net)
				if err != nil {
					return 0, err
				}
				if len(p.Hops) > max {
					max = len(p.Hops)
				}
			}
		}
	}
	return max, nil
}

// FreePorts reports unwired ports on crossbar ordinal i.
func (t *Topology) FreePorts(i int) int {
	free := 0
	for p := 0; p < xbar.Ports; p++ {
		if _, used := t.link(t.nodes+i, p); !used {
			free++
		}
	}
	return free
}
