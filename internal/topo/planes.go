package topo

import "powermanna/internal/xbar"

// CrossbarPlanes reports which network plane each crossbar serves, indexed
// by crossbar ordinal: NetworkA, NetworkB, or -1 for a crossbar reachable
// from no node port. In the duplicated communication system the two
// planes are disjoint hierarchies (Section 4, Figure 5), so every
// crossbar belongs to exactly one plane; in a topology where the planes
// meet, the lower-numbered plane wins. The fault-campaign engine uses
// this to aim plane-A faults at plane-A hardware.
func (t *Topology) CrossbarPlanes() []int {
	planes := make([]int, len(t.xbarName))
	for i := range planes {
		planes[i] = -1
	}
	for _, net := range []int{NetworkA, NetworkB} {
		// Seed the flood with every crossbar directly on a node's port for
		// this plane, then spread across crossbar-to-crossbar links.
		var queue []int
		claim := func(dev int) {
			xi := t.xbarIndex(dev)
			if planes[xi] == -1 {
				planes[xi] = net
				queue = append(queue, dev)
			}
		}
		for nd := 0; nd < t.nodes; nd++ {
			if e, ok := t.link(nd, net); ok && !t.isNode(e.peerDev) {
				claim(e.peerDev)
			}
		}
		for len(queue) > 0 {
			dev := queue[0]
			queue = queue[1:]
			for out := 0; out < xbar.Ports; out++ {
				if e, ok := t.link(dev, out); ok && !t.isNode(e.peerDev) {
					claim(e.peerDev)
				}
			}
		}
	}
	return planes
}

// CentralCrossbars lists the crossbars wired only to other crossbars —
// the central switching stage of a hierarchical topology (the middle
// 16×16 stage of System256's Clos-like fabric), in ascending ordinal
// order. A fault there hits no single node's uplink but degrades the
// routes of every cluster the stage connects; leaf crossbars and
// unwired ordinals are excluded.
func (t *Topology) CentralCrossbars() []int {
	var central []int
	for i := range t.xbarName {
		wired, node := false, false
		for p := 0; p < xbar.Ports; p++ {
			if e, ok := t.link(t.nodes+i, p); ok {
				wired = true
				if t.isNode(e.peerDev) {
					node = true
				}
			}
		}
		if wired && !node {
			central = append(central, i)
		}
	}
	return central
}

// WiredPorts lists the wired ports of crossbar ordinal i in ascending
// order — the ports where a stuck-busy fault actually obstructs traffic.
func (t *Topology) WiredPorts(i int) []int {
	var wired []int
	for p := 0; p < xbar.Ports; p++ {
		if _, used := t.link(t.nodes+i, p); used {
			wired = append(wired, p)
		}
	}
	return wired
}
