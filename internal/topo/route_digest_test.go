package topo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// routeDigest hashes every route of the topology: all ordered node pairs
// (self pairs included) on both planes, each as its Src, Dst, Network,
// Hops, RouteBytes and AsyncLinks, or as its error text where the plane
// has no route.
func routeDigest(tp *Topology) string {
	h := sha256.New()
	for src := 0; src < tp.Nodes(); src++ {
		for dst := 0; dst < tp.Nodes(); dst++ {
			for _, net := range []int{NetworkA, NetworkB} {
				p, err := tp.Route(src, dst, net)
				if err != nil {
					fmt.Fprintf(h, "%d %d %d err %v\n", src, dst, net, err)
					continue
				}
				fmt.Fprintf(h, "%d %d %d %v %x %d\n",
					p.Src, p.Dst, p.Network, p.Hops, p.RouteBytes, p.AsyncLinks)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRouteDigests pins every path the router produces. The constants
// were captured from the map-based breadth-first search that preceded
// the shared route table; any change to visit order, the portOrder seed
// or the path reconstruction moves them.
func TestRouteDigests(t *testing.T) {
	for _, c := range []struct {
		name string
		tp   *Topology
		want string
	}{
		{"cluster8", Cluster8(), "9b8fa432585a1279b7f22e6036bfd5846bfd5858fc00f2fba115014ed70f3e12"},
		{"system256", System256(), "ccb1df9e6018197a46be1bf643a43e8fb74ddf07688e991c7f6726305695bc40"},
		{"mesh4x4", Mesh(4, 4), "b5a90dd3c677d7d800ffe29b5ed1ea84e68a48ea1167213a8948d9a76056484b"},
	} {
		if got := routeDigest(c.tp); got != c.want {
			t.Errorf("%s route digest = %s, want %s", c.name, got, c.want)
		}
	}
}
