package node_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"powermanna/internal/hint"
	"powermanna/internal/machine"
	"powermanna/internal/matmult"
	"powermanna/internal/node"
)

// counterDigests pin, per machine, a SHA-256 over every L1, L2, TLB,
// fabric and memory counter after a dual-CPU naive MatMult (N=101) and
// after a HINT DOUBLE run to 40,000 intervals. Any change to lookup,
// LRU, fill or coherence behaviour moves at least one counter.
var counterDigests = map[string]string{
	"SUN-Ultra1": "665b15dbe48cc7ff26119b7a387511221f078151a5f2bf5b5333e31632d70356",
	"PowerMANNA": "0a5398512429c729bb28fa6e8f3a1e2be3fececb27bdd4493f59ca360bc15897",
	"PC-PII-180": "4bb1c99b88e7d39ce5d888d8324a97c8e4bcf066a3e03c280ba655f5de0a7538",
	"PC-PII-266": "7b3cc4e3a4da3415f1fd80e451af99458356857c10ce8a8b963fcc4447db5aa6",
}

func writeCounters(h hash.Hash, nd *node.Node) {
	for _, p := range nd.Procs() {
		fmt.Fprintf(h, "cpu%d now=%d\nL1 %+v\nL2 %+v\nTLB %+v\n", p.ID(), p.Now(), p.L1().Stats(), p.L2().Stats(), p.TLB().Stats())
	}
	fmt.Fprintf(h, "fabric %+v\nmem %+v\n", nd.Fabric().Stats(), nd.Memory().Stats())
}

func TestCounterDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cache simulation")
	}
	for _, cfg := range machine.All() {
		nd := node.New(cfg)
		h := sha256.New()
		mm := matmult.Run(nd, 101, matmult.Naive, 2)
		fmt.Fprintf(h, "matmult %v\n", mm.Time)
		writeCounters(h, nd)
		hr := hint.Run(nd, hint.Double, 40000)
		fmt.Fprintf(h, "hint %v\n", hr.PeakQUIPS)
		writeCounters(h, nd)
		if got := hex.EncodeToString(h.Sum(nil)); got != counterDigests[cfg.Name] {
			t.Errorf("%s: counter digest %s, want %s", cfg.Name, got, counterDigests[cfg.Name])
		}
	}
}
