package main

import (
	"slices"
	"time"
)

// The shared host this benchmark was built on changes speed under it: the
// same campaign-s256 pass took 15% longer half an hour later, while its
// ratio to the reference kernel below moved by 0.2%. Run-to-run spread
// and the drift between two sets of runs then exceed any useful bound.
// So each run times the kernel beside its passes and reports its
// end-to-end host times at a nominal host speed: every measured duration
// is scaled by refNominalS / (the run's median kernel time). Per-layer
// times are reported as measured.

// refNominalS is the reference kernel's median time, in seconds, on the
// host the first values were recorded on (2 vCPUs, go1.24).
const refNominalS = 0.024

// refKernel is a fixed mix of sorting and dependent random reads over a
// 4 MB table. It allocates nothing while timed, so nothing the simulator
// sets (GC percent, memory limit) can move it.
type refKernel struct {
	keys, table []uint32
	sink        uint32
}

func newRefKernel() *refKernel {
	return &refKernel{keys: make([]uint32, 1<<16), table: make([]uint32, 1<<20)}
}

// run times one pass of the kernel, in seconds.
func (k *refKernel) run() float64 {
	start := time.Now()
	x := uint32(1)
	for i := range k.keys {
		x = x*1664525 + 1013904223
		k.keys[i] = x
	}
	slices.Sort(k.keys)
	for i := range k.table {
		k.table[i] = uint32(i) * 2654435761
	}
	j := uint32(0)
	for i := 0; i < len(k.table)/4; i++ {
		j = k.table[(j^k.keys[i&(len(k.keys)-1)])&uint32(len(k.table)-1)]
		k.sink += j
	}
	return time.Since(start).Seconds()
}
