package mpl

import (
	"encoding/binary"
	"fmt"
	"math"

	"powermanna/internal/sim"
)

// Collectives over binomial trees. Rounds are driven in deterministic
// order; each rank's clock advances only through its own sends, receives
// and reduction arithmetic, so the collective's critical path — O(log P)
// message latencies — emerges from the point-to-point model.

// reduceOpCyclesPerElement is the per-element cost of combining two
// float64 values during a reduction (load, add, store on the MPC620).
const reduceOpCyclesPerElement = 3

// reduceCost is the CPU time to combine n-element vectors.
func (d driver) reduceCost(n int) sim.Time {
	return d.p.CPUClock.Cycles(int64(n * reduceOpCyclesPerElement))
}

// tag bases keep collective traffic from colliding with user tags.
const (
	tagBarrier = 1 << 20
	tagBcast   = 1 << 21
	tagReduce  = 1 << 22
	tagGather  = 1 << 23
)

func encodeVec(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func decodeVec(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// Barrier synchronizes all ranks: a binomial gather to rank 0 followed by
// a binomial broadcast of the release. On return every rank's clock is at
// least the barrier's completion point.
func (w *World) Barrier(round int) error {
	p := w.Ranks()
	// Gather phase: rank r waits for children r+2^k, then signals parent.
	for k := 0; 1<<k < p; k++ {
		for r := 0; r < p; r++ {
			role, child := roleAt(r, k, p)
			if role != treeParent {
				continue
			}
			if err := w.Send(child, r, tagBarrier+2*round, nil); err != nil {
				return err
			}
			if _, err := w.Recv(r, child, tagBarrier+2*round); err != nil {
				return err
			}
		}
	}
	// Release phase: broadcast from 0 down the same tree.
	return w.bcast(0, tagBarrier+2*round+1, nil, nil)
}

// bcast sends payload down a binomial tree rooted at root and
// hands each child's received copy to got, when got is non-nil.
func (w *World) bcast(root, tag int, payload []byte, got func(child int, b []byte)) error {
	p := w.Ranks()
	if root != 0 {
		return fmt.Errorf("mpl: collectives require root 0 (got %d)", root)
	}
	for k := bits(p) - 1; k >= 0; k-- {
		for r := 0; r < p; r++ {
			role, child := roleAt(r, k, p)
			if role != treeParent {
				continue
			}
			if err := w.Send(r, child, tag, payload); err != nil {
				return err
			}
			b, err := w.Recv(child, r, tag)
			if err != nil {
				return err
			}
			if got != nil {
				got(child, b)
			}
		}
	}
	return nil
}

// treeRole is a rank's part in one level of a binomial tree.
type treeRole int

const (
	treeIdle treeRole = iota
	treeParent
	treeChild
)

// roleAt reports rank's role at level k of the binomial tree over p
// ranks, and its peer there. A rank whose lowest set bit is k is a
// child of rank - 2^k; a rank with all bits at or below k clear is the
// parent of rank + 2^k when that rank exists; every other rank sits
// the level out. Gather levels ascend and broadcast levels descend, so
// a rank always holds its data before it forwards.
func roleAt(rank, k, p int) (treeRole, int) {
	span := 1 << (k + 1)
	switch {
	case rank%span == 1<<k:
		return treeChild, rank - 1<<k
	case rank%span == 0 && rank+1<<k < p:
		return treeParent, rank + 1<<k
	}
	return treeIdle, 0
}

// bits reports how many tree levels cover p ranks.
func bits(p int) int {
	n := 0
	for 1<<n < p {
		n++
	}
	return n
}

// Bcast distributes vec from rank 0 to all ranks and returns each rank's
// received copy (index by rank; rank 0 holds the original).
func (w *World) Bcast(vec []float64, tag int) ([][]float64, error) {
	out := make([][]float64, w.Ranks())
	out[0] = vec
	err := w.bcast(0, tagBcast+tag, encodeVec(vec), func(child int, b []byte) {
		out[child] = decodeVec(b)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AllReduce sums each rank's contribution element-wise and leaves the
// result on every rank: binomial reduction to rank 0, then broadcast.
// It returns the reduced vector.
func (w *World) AllReduce(contrib [][]float64, tag int) ([]float64, error) {
	p := w.Ranks()
	if len(contrib) != p {
		return nil, fmt.Errorf("mpl: %d contributions for %d ranks", len(contrib), p)
	}
	n := len(contrib[0])
	acc := make([][]float64, p)
	for r := range acc {
		if len(contrib[r]) != n {
			return nil, fmt.Errorf("mpl: rank %d vector length %d != %d", r, len(contrib[r]), n)
		}
		acc[r] = append([]float64(nil), contrib[r]...)
	}
	// Reduce up the tree.
	for k := 0; 1<<k < p; k++ {
		for r := 0; r < p; r++ {
			role, child := roleAt(r, k, p)
			if role != treeParent {
				continue
			}
			if err := w.Send(child, r, tagReduce+tag+k, encodeVec(acc[child])); err != nil {
				return nil, err
			}
			b, err := w.Recv(r, child, tagReduce+tag+k)
			if err != nil {
				return nil, err
			}
			v := decodeVec(b)
			for i := range acc[r] {
				acc[r][i] += v[i]
			}
			w.Compute(r, w.drv.reduceCost(n))
		}
	}
	// Broadcast the result; all ranks then hold rank 0's vector.
	if _, err := w.Bcast(acc[0], tag); err != nil {
		return nil, err
	}
	return acc[0], nil
}

// Gather collects every rank's vector at rank 0 (direct sends; fine for
// the sizes the examples use) and returns them in rank order.
func (w *World) Gather(contrib [][]float64, tag int) ([][]float64, error) {
	p := w.Ranks()
	if len(contrib) != p {
		return nil, fmt.Errorf("mpl: %d contributions for %d ranks", len(contrib), p)
	}
	out := make([][]float64, p)
	out[0] = contrib[0]
	for r := 1; r < p; r++ {
		if err := w.Send(r, 0, tagGather+tag+r, encodeVec(contrib[r])); err != nil {
			return nil, err
		}
	}
	for r := 1; r < p; r++ {
		b, err := w.Recv(0, r, tagGather+tag+r)
		if err != nil {
			return nil, err
		}
		out[r] = decodeVec(b)
	}
	return out, nil
}

// CriticalDepth estimates the tree depth of a collective over p ranks —
// exported for tests asserting logarithmic scaling.
func CriticalDepth(p int) int { return bits(p) }
