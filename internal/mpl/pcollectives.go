package mpl

import "fmt"

// Per-rank collectives for the partitioned world: the same binomial
// trees (roleAt), tags and reduction costs as the World collectives,
// rewritten in SPMD form. Where the World drives every rank's role
// from one loop, each PRank here takes only its own role per level.

// Barrier synchronizes all ranks: a binomial gather to rank 0 followed
// by a binomial broadcast of the release, with the World's tags.
func (r *PRank) Barrier(round int) error {
	p, rank := r.Ranks(), r.rank
	tag := tagBarrier + 2*round
	for k := 0; 1<<k < p; k++ {
		switch role, peer := roleAt(rank, k, p); role {
		case treeChild:
			if err := r.Send(peer, tag, nil); err != nil {
				return err
			}
		case treeParent:
			if _, err := r.Recv(peer, tag); err != nil {
				return err
			}
		}
	}
	rel := tagBarrier + 2*round + 1
	for k := bits(p) - 1; k >= 0; k-- {
		switch role, peer := roleAt(rank, k, p); role {
		case treeChild:
			if _, err := r.Recv(peer, rel); err != nil {
				return err
			}
		case treeParent:
			if err := r.Send(peer, rel, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// Bcast distributes vec from rank 0 to all ranks and returns this
// rank's copy (rank 0 returns vec itself). Non-root ranks may pass
// nil.
func (r *PRank) Bcast(vec []float64, tag int) ([]float64, error) {
	p, rank := r.Ranks(), r.rank
	for k := bits(p) - 1; k >= 0; k-- {
		switch role, peer := roleAt(rank, k, p); role {
		case treeChild:
			b, err := r.Recv(peer, tagBcast+tag)
			if err != nil {
				return nil, err
			}
			vec = decodeVec(b)
		case treeParent:
			if err := r.Send(peer, tagBcast+tag, encodeVec(vec)); err != nil {
				return nil, err
			}
		}
	}
	return vec, nil
}

// AllReduce sums each rank's vector element-wise and returns the
// global sum on every rank: binomial reduction to rank 0 with the
// World's per-level tags and reduction cost, then broadcast.
func (r *PRank) AllReduce(vec []float64, tag int) ([]float64, error) {
	p, rank := r.Ranks(), r.rank
	n := len(vec)
	acc := append([]float64(nil), vec...)
	for k := 0; 1<<k < p; k++ {
		switch role, peer := roleAt(rank, k, p); role {
		case treeChild:
			if err := r.Send(peer, tagReduce+tag+k, encodeVec(acc)); err != nil {
				return nil, err
			}
		case treeParent:
			b, err := r.Recv(peer, tagReduce+tag+k)
			if err != nil {
				return nil, err
			}
			v := decodeVec(b)
			if len(v) != n {
				return nil, fmt.Errorf("mpl: rank %d reduce level %d got %d elements, want %d", rank, k, len(v), n)
			}
			for i := range acc {
				acc[i] += v[i]
			}
			r.Compute(r.w.drv.reduceCost(n))
		}
	}
	return r.Bcast(acc, tag)
}

// Gather collects every rank's vector at rank 0 (direct sends, the
// World's scheme) and returns them in rank order at rank 0; other
// ranks return nil.
func (r *PRank) Gather(vec []float64, tag int) ([][]float64, error) {
	p, rank := r.Ranks(), r.rank
	if rank != 0 {
		if err := r.Send(0, tagGather+tag+rank, encodeVec(vec)); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([][]float64, p)
	out[0] = vec
	for q := 1; q < p; q++ {
		b, err := r.Recv(q, tagGather+tag+q)
		if err != nil {
			return nil, err
		}
		out[q] = decodeVec(b)
	}
	return out, nil
}
