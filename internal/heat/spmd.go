package heat

import "powermanna/internal/mpl"

// RunPart solves the equation over a partitioned world: the same block
// decomposition, halo tags, stencil arithmetic, compute charges and
// residual reductions as Run, expressed as one SPMD function per rank
// instead of one loop over all ranks. The field is bit-identical to
// RunSerial; the makespan reflects the partitioned network's timing
// model (see the mpl.PWorld package comment for the differences from
// the legacy World).
func RunPart(w *mpl.PWorld, cfg Config) (Result, error) {
	blocks, err := newBlocks(cfg, w.Ranks())
	if err != nil {
		return Result{}, err
	}
	// Each rank touches only its own block; result reads them all after
	// the engine has drained.
	err = w.Run(func(r *mpl.PRank) error {
		b := blocks[r.Rank()]
		for s := 0; s < cfg.Steps; s++ {
			if err := b.sendHalos(s, r.Send); err != nil {
				return err
			}
			if err := b.recvHalos(s, r.Recv); err != nil {
				return err
			}
			r.Compute(b.update())
			if cfg.reduces(s, len(blocks)) {
				if _, err := r.AllReduce([]float64{b.residual()}, 1000+s); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return result(blocks, w), nil
}
