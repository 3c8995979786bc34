// Package heat is a distributed-memory scientific application of the
// kind the paper's introduction motivates ("applications in the field of
// high-performance scientific computing are being increasingly designed
// to run [on] parallel computers with distributed-memory architectures"):
// explicit time-stepping of the 1D heat equation, domain-decomposed
// across PowerMANNA nodes with per-step halo exchanges over the
// message-passing layer and periodic residual reductions.
//
// The solver is exact twice over: the parallel run produces bit-identical
// fields to the serial reference (same stencil arithmetic per cell), and
// its simulated time composes real computation cost (cycles per cell on
// the MPC620) with the simulated network's message timing — so strong
// scaling, and the point where halo latency overtakes shrinking
// per-node work, fall out of the models.
package heat

import (
	"encoding/binary"
	"fmt"
	"math"

	"powermanna/internal/mpl"
	"powermanna/internal/sim"
)

// Config describes one solve.
type Config struct {
	// Cells is the global 1D domain size (boundary cells are fixed at 0).
	Cells int
	// Steps is the number of explicit time steps.
	Steps int
	// Alpha is the stability factor dt·k/dx² (must be ≤ 0.5).
	Alpha float64
	// ComputeCyclesPerCell is the per-cell update cost on the node CPU:
	// two loads from the halo'd row, a fused multiply-add pair, a store.
	ComputeCyclesPerCell int64
	// ReduceEvery inserts a residual AllReduce every k steps (0 = never):
	// the global synchronization real solvers use for convergence checks.
	ReduceEvery int
}

// DefaultConfig returns a solver setup calibrated for the MPC620.
func DefaultConfig(cells, steps int) Config {
	return Config{
		Cells:                cells,
		Steps:                steps,
		Alpha:                0.25,
		ComputeCyclesPerCell: 6, // calibrated: 4 flops + loads on the 4-issue core
		ReduceEvery:          50,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Cells < 3:
		return fmt.Errorf("heat: Cells = %d", c.Cells)
	case c.Steps <= 0:
		return fmt.Errorf("heat: Steps = %d", c.Steps)
	case c.Alpha <= 0 || c.Alpha > 0.5:
		return fmt.Errorf("heat: Alpha = %g violates stability", c.Alpha)
	case c.ComputeCyclesPerCell <= 0:
		return fmt.Errorf("heat: ComputeCyclesPerCell = %d", c.ComputeCyclesPerCell)
	case c.ReduceEvery < 0:
		return fmt.Errorf("heat: ReduceEvery = %d", c.ReduceEvery)
	}
	return nil
}

// fill writes the starting profile of a cells-wide domain — a hot
// spike in the middle third — into f, which holds cells [lo, hi).
func fill(f []float64, cells, lo, hi int) {
	for i := max(lo, cells/3); i < min(hi, 2*cells/3); i++ {
		f[i-lo] = 100
	}
}

// step advances one explicit Euler step on a slice with fixed-zero
// boundaries; src and dst include the boundary cells.
func step(dst, src []float64, alpha float64) {
	for i := 1; i < len(src)-1; i++ {
		dst[i] = src[i] + alpha*(src[i-1]-2*src[i]+src[i+1])
	}
}

// RunSerial computes the reference solution.
func RunSerial(cfg Config) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cur := make([]float64, cfg.Cells)
	fill(cur, cfg.Cells, 0, cfg.Cells)
	next := make([]float64, cfg.Cells)
	for s := 0; s < cfg.Steps; s++ {
		step(next, cur, cfg.Alpha)
		next[0], next[cfg.Cells-1] = 0, 0
		cur, next = next, cur
	}
	return cur, nil
}

// Result reports a parallel solve.
type Result struct {
	Field     []float64
	Makespan  sim.Time
	Ranks     int
	Messages  int64
	MsgBytes  int64
	CellsEach int
}

// block is one rank's share of a parallel solve: the contiguous slab
// [lo, hi) of the domain plus two halo cells, and the per-rank work
// both solvers do on it.
type block struct {
	rank, ranks int
	lo, hi      int
	cur, next   []float64
	alpha       float64
	charge      sim.Time // compute time of one step on the node CPU
	// buf holds the outgoing halo cell; both worlds copy what they
	// send, so one buffer serves every message.
	buf [8]byte
}

// newBlocks validates cfg and splits its domain into one block per
// rank, each holding its slab of the starting profile.
func newBlocks(cfg Config, p int) ([]*block, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cells < 3*p {
		return nil, fmt.Errorf("heat: %d cells across %d ranks leaves blocks under 3 cells", cfg.Cells, p)
	}
	blocks := make([]*block, p)
	for r := range blocks {
		lo, hi := r*cfg.Cells/p, (r+1)*cfg.Cells/p
		b := &block{
			rank: r, ranks: p, lo: lo, hi: hi,
			cur:    make([]float64, hi-lo+2),
			next:   make([]float64, hi-lo+2),
			alpha:  cfg.Alpha,
			charge: sim.ClockMHz(180).Cycles(cfg.ComputeCyclesPerCell * int64(hi-lo)),
		}
		fill(b.cur[1:], cfg.Cells, lo, hi)
		blocks[r] = b
	}
	return blocks, nil
}

// sendHalos posts the block's edge cells to its neighbours through the
// rank's send. Tags encode the step and direction so rounds never
// cross-match.
func (b *block) sendHalos(s int, send func(dst, tag int, payload []byte) error) error {
	if b.rank > 0 {
		if err := send(b.rank-1, 2*s+1, b.encode(b.cur[1])); err != nil {
			return err
		}
	}
	if b.rank < b.ranks-1 {
		return send(b.rank+1, 2*s, b.encode(b.cur[len(b.cur)-2]))
	}
	return nil
}

func (b *block) encode(v float64) []byte {
	binary.LittleEndian.PutUint64(b.buf[:], math.Float64bits(v))
	return b.buf[:]
}

// recvHalos fills the halo cells with the neighbours' edge cells,
// through the rank's recv, or with zero at a physical boundary.
func (b *block) recvHalos(s int, recv func(src, tag int) ([]byte, error)) (err error) {
	n := len(b.cur) - 2
	b.cur[0], b.cur[n+1] = 0, 0
	if b.rank > 0 {
		if b.cur[0], err = recvCell(recv, b.rank-1, 2*s); err != nil {
			return err
		}
	}
	if b.rank < b.ranks-1 {
		b.cur[n+1], err = recvCell(recv, b.rank+1, 2*s+1)
	}
	return err
}

func recvCell(recv func(src, tag int) ([]byte, error), src, tag int) (float64, error) {
	buf, err := recv(src, tag)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), nil
}

// update advances the block one step, keeping the physical boundaries
// pinned at zero exactly as the serial code does, and returns the
// compute time to charge.
func (b *block) update() sim.Time {
	step(b.next, b.cur, b.alpha)
	if b.rank == 0 {
		b.next[1] = 0
	}
	if b.rank == b.ranks-1 {
		b.next[len(b.next)-2] = 0
	}
	b.cur, b.next = b.next, b.cur
	return b.charge
}

// residual is the block's share of the convergence check: the sum of
// its squared cells.
func (b *block) residual() float64 {
	var sum float64
	for _, v := range b.cur[1 : len(b.cur)-1] {
		sum += v * v
	}
	return sum
}

// reduces reports whether step s of a p-rank solve ends with a residual
// AllReduce.
func (c Config) reduces(s, p int) bool {
	return c.ReduceEvery > 0 && (s+1)%c.ReduceEvery == 0 && p > 1
}

// result assembles the global field from the blocks, with the world's
// makespan and traffic.
func result(blocks []*block, w interface {
	MaxTime() sim.Time
	Stats() (int64, int64)
}) Result {
	cells := blocks[len(blocks)-1].hi
	out := make([]float64, cells)
	for _, b := range blocks {
		copy(out[b.lo:b.hi], b.cur[1:len(b.cur)-1])
	}
	out[0], out[cells-1] = 0, 0
	msgs, bytes := w.Stats()
	return Result{
		Field:     out,
		Makespan:  w.MaxTime(),
		Ranks:     len(blocks),
		Messages:  msgs,
		MsgBytes:  bytes,
		CellsEach: cells / len(blocks),
	}
}

// Run solves the equation across all ranks of a message-passing world,
// one contiguous block per rank, exchanging one-cell halos every step.
// Each step runs in phases over all ranks: every halo send, then every
// receive, then every local update.
func Run(w *mpl.World, cfg Config) (Result, error) {
	blocks, err := newBlocks(cfg, w.Ranks())
	if err != nil {
		return Result{}, err
	}
	for s := 0; s < cfg.Steps; s++ {
		for _, b := range blocks {
			send := func(dst, tag int, p []byte) error { return w.Send(b.rank, dst, tag, p) }
			if err := b.sendHalos(s, send); err != nil {
				return Result{}, err
			}
		}
		for _, b := range blocks {
			recv := func(src, tag int) ([]byte, error) { return w.Recv(b.rank, src, tag) }
			if err := b.recvHalos(s, recv); err != nil {
				return Result{}, err
			}
		}
		for _, b := range blocks {
			w.Compute(b.rank, b.update())
		}
		if cfg.reduces(s, len(blocks)) {
			contrib := make([][]float64, len(blocks))
			for r, b := range blocks {
				contrib[r] = []float64{b.residual()}
			}
			if _, err := w.AllReduce(contrib, 1000+s); err != nil {
				return Result{}, err
			}
		}
	}
	return result(blocks, w), nil
}
