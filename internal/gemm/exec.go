package gemm

import (
	"fmt"
	"reflect"
	"runtime"

	"github.com/ais-snu/localut/internal/banksim"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/workload"
)

// ExecOptions selects the host-side execution strategy of the bank
// simulation. The simulated machine is unaffected: the same tiles run
// through the same kernels and produce the same cycle counts whatever the
// host parallelism, because shard->bank assignment is deterministic and all
// aggregation happens in bank-index order with exact integer arithmetic.
type ExecOptions struct {
	// Parallelism is the worker-pool size used for bank shards and batch
	// members. 0 uses runtime.NumCPU(); 1 executes serially on the calling
	// goroutine.
	Parallelism int
	// FullGrid simulates every bank tile of the planned grid (sharded over
	// the worker pool, each tile verified bit-exact) instead of
	// extrapolating timing from the representative (0,0) tile. It is the
	// high-fidelity mode: edge tiles contribute their true (smaller) cost
	// and the full integer product is available for free, at the price of
	// simulating the whole problem.
	FullGrid bool
	// Mode selects functional execution (default) or the cycles-only cost
	// program. CyclesOnly charges the exact same Exec/Note/DMA sequence as
	// Functional — cycles, meters, breakdowns and energy are bit-identical —
	// but moves no bytes, builds no LUT images and computes no outputs, so
	// runs cannot be verified against the integer reference
	// (Report.Verified is false) and identical-shape bank tiles share one
	// memoized cost record (Engine.CostRecords).
	Mode kernels.Mode
	// NoArena disables the per-worker execution arenas and allocates a
	// fresh DPU, tile and verification scratch for every bank tile, as the
	// pre-pooling engine did. Reports are bit-identical either way. The
	// flag is kept as the reference the pooled output is checked against:
	// TestPooledMatchesNoArena and localut-bench -sweep -compare are its
	// only users.
	NoArena bool
}

// workers resolves the pool size (ForEachShard applies the same default;
// RunBatch needs the concrete count to split it across members).
func (o ExecOptions) workers() int {
	if o.Parallelism <= 0 {
		return runtime.NumCPU()
	}
	return o.Parallelism
}

// Clone returns an engine sharing this engine's decision cache but owning
// its configuration, so a caller can vary Cfg or Exec without affecting
// concurrent users. The cache is keyed by budget and stays valid across
// configuration changes.
func (e *Engine) Clone() *Engine {
	c := *e
	return &c
}

// bankTask is one bank's share of the planned grid: tile (row, col) covering
// output rows [m0, m0+tileM) and columns [n0, n0+tileN).
type bankTask struct {
	index        int // row-major grid position (fixes the round assignment)
	m0, n0       int
	tileM, tileN int
}

// bankOutcome is one simulated bank tile, kept until deterministic merging.
type bankOutcome struct {
	cycles    int64
	meter     pim.Meter
	breakdown kernels.Breakdown
	out       []int32 // tile output (for full-product assembly)
}

// gridTasks enumerates the non-empty bank tiles of a gridM x gridN plan in
// row-major order. Ceil-division grids can contain empty trailing positions
// (e.g. M=4 over gridM=3 at tileM=2); those banks simply receive no work.
func gridTasks(m, n, gridM, gridN, tileM, tileN int) []bankTask {
	tasks := make([]bankTask, 0, gridM*gridN)
	for i := 0; i < gridM; i++ {
		m0 := i * tileM
		tm := tileM
		if m0+tm > m {
			tm = m - m0
		}
		if tm <= 0 {
			continue
		}
		for j := 0; j < gridN; j++ {
			n0 := j * tileN
			tn := tileN
			if n0+tn > n {
				tn = n - n0
			}
			if tn <= 0 {
				continue
			}
			tasks = append(tasks, bankTask{index: i*gridN + j, m0: m0, n0: n0, tileM: tm, tileN: tn})
		}
	}
	return tasks
}

// buildTileAt extracts the bank tile at (m0, n0) from the pair.
func buildTileAt(pair *workload.GEMMPair, t bankTask) (*kernels.Tile, error) {
	w := make([]uint8, t.tileM*pair.K)
	for m := 0; m < t.tileM; m++ {
		src := (t.m0 + m) * pair.K
		copy(w[m*pair.K:(m+1)*pair.K], pair.W.Codes[src:src+pair.K])
	}
	a := make([]uint8, pair.K*t.tileN)
	for k := 0; k < pair.K; k++ {
		src := k*pair.N + t.n0
		copy(a[k*t.tileN:(k+1)*t.tileN], pair.A.Codes[src:src+t.tileN])
	}
	return kernels.NewTile(t.tileM, pair.K, t.tileN, pair.Fmt, w, a)
}

// simulateGrid runs every bank tile of the grid through the kernel, sharded
// over the worker pool, and merges the outcomes deterministically:
//
//   - wall-clock kernel cycles are the sum over rounds of the slowest bank
//     in each round (banks within a round run concurrently on the PIM side);
//   - event counts are summed in bank-index order (integer addition, so the
//     result is identical whatever the host-side interleaving);
//   - in Functional mode, every tile is verified bit-exact against the
//     integer reference.
//
// In CyclesOnly mode only the distinct tile shapes of the grid run (a
// ceil-division grid has at most four: interior, right edge, bottom edge,
// corner), each through the kernel's cost program on an accounting DPU; all
// same-shape banks then share the one record. The merge is unchanged, so
// cycles, meters and breakdowns are bit-identical to Functional mode.
//
// The kernel instance is shared: kernels are stateless (all mutable state
// lives in the per-task DPU and tile).
func (e *Engine) simulateGrid(pair *workload.GEMMPair, kn kernels.Kernel, rep *Report, wantOutput bool) error {
	tasks := gridTasks(pair.M, pair.N, rep.GridM, rep.GridN, rep.TileM, rep.TileN)
	outcomes := make([]bankOutcome, len(tasks))

	if e.Exec.Mode == kernels.CyclesOnly {
		if err := e.costGrid(pair, kn, rep, tasks, outcomes); err != nil {
			return err
		}
	} else if e.Exec.NoArena {
		// Reference path: fresh DPU, tile and verification scratch per bank
		// tile (the pre-pooling engine). Kept for equivalence tests and
		// before/after benchmarks.
		err := banksim.ForEachShard(len(tasks), e.Exec.Parallelism, func(i int) error {
			t := tasks[i]
			tile, err := buildTileAt(pair, t)
			if err != nil {
				return err
			}
			dpu := pim.NewDPU(&e.Cfg)
			res, err := kn.Run(dpu, tile)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(tile.O, kernels.RefGEMM(tile)) {
				return fmt.Errorf("gemm: %s kernel output failed verification on bank tile (%d,%d)",
					kn.Name(), t.m0/max(rep.TileM, 1), t.n0/max(rep.TileN, 1))
			}
			outcomes[i] = bankOutcome{cycles: res.Cycles, meter: dpu.Meter, breakdown: res.Breakdown}
			if wantOutput {
				outcomes[i].out = tile.O
			}
			return nil
		})
		if err != nil {
			return err
		}
	} else {
		// Pooled path: each shard worker owns one execution arena for its
		// whole strided task set — the DPU's memories, the kernel
		// workspace and the tile storage recycle across every bank tile,
		// so the per-tile steady state allocates nothing. Verification
		// compares each tile against its window of the memoized full
		// reference product (one O(MKN) computation per pair, shared by
		// every design run on it, bit-identical to a per-tile RefGEMM —
		// tiles partition the output). Outputs are copied out of the arena
		// only when the caller asked for the assembled product.
		refs := e.refs
		if refs == nil {
			refs = &refCache{}
		}
		ref, err := refs.product(pair)
		if err != nil {
			return err
		}
		pool := e.pool()
		err = banksim.ForEachShardArena(len(tasks), e.Exec.Parallelism,
			func() *execArena { return pool.get(&e.Cfg) },
			pool.put,
			func(ar *execArena, i int) error {
				t := tasks[i]
				tile := ar.tileFor(pair, t)
				res, err := kn.RunRequest(ar.request(tile))
				if err != nil {
					return err
				}
				if !verifyAgainst(ref, pair.N, t, tile.O) {
					return fmt.Errorf("gemm: %s kernel output failed verification on bank tile (%d,%d)",
						kn.Name(), t.m0/max(rep.TileM, 1), t.n0/max(rep.TileN, 1))
				}
				outcomes[i] = bankOutcome{cycles: res.Cycles, meter: ar.dpu.Meter, breakdown: res.Breakdown}
				if wantOutput {
					outcomes[i].out = append([]int32(nil), tile.O...)
				}
				return nil
			})
		if err != nil {
			return err
		}
	}

	// Deterministic merge in bank-index order.
	dpus := e.Cfg.NumDPUs()
	var kernelCycles, roundMax int64
	round := 0
	for i, t := range tasks {
		if r := t.index / dpus; r != round {
			kernelCycles += roundMax
			roundMax, round = 0, r
		}
		if outcomes[i].cycles > roundMax {
			roundMax = outcomes[i].cycles
		}
		rep.Meter.Merge(&outcomes[i].meter)
		addBreakdown(&rep.Breakdown, &outcomes[i].breakdown)
	}
	kernelCycles += roundMax

	rep.KernelCycles = kernelCycles
	rep.KernelSeconds = e.Cfg.Seconds(kernelCycles)
	rep.BanksSimulated = len(tasks)
	rep.Verified = e.Exec.Mode == kernels.Functional

	if wantOutput && e.Exec.Mode == kernels.Functional {
		out := make([]int32, pair.M*pair.N)
		for i, t := range tasks {
			for m := 0; m < t.tileM; m++ {
				copy(out[(t.m0+m)*pair.N+t.n0:(t.m0+m)*pair.N+t.n0+t.tileN],
					outcomes[i].out[m*t.tileN:(m+1)*t.tileN])
			}
		}
		rep.Output = out
	}
	return nil
}

// costGrid fills outcomes with cycles-only records, running each distinct
// tile shape once (sharded) and fanning the records out to all same-shape
// banks.
func (e *Engine) costGrid(pair *workload.GEMMPair, kn kernels.Kernel, rep *Report,
	tasks []bankTask, outcomes []bankOutcome) error {

	type shape struct{ m, n int }
	owner := make(map[shape]int, 4)
	distinct := make([]int, 0, 4)
	ownerOf := make([]int, len(tasks))
	for i, t := range tasks {
		s := shape{t.tileM, t.tileN}
		if j, ok := owner[s]; ok {
			ownerOf[i] = j
			continue
		}
		owner[s] = i
		ownerOf[i] = i
		distinct = append(distinct, i)
	}

	err := banksim.ForEachShard(len(distinct), e.Exec.Parallelism, func(di int) error {
		i := distinct[di]
		t := tasks[i]
		rec, err := e.runCost(kn, rep, pair.Fmt, t.tileM, pair.K, t.tileN)
		if err != nil {
			return err
		}
		outcomes[i] = bankOutcome{cycles: rec.cycles, meter: rec.meter, breakdown: rec.breakdown}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range tasks {
		outcomes[i] = outcomes[ownerOf[i]]
	}
	return nil
}

// addBreakdown accumulates b into dst phase by phase.
func addBreakdown(dst, b *kernels.Breakdown) {
	dst.CanonAccess += b.CanonAccess
	dst.ReorderAccess += b.ReorderAccess
	dst.IdxCalc += b.IdxCalc
	dst.Transfer += b.Transfer
	dst.LUTLoad += b.LUTLoad
	dst.Accumulate += b.Accumulate
	dst.Other += b.Other
}

// RunBatch executes a batch of independent GEMMs, amortizing what one-off
// runs cannot: cost-model decisions are memoized in the engine's shared
// decision cache, LUT tables come from the process-wide cache, and batch
// members are dispatched concurrently across the worker pool. The pool
// budget is split between the member level and each member's bank shards
// (a one-member full-grid batch still uses every worker), and since reports
// are parallelism-independent by construction they are identical to
// len(pairs) sequential Run calls.
func (e *Engine) RunBatch(pairs []*workload.GEMMPair, opt Options) ([]*Report, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("gemm: empty batch")
	}
	reports := make([]*Report, len(pairs))
	workers := e.Exec.workers()
	memberWorkers := workers / len(pairs)
	if memberWorkers < 1 {
		memberWorkers = 1
	}
	err := banksim.ForEachShard(len(pairs), workers, func(i int) error {
		sub := e.Clone()
		sub.Exec.Parallelism = memberWorkers
		rep, err := sub.Run(pairs[i], opt)
		if err != nil {
			return fmt.Errorf("gemm: batch member %d: %w", i, err)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}
