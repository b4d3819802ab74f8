// Package banksim is the "in-house cycle-accurate simulator" of §VI-K: a
// Ramulator-class command-level DRAM bank timing model with pluggable
// per-bank processing units, used to study LoCaLUT on HBM-PIM-style
// bank-level PIM (Fig. 20) and its floating-point extension (Fig. 21a).
//
// Two unit designs are modelled on identical banks:
//
//   - SIMDPIM: the conventional bank-level PIM of HBM-PIM/AttAcc — a
//     16-lane fp16 MAC unit fed one 32-byte column burst per command.
//     Throughput is fixed by the lane count regardless of the operand's
//     logical precision.
//   - LUTPIM: LoCaLUT's replacement — sixteen 512 B canonical-LUT units
//     plus reordering units; one weight burst carries packed vectors for
//     all sixteen units, so each command retires 16*p MACs, at the price
//     of streaming LUT slices into the unit SRAMs whenever the activation
//     group batch advances.
//
// # Closed-form burst trains
//
// A sequential transfer is a burst train whose row-buffer outcome has a
// closed form: bursts never skip or revisit a row, so only the first
// burst depends on the open row, each later row boundary is one
// precharge+activate and every other burst is a TCCD row hit. Bank
// applies every Read and Write that way in O(1), and the unit simulators
// apply a whole weight stream (M back-to-back row transfers) as one such
// train, so a bank share costs O(N·groups) instead of O(N·groups·M).
// Tests pin both against per-burst and per-call reference loops.
//
// # Multi-bank sharded execution
//
// A bank-level PIM system is thousands of independent banks, so the package
// also provides the sharded multi-bank layer: SplitGEMM partitions a GEMM
// over a channels x banks system, RunShards drives a unit simulator over
// every share on a worker pool (deduplicating identical shares, since an
// evenly divided GEMM gives every bank the same work), and Grid aggregates
// deterministically — wall-clock is the slowest bank, command counts sum in
// bank order. ForEachShard, the deterministic shard scheduler underneath,
// is shared with the gemm engine's full-grid mode.
package banksim
