#pragma once
// The three perfbench workloads. Each runs its set-up several times and
// reports the median, then its measured phases, and fills the metrics it
// measures; see perfbench/README.md for what each metric means and which
// layer should move it.

#include "perfbench/src/harness.hpp"

namespace perfbench {

/// Traditional STCO loop on s386: SPICE library + STA per technology point,
/// then a short-budget RL search on a SpiceBackend engine.
RunResult run_stco_spice(const RunContext& rc);

/// Fast STCO loop: GNN library + STA over the 6^3 grid for the ten Table I
/// benchmarks, one RL search per benchmark, SPICE re-cost of the s386 choice.
RunResult run_stco_gnn(const RunContext& rc);

/// Technology loop: drift-diffusion on a seeded device population (coarse
/// and fine meshes), the 64x64 nominal-CNT point, surrogate inference and
/// compact-model extraction.
RunResult run_tcad_device(const RunContext& rc);

}  // namespace perfbench
