//===- pipebench/Pipeline.h - The cell pipeline, stage by stage -*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's cells and a stage-by-stage replay of the pipeline that
/// harness::runCellSpec and the experiment engine run:
///
///   buildBenchmark + buildImage -> ProgramAnalysis -> collectProfile
///     -> selection -> simulateBaseline -> simulateDmp
///
/// with the artifact cache consulted around the profile and both
/// simulations under the same keys and codecs BenchContext uses.  The
/// traced run times each stage through this replay, and the correctness
/// checks use it to reach what runCellSpec keeps internal (the profile, the
/// selected annotations and each simulation's final architectural state).
/// Every replayed cell's result digest is checked against the digest of
/// the same cell computed through the library's own entry points, so the
/// replay cannot drift from them unnoticed.
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_PIPELINE_H
#define PIPEBENCH_PIPELINE_H

#include "Trace.h"

#include "harness/CellRun.h"
#include "sim/FinalState.h"

#include <memory>
#include <string>
#include <vector>

namespace pipebench {

/// The 13 selection algorithms of the dmpc --algo grammar.
const std::vector<std::string> &algoNames();

/// cold-cells: the default `all` cell of each suite benchmark, profiled on
/// the run input and on the train input, with a short simulation window.
std::vector<dmp::harness::CellSpec> coldCells();

/// paper-matrix and warm-replay: every suite benchmark under
/// every selection algorithm, profiled on the run input, with the default
/// 1.2M-instruction simulation window.  Benchmark-major order.
std::vector<dmp::harness::CellSpec> matrixCells();

/// The suite entry named by \p Spec (null for an unknown name).
const dmp::workloads::BenchmarkSpec *findBenchmark(const std::string &Name);

/// The experiment options runCellSpec derives from \p Spec.
dmp::harness::ExperimentOptions optionsFor(const dmp::harness::CellSpec &Spec);

/// Selection as harness::selectByAlgo dispatches it, on a bare analysis and
/// profile (selectByAlgo needs a BenchContext, which would rebuild the
/// workload).  Throws std::invalid_argument for an unknown name.
dmp::core::DivergeMap selectAlgo(const std::string &Algo,
                                 const dmp::cfg::ProgramAnalysis &PA,
                                 const dmp::profile::ProfileData &Prof,
                                 const dmp::core::SelectionConfig &Config);

/// One benchmark prepared the way BenchContext's constructor prepares it.
struct Prepared {
  const dmp::workloads::BenchmarkSpec *Spec = nullptr;
  dmp::workloads::Workload W;
  std::unique_ptr<dmp::cfg::ProgramAnalysis> PA;
  std::vector<int64_t> RunImage;
};

/// Where a replayed stage reports: spans and counters (null = untraced)
/// under cell id \p Cell.
struct StageCtx {
  Tracer *T = nullptr;
  uint32_t Cell = 0;
  /// Artifact cache consulted around the profile and simulations; null
  /// computes every stage.
  dmp::serialize::ArtifactCache *Cache = nullptr;
};

Prepared prepare(const dmp::workloads::BenchmarkSpec &Spec,
                 const StageCtx &Ctx);

dmp::profile::ProfileData
profileStage(const Prepared &B, dmp::workloads::InputSetKind Input,
             const dmp::harness::ExperimentOptions &Options,
             const StageCtx &Ctx);

dmp::sim::SimStats
baselineStage(const Prepared &B, const dmp::harness::ExperimentOptions &Options,
              const StageCtx &Ctx, dmp::sim::FinalState *State = nullptr);

dmp::sim::SimStats dmpStage(const Prepared &B,
                            const dmp::core::DivergeMap &Map,
                            const dmp::harness::ExperimentOptions &Options,
                            const StageCtx &Ctx,
                            dmp::sim::FinalState *State = nullptr);

dmp::core::DivergeMap selectStage(const Prepared &B, const std::string &Algo,
                                  const dmp::profile::ProfileData &Prof,
                                  const dmp::harness::ExperimentOptions &Options,
                                  const StageCtx &Ctx);

/// harness::runCellSpec replayed stage by stage, in its order: prepare,
/// select (loading or collecting the profile), baseline, DMP simulation.
dmp::harness::CellResult replayCell(const dmp::harness::CellSpec &Spec,
                                    const StageCtx &Ctx);

/// The result of one cell from its parts, as runCellSpec assembles it.
dmp::harness::CellResult makeResult(const dmp::sim::SimStats &Baseline,
                                    const dmp::sim::SimStats &Dmp,
                                    const dmp::core::DivergeMap &Map);

} // namespace pipebench

#endif // PIPEBENCH_PIPELINE_H
