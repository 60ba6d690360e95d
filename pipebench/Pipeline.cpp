//===- pipebench/Pipeline.cpp - The cell pipeline, stage by stage ---------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "core/SimpleSelectors.h"
#include "serialize/ProfileIO.h"
#include "sim/Simulator.h"

#include <stdexcept>

using namespace dmp;
using namespace pipebench;

namespace {

/// The short simulation window of cold-cells: long enough that every
/// workload enters its steady loop nest, short enough that profiling
/// stays the dominant stage.
constexpr uint64_t kColdSimInstrs = 300'000;

/// Loads and decodes \p Key, or returns false on a miss or an undecodable
/// blob (BenchContext then recomputes and overwrites it).
template <typename T, typename Decode>
bool loadArtifact(const StageCtx &Ctx, const serialize::Digest &Key, T &Out,
                  Decode DecodeFn) {
  StatusOr<std::vector<uint8_t>> Blob = [&] {
    ScopedSpan S(Ctx.T, "serialize.load", Ctx.Cell);
    return Ctx.Cache->load(Key);
  }();
  if (!Blob.ok()) {
    if (Ctx.T)
      Ctx.T->count("serialize.misses", 1);
    return false;
  }
  if (Ctx.T) {
    Ctx.T->count("serialize.hits", 1);
    Ctx.T->count("serialize.bytes_read", static_cast<double>(Blob->size()));
  }
  ScopedSpan S(Ctx.T, "serialize.decode", Ctx.Cell);
  return DecodeFn(*Blob, Out).ok();
}

void storeArtifact(const StageCtx &Ctx, const serialize::Digest &Key,
                   const std::vector<uint8_t> &Bytes) {
  (void)Ctx.Cache->store(Key, Bytes);
  if (Ctx.T)
    Ctx.T->count("serialize.bytes_written", static_cast<double>(Bytes.size()));
}

serialize::Digest keyed(const StageCtx &Ctx,
                        const std::function<serialize::Digest()> &Fn) {
  ScopedSpan S(Ctx.T, "serialize.key", Ctx.Cell);
  return Fn();
}

sim::SimStats simulateStage(const char *Name, const StageCtx &Ctx,
                            const std::function<sim::SimStats()> &Fn) {
  sim::SimStats Stats;
  {
    ScopedSpan S(Ctx.T, Name, Ctx.Cell);
    Stats = Fn();
  }
  if (Ctx.T)
    Ctx.T->count("sim.instrs", static_cast<double>(Stats.RetiredInstrs));
  return Stats;
}

} // namespace

const std::vector<std::string> &pipebench::algoNames() {
  static const std::vector<std::string> Names = {
      "exact",     "freq",      "short",     "ret",      "all",
      "cost-long", "cost-edge", "all-cost",  "every-br", "random-50",
      "high-bp-5", "immediate", "if-else"};
  return Names;
}

std::vector<harness::CellSpec> pipebench::coldCells() {
  std::vector<harness::CellSpec> Cells;
  for (const workloads::BenchmarkSpec &B : workloads::specSuite())
    for (workloads::InputSetKind Input :
         {workloads::InputSetKind::Run, workloads::InputSetKind::Train}) {
      harness::CellSpec Spec;
      Spec.Benchmark = B.Name;
      Spec.ProfileInput = Input;
      Spec.SimInstrs = kColdSimInstrs;
      Cells.push_back(std::move(Spec));
    }
  return Cells;
}

std::vector<harness::CellSpec> pipebench::matrixCells() {
  std::vector<harness::CellSpec> Cells;
  for (const workloads::BenchmarkSpec &B : workloads::specSuite())
    for (const std::string &Algo : algoNames()) {
      harness::CellSpec Spec;
      Spec.Benchmark = B.Name;
      Spec.Algo = Algo;
      Cells.push_back(std::move(Spec));
    }
  return Cells;
}

const workloads::BenchmarkSpec *
pipebench::findBenchmark(const std::string &Name) {
  for (const workloads::BenchmarkSpec &B : workloads::specSuite())
    if (Name == B.Name)
      return &B;
  return nullptr;
}

harness::ExperimentOptions
pipebench::optionsFor(const harness::CellSpec &Spec) {
  harness::ExperimentOptions Options;
  Options.Selection = Options.Selection.withMaxInstr(Spec.MaxInstr)
                          .withMinMergeProb(Spec.MinMergeProb);
  Options.Sim.MaxInstrs = Spec.SimInstrs;
  Options.Profile.MaxInstrs = Spec.ProfileInstrs;
  return Options;
}

core::DivergeMap pipebench::selectAlgo(const std::string &Algo,
                                       const cfg::ProgramAnalysis &PA,
                                       const profile::ProfileData &Prof,
                                       const core::SelectionConfig &Config) {
  using core::SelectionFeatures;
  const std::pair<const char *, SelectionFeatures> Featured[] = {
      {"exact", SelectionFeatures::exactOnly()},
      {"freq", SelectionFeatures::exactFreq()},
      {"short", SelectionFeatures::exactFreqShort()},
      {"ret", SelectionFeatures::exactFreqShortRet()},
      {"all", SelectionFeatures::allBestHeur()},
      {"cost-long", SelectionFeatures::costLong()},
      {"cost-edge", SelectionFeatures::costEdge()},
      {"all-cost", SelectionFeatures::allBestCost()},
  };
  for (const auto &[Name, Features] : Featured)
    if (Algo == Name)
      return core::selectDivergeBranches(PA, Prof, Config, Features);
  if (Algo == "every-br")
    return core::selectEveryBranch(PA, Prof);
  if (Algo == "random-50")
    return core::selectRandom50(PA, Prof);
  if (Algo == "high-bp-5")
    return core::selectHighBP(PA, Prof);
  if (Algo == "immediate")
    return core::selectImmediate(PA, Prof);
  if (Algo == "if-else")
    return core::selectIfElse(PA, Prof, Config);
  throw std::invalid_argument("unknown selection algorithm '" + Algo + "'");
}

Prepared pipebench::prepare(const workloads::BenchmarkSpec &Spec,
                            const StageCtx &Ctx) {
  Prepared B;
  B.Spec = &Spec;
  {
    ScopedSpan S(Ctx.T, "workloads.build", Ctx.Cell);
    B.W = workloads::buildBenchmark(Spec);
  }
  {
    ScopedSpan S(Ctx.T, "cfg.analysis", Ctx.Cell);
    B.PA = std::make_unique<cfg::ProgramAnalysis>(*B.W.Prog);
  }
  ScopedSpan S(Ctx.T, "workloads.build", Ctx.Cell);
  B.RunImage = B.W.buildImage(workloads::InputSetKind::Run);
  return B;
}

profile::ProfileData
pipebench::profileStage(const Prepared &B, workloads::InputSetKind Input,
                        const harness::ExperimentOptions &Options,
                        const StageCtx &Ctx) {
  profile::ProfileData Data;
  serialize::Digest Key;
  if (Ctx.Cache) {
    Key = keyed(Ctx, [&] {
      return harness::profileCacheKey(*B.Spec, Input, Options.Profile);
    });
    if (loadArtifact(Ctx, Key, Data, serialize::decodeProfileData))
      return Data;
  }
  std::vector<int64_t> TrainImage;
  if (Input == workloads::InputSetKind::Train) {
    ScopedSpan S(Ctx.T, "workloads.build", Ctx.Cell);
    TrainImage = B.W.buildImage(Input);
  }
  {
    ScopedSpan S(Ctx.T, "profile", Ctx.Cell);
    Data = profile::collectProfile(
        *B.W.Prog, *B.PA,
        Input == workloads::InputSetKind::Run ? B.RunImage : TrainImage,
        Options.Profile);
  }
  if (Ctx.T)
    Ctx.T->count("profile.instrs", static_cast<double>(Data.DynamicInstrs));
  if (Ctx.Cache) {
    ScopedSpan S(Ctx.T, "serialize.store", Ctx.Cell);
    storeArtifact(Ctx, Key, serialize::encodeProfileData(Data));
  }
  return Data;
}

sim::SimStats pipebench::baselineStage(const Prepared &B,
                                       const harness::ExperimentOptions &Options,
                                       const StageCtx &Ctx,
                                       sim::FinalState *State) {
  sim::SimStats Stats;
  serialize::Digest Key;
  if (Ctx.Cache) {
    Key = keyed(Ctx,
                [&] { return harness::simCacheKey(*B.Spec, Options.Sim, nullptr); });
    if (loadArtifact(Ctx, Key, Stats, serialize::decodeSimStats))
      return Stats;
  }
  Stats = simulateStage("sim.baseline", Ctx, [&] {
    return sim::simulateBaseline(*B.W.Prog, B.RunImage, Options.Sim, State);
  });
  if (Ctx.Cache) {
    ScopedSpan S(Ctx.T, "serialize.store", Ctx.Cell);
    storeArtifact(Ctx, Key, serialize::encodeSimStats(Stats));
  }
  return Stats;
}

sim::SimStats pipebench::dmpStage(const Prepared &B,
                                  const core::DivergeMap &Map,
                                  const harness::ExperimentOptions &Options,
                                  const StageCtx &Ctx,
                                  sim::FinalState *State) {
  sim::SimStats Stats;
  serialize::Digest Key;
  if (Ctx.Cache) {
    Key = keyed(Ctx, [&] {
      return harness::simCacheKey(*B.Spec, Options.Sim, &Map,
                                  &Options.Selection);
    });
    if (loadArtifact(Ctx, Key, Stats, serialize::decodeSimStats))
      return Stats;
  }
  Stats = simulateStage("sim.dmp", Ctx, [&] {
    return sim::simulateDmp(*B.W.Prog, Map, B.RunImage, Options.Sim, State);
  });
  if (Ctx.Cache) {
    ScopedSpan S(Ctx.T, "serialize.store", Ctx.Cell);
    storeArtifact(Ctx, Key, serialize::encodeSimStats(Stats));
  }
  return Stats;
}

core::DivergeMap
pipebench::selectStage(const Prepared &B, const std::string &Algo,
                       const profile::ProfileData &Prof,
                       const harness::ExperimentOptions &Options,
                       const StageCtx &Ctx) {
  ScopedSpan S(Ctx.T, "core.select", Ctx.Cell);
  return selectAlgo(Algo, *B.PA, Prof, Options.Selection);
}

harness::CellResult pipebench::replayCell(const harness::CellSpec &Spec,
                                          const StageCtx &Ctx) {
  ScopedSpan Cell(Ctx.T, "harness.cell", Ctx.Cell);
  const workloads::BenchmarkSpec *Bench = findBenchmark(Spec.Benchmark);
  if (!Bench)
    throw std::invalid_argument("unknown benchmark '" + Spec.Benchmark + "'");
  const harness::ExperimentOptions Options = optionsFor(Spec);
  const Prepared B = prepare(*Bench, Ctx);
  const profile::ProfileData Prof =
      profileStage(B, Spec.ProfileInput, Options, Ctx);
  const core::DivergeMap Map = selectStage(B, Spec.Algo, Prof, Options, Ctx);
  const sim::SimStats Base = baselineStage(B, Options, Ctx);
  const sim::SimStats Dmp = dmpStage(B, Map, Options, Ctx);
  return makeResult(Base, Dmp, Map);
}

harness::CellResult pipebench::makeResult(const sim::SimStats &Baseline,
                                          const sim::SimStats &Dmp,
                                          const core::DivergeMap &Map) {
  harness::CellResult R;
  R.Baseline = Baseline;
  R.Dmp = Dmp;
  R.DivergeBranches = Map.size();
  R.AvgCfmPoints = Map.avgCfmPoints();
  return R;
}
