//===- pipebench/Checks.cpp - Correctness checks of every run -------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "Pipeline.h"

#include "check/Oracle.h"
#include "serialize/ProfileIO.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

using namespace dmp;
using namespace pipebench;

std::string pipebench::checkFinalState(const sim::FinalState &Sim,
                                       const sim::FinalState &Ref,
                                       const std::string &Leg) {
  if (Sim.RetiredInstrs != Ref.RetiredInstrs)
    return formatString("%s retired %llu instructions, reference %llu",
                        Leg.c_str(),
                        static_cast<unsigned long long>(Sim.RetiredInstrs),
                        static_cast<unsigned long long>(Ref.RetiredInstrs));
  for (unsigned R = 0; R < ir::NumRegs; ++R)
    if (Sim.Regs[R] != Ref.Regs[R])
      return formatString("%s final r%u is %lld, reference %lld", Leg.c_str(),
                          R, static_cast<long long>(Sim.Regs[R]),
                          static_cast<long long>(Ref.Regs[R]));
  if (Sim.MemoryWords != Ref.MemoryWords ||
      Sim.MemoryFingerprint != Ref.MemoryFingerprint)
    return Leg + " final memory differs from the reference";
  if (!(Sim.Stores == Ref.Stores))
    return formatString("%s retired %zu stores, reference %zu (or their "
                        "order/values differ)",
                        Leg.c_str(), Sim.Stores.size(), Ref.Stores.size());
  if (Sim.Halted != Ref.Halted)
    return Leg + " halt state differs from the reference";
  return "";
}

std::string pipebench::checkProfile(const ir::Program &P,
                                    const profile::ProfileData &Prof) {
  uint64_t Sum = 0;
  for (const auto &[Start, Count] : Prof.Edges.blockExecCounts()) {
    if (Start >= P.instrCount())
      return formatString("block count recorded at %u, past the program", Start);
    const ir::BasicBlock *BB = P.blockAt(Start);
    if (BB->getStartAddr() != Start)
      return formatString("block count recorded mid-block at %u", Start);
    Sum += Count * BB->size();
    const ir::Instruction *Term = BB->getTerminator();
    if (Term && Term->Op == ir::Opcode::CondBr) {
      const uint64_t Branch = Prof.Edges.branchCounts(Term->Addr).total();
      // A run cut off by the budget may stop between a block's entry and
      // its branch.
      if (Branch != Count && (Prof.Completed || Branch + 1 != Count))
        return formatString("branch at %u counted %llu times, its block %llu",
                            Term->Addr,
                            static_cast<unsigned long long>(Branch),
                            static_cast<unsigned long long>(Count));
    }
  }
  // A budget-truncated run counts its unfinished blocks whole, so the sum
  // may only exceed the executed count then.
  if (Prof.Completed ? Sum != Prof.DynamicInstrs : Sum < Prof.DynamicInstrs)
    return formatString("block counts x lengths sum to %llu, profile ran "
                        "%llu instructions",
                        static_cast<unsigned long long>(Sum),
                        static_cast<unsigned long long>(Prof.DynamicInstrs));
  for (const auto &[Addr, Counts] : Prof.Edges.branches()) {
    if (Addr >= P.instrCount() || P.instrAt(Addr).Op != ir::Opcode::CondBr)
      return formatString("edge profile has a branch at %u, which is not a "
                          "conditional branch",
                          Addr);
    const uint64_t Block =
        Prof.Edges.blockExecCount(P.blockAt(Addr)->getStartAddr());
    if (Counts.total() != Block &&
        (Prof.Completed || Counts.total() + 1 != Block))
      return formatString("branch at %u counted %llu times, its block %llu",
                          Addr,
                          static_cast<unsigned long long>(Counts.total()),
                          static_cast<unsigned long long>(Block));
    const profile::BranchStats Stats = Prof.Branches.stats(Addr);
    if (Stats.Executed != Counts.total() || Stats.Taken != Counts.Taken)
      return formatString("branch at %u: edge and branch profiles disagree",
                          Addr);
  }
  return "";
}

std::string pipebench::checkDivergeBranches(const ir::Program &P,
                                            const profile::ProfileData &Prof,
                                            const core::DivergeMap &Map) {
  for (uint32_t Addr : Map.sortedAddrs()) {
    if (Addr >= P.instrCount() || P.instrAt(Addr).Op != ir::Opcode::CondBr)
      return formatString("diverge branch at %u is not a conditional branch",
                          Addr);
    if (!Prof.Edges.wasExecuted(Addr))
      return formatString("diverge branch at %u never executed in the profile",
                          Addr);
  }
  return "";
}

std::string
pipebench::checkDigests(const std::vector<serialize::Digest> &Got,
                        const std::vector<serialize::Digest> &Want,
                        const std::string &What) {
  if (Got.size() != Want.size())
    return formatString("%s: %zu cells, expected %zu", What.c_str(),
                        Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    if (!(Got[I] == Want[I]))
      return formatString("%s: cell %zu digest %s, expected %s", What.c_str(),
                          I, Got[I].hex().c_str(), Want[I].hex().c_str());
  return "";
}

std::vector<serialize::Digest>
pipebench::digestsOf(const std::vector<harness::CellResult> &Results) {
  std::vector<serialize::Digest> Out;
  Out.reserve(Results.size());
  for (const harness::CellResult &R : Results)
    Out.push_back(harness::cellResultDigest(R));
  return Out;
}

namespace {

/// Checks every cell of one benchmark; appends failures to \p Errors.
void checkBenchmark(const std::vector<harness::CellSpec> &Cells,
                    const std::vector<size_t> &Indices,
                    const std::vector<serialize::Digest> &Want,
                    std::vector<std::string> &Errors) {
  const harness::CellSpec &First = Cells[Indices.front()];
  const std::string Name = First.Benchmark;
  auto Fail = [&](const std::string &Why) {
    if (!Why.empty())
      Errors.push_back(Name + ": " + Why);
  };
  const workloads::BenchmarkSpec *Spec = findBenchmark(Name);
  if (!Spec) {
    Fail("unknown benchmark");
    return;
  }
  const harness::ExperimentOptions Options = optionsFor(First);
  const Prepared B = prepare(*Spec, StageCtx());

  sim::FinalState BaseState;
  const sim::SimStats Base =
      baselineStage(B, Options, StageCtx(), &BaseState);
  const sim::FinalState Ref =
      check::runReference(*B.W.Prog, B.RunImage, Base.RetiredInstrs);
  Fail(checkFinalState(BaseState, Ref, "baseline"));

  std::map<workloads::InputSetKind, profile::ProfileData> Profiles;
  for (size_t I : Indices) {
    const harness::CellSpec &Cell = Cells[I];
    if (Cell.SimInstrs != First.SimInstrs ||
        Cell.ProfileInstrs != First.ProfileInstrs ||
        Cell.MaxInstr != First.MaxInstr ||
        Cell.MinMergeProb != First.MinMergeProb) {
      Fail("cells of one benchmark must share their options");
      continue;
    }
    auto It = Profiles.find(Cell.ProfileInput);
    if (It == Profiles.end()) {
      It = Profiles
               .emplace(Cell.ProfileInput,
                        profileStage(B, Cell.ProfileInput, Options, StageCtx()))
               .first;
      Fail(checkProfile(*B.W.Prog, It->second));
    }
    const std::string Leg = Cell.Algo + (Cell.ProfileInput ==
                                                 workloads::InputSetKind::Train
                                             ? "/train"
                                             : "/run");
    const core::DivergeMap Map =
        selectStage(B, Cell.Algo, It->second, Options, StageCtx());
    Fail(checkDivergeBranches(*B.W.Prog, It->second, Map));
    sim::FinalState DmpState;
    const sim::SimStats Dmp = dmpStage(B, Map, Options, StageCtx(), &DmpState);
    if (Dmp.RetiredInstrs != Base.RetiredInstrs)
      Fail(Leg + ": DMP and baseline retired different instruction counts");
    Fail(checkFinalState(DmpState, Ref, Leg + " DMP"));
    Fail(checkDigests({harness::cellResultDigest(makeResult(Base, Dmp, Map))},
                      {Want[I]}, Leg + " stage replay vs workload"));
  }
}

} // namespace

std::vector<std::string>
pipebench::checkCells(const std::vector<harness::CellSpec> &Cells,
                      const std::vector<serialize::Digest> &Want,
                      unsigned Threads) {
  if (Cells.size() != Want.size())
    return {"check: result count differs from cell count"};
  std::vector<std::vector<size_t>> Groups;
  std::map<std::string, size_t> GroupOf;
  for (size_t I = 0; I < Cells.size(); ++I) {
    auto [It, Fresh] = GroupOf.emplace(Cells[I].Benchmark, Groups.size());
    if (Fresh)
      Groups.emplace_back();
    Groups[It->second].push_back(I);
  }

  std::atomic<size_t> Next{0};
  std::mutex ErrorsMutex;
  std::vector<std::string> Errors;
  auto Worker = [&] {
    for (size_t G = Next++; G < Groups.size(); G = Next++) {
      std::vector<std::string> Local;
      try {
        checkBenchmark(Cells, Groups[G], Want, Local);
      } catch (const std::exception &E) {
        Local.push_back(Cells[Groups[G].front()].Benchmark + ": " + E.what());
      }
      std::lock_guard<std::mutex> Lock(ErrorsMutex);
      Errors.insert(Errors.end(), Local.begin(), Local.end());
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < std::max(1u, Threads); ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();
  std::sort(Errors.begin(), Errors.end());
  return Errors;
}

//===----------------------------------------------------------------------===//
// Self-test
//===----------------------------------------------------------------------===//

namespace {

struct SelfTest {
  int Failures = 0;

  /// \p Clean must pass and \p Corrupt must be rejected.
  void expect(const char *Check, const std::string &Clean,
              const std::string &Corrupt) {
    const bool Ok = Clean.empty() && !Corrupt.empty();
    std::printf("self-test: %-40s clean=%s corrupted=%s  %s\n", Check,
                Clean.empty() ? "accepted" : "REJECTED",
                Corrupt.empty() ? "ACCEPTED" : "rejected", Ok ? "ok" : "FAIL");
    if (!Clean.empty())
      std::printf("  clean input rejected: %s\n", Clean.c_str());
    else if (!Corrupt.empty())
      std::printf("  reason: %s\n", Corrupt.c_str());
    Failures += Ok ? 0 : 1;
  }
};

} // namespace

int pipebench::runSelfTest(const std::string &TempDir) {
  SelfTest T;
  harness::CellSpec Spec = coldCells().front();
  Spec.SimInstrs = 100'000;
  const harness::ExperimentOptions Options = optionsFor(Spec);
  const Prepared B = prepare(*findBenchmark(Spec.Benchmark), StageCtx());

  // Final architectural state: a flipped register and a dropped store.
  sim::FinalState State;
  const sim::SimStats Base = baselineStage(B, Options, StageCtx(), &State);
  const sim::FinalState Ref =
      check::runReference(*B.W.Prog, B.RunImage, Base.RetiredInstrs);
  sim::FinalState Flipped = State;
  Flipped.Regs[3] ^= 1;
  T.expect("final state: flipped register", checkFinalState(State, Ref, "sim"),
           checkFinalState(Flipped, Ref, "sim"));
  sim::FinalState Dropped = State;
  if (!Dropped.Stores.empty())
    Dropped.Stores.pop_back();
  T.expect("final state: dropped store", checkFinalState(State, Ref, "sim"),
           checkFinalState(Dropped, Ref, "sim"));

  // Profile: one block count and one branch count dropped.
  const profile::ProfileData Prof =
      profileStage(B, Spec.ProfileInput, Options, StageCtx());
  profile::ProfileData NoBlock = Prof;
  const auto &[BlockStart, BlockCount] =
      *std::max_element(Prof.Edges.blockExecCounts().begin(),
                        Prof.Edges.blockExecCounts().end(),
                        [](const auto &L, const auto &R) {
                          return L.second < R.second;
                        });
  NoBlock.Edges.setBlockExecCount(BlockStart, BlockCount - 1);
  T.expect("profile: dropped block count", checkProfile(*B.W.Prog, Prof),
           checkProfile(*B.W.Prog, NoBlock));
  profile::ProfileData NoTaken = Prof;
  const auto &[BranchAddr, BranchCounts] = *Prof.Edges.branches().begin();
  cfg::BranchCounts Fewer = BranchCounts;
  if (Fewer.Taken > 0)
    --Fewer.Taken;
  else
    --Fewer.NotTaken;
  NoTaken.Edges.setBranchCounts(BranchAddr, Fewer);
  T.expect("profile: dropped branch count", checkProfile(*B.W.Prog, Prof),
           checkProfile(*B.W.Prog, NoTaken));

  // Selection: an annotation on an instruction that is not a branch.
  const core::DivergeMap Map =
      selectStage(B, Spec.Algo, Prof, Options, StageCtx());
  core::DivergeMap Bogus = Map;
  uint32_t NotBranch = 0;
  while (B.W.Prog->instrAt(NotBranch).Op == ir::Opcode::CondBr)
    ++NotBranch;
  Bogus.add(NotBranch, Map.all().begin()->second);
  T.expect("selection: non-branch diverge entry",
           checkDivergeBranches(*B.W.Prog, Prof, Map),
           checkDivergeBranches(*B.W.Prog, Prof, Bogus));

  // Replay: a cache blob rewritten with valid framing but wrong content
  // must change the replayed digest.
  const std::string Dir = TempDir + "/selftest-cache";
  std::filesystem::remove_all(Dir);
  auto Cache = std::make_shared<serialize::ArtifactCache>(Dir);
  StatusOr<harness::CellResult> Cold = harness::runCellSpec(Spec, Cache);
  StatusOr<harness::CellResult> Warm = harness::runCellSpec(Spec, Cache);
  const serialize::Digest Key = harness::simCacheKey(
      *B.Spec, Options.Sim, nullptr);
  sim::SimStats Tampered = Base;
  ++Tampered.Cycles;
  (void)Cache->store(Key, serialize::encodeSimStats(Tampered));
  StatusOr<harness::CellResult> Replayed = harness::runCellSpec(Spec, Cache);
  if (!Cold.ok() || !Warm.ok() || !Replayed.ok()) {
    std::printf("self-test: runCellSpec failed\n");
    ++T.Failures;
  } else {
    const std::vector<serialize::Digest> Want = digestsOf({*Cold});
    T.expect("replay: tampered cache blob",
             checkDigests(digestsOf({*Warm}), Want, "replay"),
             checkDigests(digestsOf({*Replayed}), Want, "replay"));
  }
  std::filesystem::remove_all(Dir);

  // The whole stage-replay check: fed the cell's true digest it passes;
  // fed the digest of a result whose DMP leg is the baseline, it fails.
  auto Joined = [](const std::vector<std::string> &Errors) {
    std::string S;
    for (const std::string &E : Errors)
      S += (S.empty() ? "" : "; ") + E;
    return S;
  };
  const sim::SimStats Dmp = dmpStage(B, Map, Options, StageCtx());
  T.expect("stage replay: foreign result digest",
           Joined(checkCells({Spec}, digestsOf({makeResult(Base, Dmp, Map)}),
                             1)),
           Joined(checkCells({Spec},
                             digestsOf({makeResult(Base, Base, Map)}), 1)));

  std::printf("self-test: %s\n", T.Failures == 0 ? "all checks can fail"
                                                 : "SOME CHECKS DID NOT FAIL");
  return T.Failures == 0 ? 0 : 1;
}
