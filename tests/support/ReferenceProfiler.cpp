//===- tests/support/ReferenceProfiler.cpp - Per-instruction profilers -----===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "ReferenceProfiler.h"

#include "profile/Emulator.h"

#include <algorithm>

using namespace dmp;
using namespace dmp::profile;

namespace {

/// Tracks loop invocations/iterations along the dynamic execution, frame by
/// frame so that calls inside loops do not disturb the caller's loop state.
///
/// Span-based counting: each active loop records the executed-instruction
/// count at open time and the close charges the whole span.  An
/// instruction is charged to every loop active while it executed, where
/// loops closed by entering a non-member block stop *before* the entering
/// instruction, and loops closed by Ret (or end of run) still count the
/// closing instruction.
class LoopTracker {
public:
  LoopTracker(const cfg::ProgramAnalysis &PA, LoopProfile &Out,
              int64_t SpanChargeSkew)
      : PA(PA), Out(Out), SpanChargeSkew(SpanChargeSkew) {
    Frames.emplace_back();
  }

  /// \p Executed is the emulator's executedCount() right after stepping the
  /// first instruction of \p Block.
  void onBlockEntry(const ir::BasicBlock *Block, uint64_t Executed) {
    auto &Active = Frames.back();
    const cfg::LoopInfo &LI = PA.forFunction(*Block->getParent()).LI;

    // Close loops that no longer contain the new block.  Their span ends
    // before the entering instruction, which executed outside the loop.
    while (!Active.empty() && !Active.back().L->contains(Block))
      closeTop(Executed + static_cast<uint64_t>(SpanChargeSkew));

    // Open the chain of loops that contain the block and are not active,
    // outermost first.  The entering instruction itself (already stepped)
    // is the first one charged to them.
    std::vector<const cfg::Loop *> ToOpen;
    for (const cfg::Loop *L = LI.loopFor(Block); L; L = L->getParent()) {
      const bool AlreadyActive =
          std::any_of(Active.begin(), Active.end(),
                      [L](const ActiveLoop &A) { return A.L == L; });
      if (!AlreadyActive)
        ToOpen.push_back(L);
    }
    for (auto It = ToOpen.rbegin(); It != ToOpen.rend(); ++It)
      Active.push_back({*It, 1, Executed});

    // A back edge into the header of the innermost active loop is a new
    // iteration.
    if (!Active.empty() && Active.back().L->getHeader() == Block &&
        ToOpen.empty())
      ++Active.back().Iterations;
  }

  void onCall() { Frames.emplace_back(); }

  /// \p Executed is the executedCount() right after stepping the Ret, which
  /// is charged to the loops it closes.
  void onRet(uint64_t Executed) {
    while (!Frames.back().empty())
      closeTop(Executed + 1);
    if (Frames.size() > 1)
      Frames.pop_back();
  }

  /// Closes everything still active at end of run; the last executed
  /// instruction is charged to all of them.
  void finish(uint64_t Executed) {
    while (Frames.size() > 1)
      onRet(Executed);
    while (!Frames.back().empty())
      closeTop(Executed + 1);
  }

private:
  struct ActiveLoop {
    const cfg::Loop *L;
    uint64_t Iterations;
    uint64_t OpenExecuted;
  };

  /// Closes the innermost active loop.  \p At is the exclusive end of its
  /// instruction span, in executedCount() units.
  void closeTop(uint64_t At) {
    auto &Active = Frames.back();
    const ActiveLoop &A = Active.back();
    LoopStats &S = Out.statsFor(A.L->getHeader()->getStartAddr());
    S.Iterations.addSample(A.Iterations);
    ++S.Invocations;
    S.DynamicInstrs += At - A.OpenExecuted;
    Active.pop_back();
  }

  const cfg::ProgramAnalysis &PA;
  LoopProfile &Out;
  const int64_t SpanChargeSkew;
  std::vector<std::vector<ActiveLoop>> Frames;
};

} // namespace

ProfileData test::referenceCollectProfile(const ir::Program &P,
                                          const cfg::ProgramAnalysis &PA,
                                          const std::vector<int64_t> &MemoryImage,
                                          const ProfileOptions &Options,
                                          int64_t SpanChargeSkew) {
  ProfileData Data;
  Emulator Emu(P, MemoryImage);
  auto Predictor = uarch::createPredictor(Options.Predictor);
  LoopTracker Loops(PA, Data.Loops, SpanChargeSkew);

  DynInstr Inst;
  while (Emu.executedCount() < Options.MaxInstrs && Emu.step(Inst)) {
    const ir::BasicBlock *Block = P.blockAt(Inst.Addr);
    if (Inst.Addr == Block->getStartAddr()) {
      Data.Edges.recordBlockExec(Inst.Addr);
      Loops.onBlockEntry(Block, Emu.executedCount());
    }

    switch (Inst.I->Op) {
    case ir::Opcode::CondBr: {
      const bool Predicted = Predictor->predict(Inst.Addr);
      Predictor->update(Inst.Addr, Inst.Taken);
      Data.Edges.recordBranch(Inst.Addr, Inst.Taken);
      Data.Branches.record(Inst.Addr, Inst.Taken, Predicted != Inst.Taken);
      break;
    }
    case ir::Opcode::Call:
      Loops.onCall();
      break;
    case ir::Opcode::Ret:
      Loops.onRet(Emu.executedCount());
      break;
    default:
      break;
    }
  }

  Loops.finish(Emu.executedCount());
  Data.DynamicInstrs = Emu.executedCount();
  Data.Completed = Emu.isHalted();
  return Data;
}

TwoDProfileData
test::referenceCollectTwoDProfile(const ir::Program &P,
                                  const std::vector<int64_t> &MemoryImage,
                                  unsigned NumSlices, uint64_t MaxInstrs) {
  TwoDProfileData Data;
  Emulator Emu(P, MemoryImage);
  auto Predictor = uarch::createPredictor(uarch::PredictorKind::GShare);

  const uint64_t SliceLen = std::max<uint64_t>(1, MaxInstrs / NumSlices);
  DynInstr D;
  while (Emu.executedCount() < MaxInstrs && Emu.step(D)) {
    if (D.I->Op != ir::Opcode::CondBr)
      continue;
    const bool Predicted = Predictor->predict(D.Addr);
    Predictor->update(D.Addr, D.Taken);
    const unsigned Slice = static_cast<unsigned>(
        std::min<uint64_t>(Emu.executedCount() / SliceLen, NumSlices - 1));
    PhaseStats &S = Data.statsFor(D.Addr);
    if (S.Slices.size() < NumSlices)
      S.Slices.resize(NumSlices, {0, 0});
    ++S.Slices[Slice].first;
    if (Predicted != D.Taken)
      ++S.Slices[Slice].second;
  }
  return Data;
}
