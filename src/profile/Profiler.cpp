//===- profile/Profiler.cpp - Profile collection -------------------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "profile/Profiler.h"

#include "profile/Emulator.h"

#include <algorithm>
#include <unordered_map>

using namespace dmp;
using namespace dmp::profile;

double ProfileData::profileMPKI() const {
  if (DynamicInstrs == 0)
    return 0.0;
  return 1000.0 * static_cast<double>(Branches.totalMispredictions()) /
         static_cast<double>(DynamicInstrs);
}

uint64_t BranchProfile::totalMispredictions() const {
  uint64_t Total = 0;
  for (const auto &Entry : Stats)
    Total += Entry.second.Mispredicted;
  return Total;
}

namespace {

constexpr uint32_t NoIndex = UINT32_MAX;

/// Dense tables the profiler consults in place of Program::blockAt(),
/// counter maps and LoopInfo walks, built once per run in O(static
/// instructions + loop blocks).  Blocks and conditional branches are
/// numbered program-wide in layout order, loops in LoopInfo order per
/// function.
struct ProgramLayout {
  /// Per address: the number of the block starting there, else NoIndex.
  std::vector<uint32_t> BlockAt;
  /// Per block: its start address.
  std::vector<uint32_t> BlockStart;
  /// Per address: the number of the conditional branch there, else
  /// NoIndex; and per branch, its address.
  std::vector<uint32_t> BranchAt, BranchAddr;
  /// Per block: its loop nest (LoopInfo::loopFor and the getParent()
  /// chain), outermost first, as Chains[ChainBegin[B], ChainBegin[B + 1]).
  /// Natural loops with distinct headers are disjoint or nested, so the
  /// nest is exactly the set of loops containing the block.
  std::vector<uint32_t> ChainBegin, Chains;
  /// Per loop: the header's block number and start address.
  std::vector<uint32_t> HeaderBlock, HeaderAddr;

  ProgramLayout(const ir::Program &P, const cfg::ProgramAnalysis &PA) {
    std::unordered_map<const ir::BasicBlock *, uint32_t> BlockNo;
    std::vector<const ir::BasicBlock *> Blocks;
    BlockAt.assign(P.instrCount(), NoIndex);
    for (const auto &F : P.functions())
      for (const auto &B : F->blocks())
        if (!B->empty()) {
          BlockNo[B.get()] = static_cast<uint32_t>(Blocks.size());
          BlockAt[B->getStartAddr()] = static_cast<uint32_t>(Blocks.size());
          BlockStart.push_back(B->getStartAddr());
          Blocks.push_back(B.get());
        }
    BranchAt.assign(P.instrCount(), NoIndex);
    for (uint32_t Addr : P.condBranchAddrs()) {
      BranchAt[Addr] = static_cast<uint32_t>(BranchAddr.size());
      BranchAddr.push_back(Addr);
    }

    std::unordered_map<const cfg::Loop *, uint32_t> LoopNo;
    for (const auto &F : P.functions())
      for (const auto &L : PA.forFunction(*F).LI.loops()) {
        LoopNo[L.get()] = static_cast<uint32_t>(HeaderAddr.size());
        const auto Header = BlockNo.find(L->getHeader());
        HeaderBlock.push_back(Header == BlockNo.end() ? NoIndex
                                                      : Header->second);
        HeaderAddr.push_back(L->getHeader()->getStartAddr());
      }

    for (const ir::BasicBlock *B : Blocks) {
      ChainBegin.push_back(static_cast<uint32_t>(Chains.size()));
      const cfg::LoopInfo &LI = PA.forFunction(*B->getParent()).LI;
      for (const cfg::Loop *L = LI.loopFor(B); L; L = L->getParent())
        Chains.push_back(LoopNo.at(L));
      std::reverse(Chains.begin() + ChainBegin.back(), Chains.end());
    }
    ChainBegin.push_back(static_cast<uint32_t>(Chains.size()));
  }

  /// Loop::contains(), over the block's nest.
  bool contains(uint32_t Loop, uint32_t Block) const {
    const uint32_t *const End = Chains.data() + ChainBegin[Block + 1];
    return std::find(Chains.data() + ChainBegin[Block], End, Loop) != End;
  }
};

/// Tracks loop invocations/iterations along the dynamic execution, frame by
/// frame so that calls inside loops do not disturb the caller's loop state.
///
/// Per-loop dynamic-instruction counts are span-based: a loop remains
/// active continuously from open to close, so each active loop records the
/// executed-instruction count at open time and the close charges the whole
/// span at once.  An instruction is charged to every loop active while it
/// executed, where loops closed by entering a non-member block stop
/// *before* the entering instruction, and loops closed by Ret (or end of
/// run) still count the closing instruction.
class LoopTracker {
public:
  explicit LoopTracker(const ProgramLayout &L)
      : L(L), Stats(L.HeaderAddr.size()), FrameBase{0} {}

  /// \p Executed is the executedCount() right after the first instruction
  /// of \p Block retired.
  void onBlockEntry(uint32_t Block, uint64_t Executed) {
    // Close loops that no longer contain the new block.  Their span ends
    // before the entering instruction, which executed outside the loop.
    while (Active.size() > FrameBase.back() &&
           !L.contains(Active.back().Loop, Block))
      closeTop(Executed);

    // Open the loops of the block's nest that are not active in this
    // frame, outermost first.  The entering instruction itself is the
    // first one charged to them.
    bool Opened = false;
    for (uint32_t C = L.ChainBegin[Block], E = L.ChainBegin[Block + 1]; C < E;
         ++C)
      if (!activeInFrame(L.Chains[C])) {
        Active.push_back({L.Chains[C], 1, Executed});
        Opened = true;
      }

    // A back edge into the header of the innermost active loop is a new
    // iteration.
    if (!Opened && Active.size() > FrameBase.back() &&
        L.HeaderBlock[Active.back().Loop] == Block)
      ++Active.back().Iterations;
  }

  void onCall() { FrameBase.push_back(static_cast<uint32_t>(Active.size())); }

  /// \p Executed is the executedCount() right after the Ret, which is
  /// charged to the loops it closes.
  void onRet(uint64_t Executed) {
    while (Active.size() > FrameBase.back())
      closeTop(Executed + 1);
    if (FrameBase.size() > 1)
      FrameBase.pop_back();
  }

  /// Closes everything still active at end of run; the last executed
  /// instruction is charged to all of them.
  void finish(uint64_t Executed) {
    while (FrameBase.size() > 1)
      onRet(Executed);
    while (!Active.empty())
      closeTop(Executed + 1);
  }

  /// Moves the stats of every loop that was invoked into \p Out.
  void emit(LoopProfile &Out) {
    for (size_t Id = 0; Id < Stats.size(); ++Id)
      if (Stats[Id].Invocations != 0)
        Out.statsFor(L.HeaderAddr[Id]) = std::move(Stats[Id]);
  }

private:
  struct ActiveLoop {
    uint32_t Loop;
    uint64_t Iterations;
    /// executedCount() when the loop was opened (the open instruction has
    /// already retired, so it is the first one inside the span).
    uint64_t OpenExecuted;
  };

  bool activeInFrame(uint32_t Loop) const {
    for (size_t I = FrameBase.back(); I < Active.size(); ++I)
      if (Active[I].Loop == Loop)
        return true;
    return false;
  }

  /// Closes the innermost active loop.  \p At is the exclusive end of its
  /// instruction span, in executedCount() units: the count right after the
  /// last instruction charged to the loop.
  void closeTop(uint64_t At) {
    const ActiveLoop &A = Active.back();
    LoopStats &S = Stats[A.Loop];
    S.Iterations.addSample(A.Iterations);
    ++S.Invocations;
    S.DynamicInstrs += At - A.OpenExecuted;
    Active.pop_back();
  }

  const ProgramLayout &L;
  std::vector<LoopStats> Stats;
  /// Active loops of every frame, innermost frame on top; FrameBase holds
  /// the index where each call frame's loops begin.
  std::vector<ActiveLoop> Active;
  std::vector<uint32_t> FrameBase;
};

/// The profiling loop, over the concrete predictor type so its calls are
/// direct.  Works a segment at a time (Emulator::runSegment): the only
/// per-instruction events the profiles need are block entries (a segment
/// starting on a block start) and control flow (the segment's terminator).
/// Counts accumulate in dense block- and branch-indexed arrays and become
/// the map-shaped ProfileData once, at the end, for the entries that
/// executed.
template <typename PredictorT>
void collectWith(const ir::Program &P, const cfg::ProgramAnalysis &PA,
                 const std::vector<int64_t> &MemoryImage, uint64_t MaxInstrs,
                 PredictorT &Predictor, ProfileData &Data) {
  const ProgramLayout Layout(P, PA);
  LoopTracker Loops(Layout);
  std::vector<uint64_t> BlockExec(Layout.BlockStart.size(), 0);
  std::vector<BranchStats> Branches(Layout.BranchAddr.size());
  Emulator Emu(P, MemoryImage);

  Segment S;
  while (Emu.runSegment(MaxInstrs, S)) {
    if (const uint32_t Block = Layout.BlockAt[S.Start]; Block != NoIndex) {
      ++BlockExec[Block];
      Loops.onBlockEntry(Block, S.Begin + 1);
    }
    if (!S.Term)
      continue;
    switch (S.Term->Op) {
    case ir::Opcode::CondBr: {
      const bool Predicted = Predictor.predict(S.TermAddr);
      Predictor.update(S.TermAddr, S.Taken);
      BranchStats &B = Branches[Layout.BranchAt[S.TermAddr]];
      ++B.Executed;
      B.Taken += S.Taken;
      B.Mispredicted += Predicted != S.Taken;
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
  Loops.emit(Data.Loops);
  for (size_t Block = 0; Block < BlockExec.size(); ++Block)
    if (BlockExec[Block] != 0)
      Data.Edges.setBlockExecCount(Layout.BlockStart[Block], BlockExec[Block]);
  for (size_t Br = 0; Br < Branches.size(); ++Br) {
    const BranchStats &B = Branches[Br];
    if (B.Executed != 0) {
      const uint32_t Addr = Layout.BranchAddr[Br];
      Data.Edges.setBranchCounts(Addr, {B.Taken, B.Executed - B.Taken});
      Data.Branches.setStats(Addr, B);
    }
  }
  Data.DynamicInstrs = Emu.executedCount();
  Data.Completed = Emu.isHalted();
}

} // namespace

ProfileData profile::collectProfile(const ir::Program &P,
                                    const cfg::ProgramAnalysis &PA,
                                    const std::vector<int64_t> &MemoryImage,
                                    const ProfileOptions &Options) {
  ProfileData Data;
  switch (Options.Predictor) {
  case uarch::PredictorKind::GShare: {
    uarch::GSharePredictor Predictor;
    collectWith(P, PA, MemoryImage, Options.MaxInstrs, Predictor, Data);
    break;
  }
  case uarch::PredictorKind::Perceptron: {
    uarch::PerceptronPredictor Predictor;
    collectWith(P, PA, MemoryImage, Options.MaxInstrs, Predictor, Data);
    break;
  }
  }
  return Data;
}
