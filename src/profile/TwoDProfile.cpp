//===- profile/TwoDProfile.cpp - Input-dependent branch detection -------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "profile/TwoDProfile.h"

#include "profile/Emulator.h"
#include "uarch/BranchPredictor.h"

#include <algorithm>
#include <cmath>

using namespace dmp;
using namespace dmp::profile;

double PhaseStats::meanMispRate() const {
  double Sum = 0.0;
  unsigned Active = 0;
  for (const auto &[Execs, Misps] : Slices) {
    if (Execs == 0)
      continue;
    Sum += static_cast<double>(Misps) / static_cast<double>(Execs);
    ++Active;
  }
  return Active == 0 ? 0.0 : Sum / Active;
}

double PhaseStats::mispRateStdDev() const {
  const double Mean = meanMispRate();
  double SumSq = 0.0;
  unsigned Active = 0;
  for (const auto &[Execs, Misps] : Slices) {
    if (Execs == 0)
      continue;
    const double Rate =
        static_cast<double>(Misps) / static_cast<double>(Execs);
    SumSq += (Rate - Mean) * (Rate - Mean);
    ++Active;
  }
  return Active == 0 ? 0.0 : std::sqrt(SumSq / Active);
}

double PhaseStats::overallMispRate() const {
  uint64_t Execs = 0, Misps = 0;
  for (const auto &[E, M] : Slices) {
    Execs += E;
    Misps += M;
  }
  return Execs == 0 ? 0.0
                    : static_cast<double>(Misps) / static_cast<double>(Execs);
}

bool TwoDProfileData::isPotentiallyMispredicted(uint32_t Addr,
                                                double MinMispRate,
                                                double MinStdDev) const {
  const PhaseStats *S = find(Addr);
  if (!S)
    return false; // never executed
  return S->overallMispRate() >= MinMispRate ||
         S->mispRateStdDev() >= MinStdDev;
}

TwoDProfileData profile::collectTwoDProfile(
    const ir::Program &P, const std::vector<int64_t> &MemoryImage,
    unsigned NumSlices, uint64_t MaxInstrs) {
  // The same block-granular loop as collectProfile: only segment
  // terminators matter, counted in a dense NumSlices-wide row per static
  // branch and moved into the map once, at the end, for the branches that
  // executed.
  const std::vector<uint32_t> &Branches = P.condBranchAddrs();
  std::vector<uint32_t> BranchAt(P.instrCount(), 0);
  for (size_t I = 0; I < Branches.size(); ++I)
    BranchAt[Branches[I]] = static_cast<uint32_t>(I);
  std::vector<std::pair<uint64_t, uint64_t>> Counts(Branches.size() *
                                                    NumSlices);
  Emulator Emu(P, MemoryImage);
  uarch::GSharePredictor Predictor;

  const uint64_t SliceLen = std::max<uint64_t>(1, MaxInstrs / NumSlices);
  Segment S;
  while (Emu.runSegment(MaxInstrs, S)) {
    if (!S.Term || S.Term->Op != ir::Opcode::CondBr)
      continue;
    const bool Predicted = Predictor.predict(S.TermAddr);
    Predictor.update(S.TermAddr, S.Taken);
    const unsigned Slice = static_cast<unsigned>(
        std::min<uint64_t>(Emu.executedCount() / SliceLen, NumSlices - 1));
    auto &C = Counts[BranchAt[S.TermAddr] * size_t{NumSlices} + Slice];
    ++C.first;
    if (Predicted != S.Taken)
      ++C.second;
  }

  TwoDProfileData Data;
  for (size_t I = 0; I < Branches.size(); ++I) {
    const auto First = Counts.begin() + I * NumSlices;
    const auto Last = First + NumSlices;
    if (std::any_of(First, Last, [](const auto &C) { return C.first != 0; }))
      Data.statsFor(Branches[I]).Slices.assign(First, Last);
  }
  return Data;
}

core::DivergeMap profile::filterAlwaysEasyBranches(
    const core::DivergeMap &Map, const TwoDProfileData &Profile,
    size_t *Dropped, double MinMispRate, double MinStdDev) {
  core::DivergeMap Filtered;
  size_t DroppedCount = 0;
  for (uint32_t Addr : Map.sortedAddrs()) {
    if (Profile.isPotentiallyMispredicted(Addr, MinMispRate, MinStdDev))
      Filtered.add(Addr, *Map.find(Addr));
    else
      ++DroppedCount;
  }
  if (Dropped)
    *Dropped = DroppedCount;
  return Filtered;
}
