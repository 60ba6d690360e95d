//===- pipebench/Checks.h - Correctness checks of every run ----*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checks each benchmark run makes outside its timed passes.  None of
/// them compares against a stored copy of earlier output: each one checks
/// an invariant of the computation or agreement between two independent
/// ways of computing the same thing.  Every check returns an empty string
/// when it holds and a one-line reason when it does not; runSelfTest()
/// feeds each one a deliberately corrupted input to show it can fail.
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_CHECKS_H
#define PIPEBENCH_CHECKS_H

#include "harness/CellRun.h"
#include "sim/FinalState.h"

#include <string>
#include <vector>

namespace pipebench {

/// A simulation's retired state \p Sim against the reference
/// interpreter's \p Ref: registers, memory fingerprint, store sequence and
/// instruction count must all be identical.  \p Leg names the simulation.
std::string checkFinalState(const dmp::sim::FinalState &Sim,
                            const dmp::sim::FinalState &Ref,
                            const std::string &Leg);

/// Profile self-consistency: sum over blocks of execution count x block
/// length equals DynamicInstrs (up to the one block a budget-truncated run
/// stopped inside), and every conditional branch's taken + not-taken
/// equals its block's execution count and the branch profile's count.
std::string checkProfile(const dmp::ir::Program &P,
                         const dmp::profile::ProfileData &Prof);

/// Every selected diverge branch is a conditional branch the profile saw
/// execute.
std::string checkDivergeBranches(const dmp::ir::Program &P,
                                 const dmp::profile::ProfileData &Prof,
                                 const dmp::core::DivergeMap &Map);

/// Cell-by-cell digest equality of two runs of the same cells; \p What
/// names the comparison.
std::string checkDigests(const std::vector<dmp::serialize::Digest> &Got,
                         const std::vector<dmp::serialize::Digest> &Want,
                         const std::string &What);

/// Digests of \p Results in order.
std::vector<dmp::serialize::Digest>
digestsOf(const std::vector<dmp::harness::CellResult> &Results);

/// Everything the stage replay checks for one workload's cells: computes
/// each benchmark once (profile, baseline, reference interpreter run) and
/// every cell's selection and DMP simulation without a cache, on \p Threads
/// threads, then applies the checks above and compares each cell's digest
/// with \p Want (the workload's own results, same order as \p Cells).
/// Returns the failures found (empty when all hold).
std::vector<std::string>
checkCells(const std::vector<dmp::harness::CellSpec> &Cells,
           const std::vector<dmp::serialize::Digest> &Want, unsigned Threads);

/// Shows that every check rejects a corrupted input and accepts the
/// uncorrupted one; prints one line per case.  Returns 0 when all behave.
int runSelfTest(const std::string &TempDir);

} // namespace pipebench

#endif // PIPEBENCH_CHECKS_H
