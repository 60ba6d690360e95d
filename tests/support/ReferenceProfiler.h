//===- tests/support/ReferenceProfiler.h - Per-instruction profilers -*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original per-instruction profiling loops, kept as the oracle the
/// block-granular profilers in libdmp are differentially tested against
/// (the same role Emulator::stepReference() plays for the batched
/// emulator).  They step one instruction at a time with Emulator::step(),
/// look every instruction's block up with Program::blockAt(), call the
/// predictor through the virtual BranchPredictor interface, count into the
/// map-shaped profiles directly, and track loops with Loop::contains()
/// scans — deliberately sharing nothing with the fast path beyond the
/// emulator's step semantics and the profile types.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_TESTS_SUPPORT_REFERENCEPROFILER_H
#define DMP_TESTS_SUPPORT_REFERENCEPROFILER_H

#include "profile/Profiler.h"
#include "profile/TwoDProfile.h"

#include <cstdint>
#include <vector>

namespace dmp::test {

/// collectProfile() semantics, one instruction at a time.
/// \p SpanChargeSkew is added to every loop span charged at a block-entry
/// close; it is nonzero only in the canary that proves the differential
/// test catches an off-by-one span charge.
profile::ProfileData
referenceCollectProfile(const ir::Program &P, const cfg::ProgramAnalysis &PA,
                        const std::vector<int64_t> &MemoryImage,
                        const profile::ProfileOptions &Options =
                            profile::ProfileOptions(),
                        int64_t SpanChargeSkew = 0);

/// collectTwoDProfile() semantics, one instruction at a time.
profile::TwoDProfileData
referenceCollectTwoDProfile(const ir::Program &P,
                            const std::vector<int64_t> &MemoryImage,
                            unsigned NumSlices = 16,
                            uint64_t MaxInstrs = 20'000'000);

} // namespace dmp::test

#endif // DMP_TESTS_SUPPORT_REFERENCEPROFILER_H
