//===- tests/test_profile_diff.cpp - Block-granular profiler differential ---===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// The enforcement arm of the digest-identity contract for the profilers
// (DESIGN.md "Fast paths & the digest-identity contract"): collectProfile
// and collectTwoDProfile run a segment at a time over dense counters, and
// must agree byte for byte with the original per-instruction loops kept in
// tests/support/ReferenceProfiler.  Compared over the hand-built test
// programs at every budget up to a few hundred instructions, all 17 suite
// workloads on both input sets with both profiling predictors at budgets
// that cut mid-segment and mid-block as well as run-to-halt, and 200
// fuzz-generated recipes.  A canary proves an off-by-one loop-span charge
// is caught.
//
//===----------------------------------------------------------------------===//

#include "ReferenceProfiler.h"
#include "TestPrograms.h"
#include "cfg/Analysis.h"
#include "check/ProgramGen.h"
#include "serialize/ProfileIO.h"
#include "workloads/SpecSuite.h"

#include <gtest/gtest.h>

#include <limits>

using namespace dmp;
using namespace dmp::profile;

namespace {

constexpr uint64_t RunToHalt = std::numeric_limits<uint64_t>::max();

/// Budgets that stop mid-segment and mid-block, the cold-cell profiling
/// budget, and run-to-halt.
constexpr uint64_t SuiteBudgets[] = {1, 2, 37, 999, 99'999, 4'000'000,
                                     RunToHalt};

constexpr uarch::PredictorKind Predictors[] = {uarch::PredictorKind::GShare,
                                               uarch::PredictorKind::Perceptron};

const char *predictorName(uarch::PredictorKind Kind) {
  return Kind == uarch::PredictorKind::GShare ? "gshare" : "perceptron";
}

/// Asserts byte-equal ProfileIO encodings of the block-granular and the
/// reference profiler for one (program, image, options).
void compareProfiles(const ir::Program &P, const cfg::ProgramAnalysis &PA,
                     const std::vector<int64_t> &Image,
                     const ProfileOptions &Opts) {
  SCOPED_TRACE(testing::Message() << predictorName(Opts.Predictor)
                                  << " budget " << Opts.MaxInstrs);
  const ProfileData Fast = collectProfile(P, PA, Image, Opts);
  const ProfileData Ref = test::referenceCollectProfile(P, PA, Image, Opts);
  ASSERT_EQ(serialize::encodeProfileData(Fast),
            serialize::encodeProfileData(Ref));
}

/// Asserts identical per-slice (executed, mispredicted) counts for every
/// branch, and the same set of branches.
void compareTwoD(const ir::Program &P, const std::vector<int64_t> &Image,
                 unsigned NumSlices, uint64_t MaxInstrs) {
  SCOPED_TRACE(testing::Message() << NumSlices << " slices, budget "
                                  << MaxInstrs);
  const TwoDProfileData Fast =
      collectTwoDProfile(P, Image, NumSlices, MaxInstrs);
  const TwoDProfileData Ref =
      test::referenceCollectTwoDProfile(P, Image, NumSlices, MaxInstrs);
  ASSERT_EQ(Fast.all().size(), Ref.all().size());
  for (const auto &[Addr, Stats] : Ref.all()) {
    const PhaseStats *S = Fast.find(Addr);
    ASSERT_NE(S, nullptr) << "branch " << Addr;
    ASSERT_EQ(S->Slices, Stats.Slices) << "branch " << Addr;
  }
}

void compareSuite(workloads::InputSetKind Input, uarch::PredictorKind Kind) {
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    SCOPED_TRACE(Spec.Name);
    const workloads::Workload W = workloads::buildBenchmark(Spec);
    const cfg::ProgramAnalysis PA(*W.Prog);
    const std::vector<int64_t> Image = W.buildImage(Input);
    for (uint64_t Budget : SuiteBudgets) {
      ProfileOptions Opts;
      Opts.MaxInstrs = Budget;
      Opts.Predictor = Kind;
      compareProfiles(*W.Prog, PA, Image, Opts);
    }
  }
}

/// main calls f once per outer iteration; f runs a data-dependent inner
/// loop whose early exit leads straight to a Ret, a loop nested in the
/// caller's loop across a call.
std::unique_ptr<ir::Program> buildCalleeLoopProgram(unsigned Iters) {
  auto Prog = std::make_unique<ir::Program>("callee-loop");
  ir::Function *Main = Prog->createFunction("main");
  ir::Function *F = Prog->createFunction("f");
  ir::IRBuilder B(*Prog);

  ir::BasicBlock *Entry = Main->createBlock("entry");
  ir::BasicBlock *Header = Main->createBlock("header");
  ir::BasicBlock *Exit = Main->createBlock("exit");
  ir::BasicBlock *FEntry = F->createBlock("fentry");
  ir::BasicBlock *FLoop = F->createBlock("floop");
  ir::BasicBlock *FBody = F->createBlock("fbody");
  ir::BasicBlock *FDone = F->createBlock("fdone");
  ir::BasicBlock *FEarly = F->createBlock("fearly");

  B.setInsertPoint(Entry);
  B.loadImm(1, 0);
  B.loadImm(2, static_cast<int64_t>(Iters));

  B.setInsertPoint(Header);
  B.addI(8, 8, 3);
  B.call(F);
  B.emitFiller(3, 9);
  B.addI(1, 1, 1);
  B.condBr(ir::BrCond::Lt, 1, 2, Header);

  B.setInsertPoint(Exit);
  B.halt();

  B.setInsertPoint(FEntry);
  B.loadImm(6, 0);
  B.loadImm(7, 6);

  B.setInsertPoint(FLoop);
  B.add(5, 1, 6);
  B.load(3, 5, 0);
  B.condBr(ir::BrCond::Ne, 3, 0, FEarly);

  B.setInsertPoint(FBody);
  B.emitFiller(2, 10);
  B.addI(6, 6, 1);
  B.condBr(ir::BrCond::Lt, 6, 7, FLoop);

  B.setInsertPoint(FDone);
  B.ret();

  B.setInsertPoint(FEarly);
  B.emitFiller(1, 11);
  B.ret();

  Prog->finalize();
  test::requireClean(*Prog);
  return Prog;
}

/// Every budget from 0 to \p MaxBudget, then run-to-halt, for both
/// predictors: every possible cut point of a small program.
void sweepBudgets(const ir::Program &P, const std::vector<int64_t> &Image,
                  uint64_t MaxBudget) {
  const cfg::ProgramAnalysis PA(P);
  for (uarch::PredictorKind Kind : Predictors)
    for (uint64_t Budget = 0; Budget <= MaxBudget + 1; ++Budget) {
      ProfileOptions Opts;
      Opts.MaxInstrs = Budget <= MaxBudget ? Budget : RunToHalt;
      Opts.Predictor = Kind;
      compareProfiles(P, PA, Image, Opts);
      if (testing::Test::HasFatalFailure())
        return;
    }
}

} // namespace

TEST(ProfileDiff, TestProgramsEveryBudget) {
  {
    auto H = test::buildSimpleHammockLoop(/*BodyLen=*/6, /*Iters=*/32);
    sweepBudgets(*H.Prog, test::alternatingImage(64, 2), 400);
  }
  {
    auto H = test::buildFreqHammockLoop();
    sweepBudgets(*H.Prog, test::alternatingImage(8192, 3), 400);
  }
  {
    auto H = test::buildDataLoop();
    sweepBudgets(*H.Prog, test::alternatingImage(8192, 5), 400);
  }
  {
    auto H = test::buildRetFuncLoop(/*Iters=*/16);
    sweepBudgets(*H.Prog, test::alternatingImage(64, 2), 400);
  }
  {
    auto Prog = buildCalleeLoopProgram(/*Iters=*/24);
    sweepBudgets(*Prog, test::alternatingImage(256, 5), 600);
  }
}

TEST(ProfileDiff, SuiteRunInputGShare) {
  compareSuite(workloads::InputSetKind::Run, uarch::PredictorKind::GShare);
}

TEST(ProfileDiff, SuiteTrainInputGShare) {
  compareSuite(workloads::InputSetKind::Train, uarch::PredictorKind::GShare);
}

TEST(ProfileDiff, SuiteRunInputPerceptron) {
  compareSuite(workloads::InputSetKind::Run, uarch::PredictorKind::Perceptron);
}

TEST(ProfileDiff, SuiteTrainInputPerceptron) {
  compareSuite(workloads::InputSetKind::Train,
               uarch::PredictorKind::Perceptron);
}

// The same generator the differential-oracle fuzz campaign draws from:
// hammocks, nested diamonds, counted and data-dependent inner loops inside
// the outer loop, and multi-return calls.
TEST(ProfileDiff, FuzzRecipes200) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    const check::GenRecipe Recipe = check::randomRecipe(Seed);
    const check::GenProgram GP = check::materialize(Recipe);
    ASSERT_TRUE(GP.VerifyErrors.empty())
        << check::describeRecipe(Recipe) << ": " << GP.VerifyErrors.front();
    SCOPED_TRACE(check::describeRecipe(Recipe));
    const cfg::ProgramAnalysis PA(*GP.Prog);
    for (uarch::PredictorKind Kind : Predictors)
      for (uint64_t Budget : {uint64_t{37}, uint64_t{999}, RunToHalt}) {
        ProfileOptions Opts;
        Opts.MaxInstrs = Budget;
        Opts.Predictor = Kind;
        compareProfiles(*GP.Prog, PA, GP.Image, Opts);
      }
  }
}

TEST(ProfileDiff, TwoDProfileSuite) {
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    SCOPED_TRACE(Spec.Name);
    const workloads::Workload W = workloads::buildBenchmark(Spec);
    for (workloads::InputSetKind Input :
         {workloads::InputSetKind::Run, workloads::InputSetKind::Train}) {
      const std::vector<int64_t> Image = W.buildImage(Input);
      // dmpc --2d-filter's defaults, the test suite's 8-slice run, and a
      // budget that ends mid-segment.
      compareTwoD(*W.Prog, Image, 16, 20'000'000);
      compareTwoD(*W.Prog, Image, 8, 1'500'000);
      compareTwoD(*W.Prog, Image, 3, 999);
    }
  }
}

TEST(ProfileDiff, TwoDProfileFuzzRecipes) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    const check::GenProgram GP = check::materialize(check::randomRecipe(Seed));
    SCOPED_TRACE(Seed);
    compareTwoD(*GP.Prog, GP.Image, 16, 20'000'000);
    compareTwoD(*GP.Prog, GP.Image, 5, 37);
  }
}

// Canary: the comparison must notice a loop span charged one instruction
// too long at a block-entry close.  Run to completion, every suite workload
// leaves some loop by entering a non-member block, so every one must
// differ.
TEST(ProfileDiff, CanaryOffByOneSpanCharge) {
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    SCOPED_TRACE(Spec.Name);
    const workloads::Workload W = workloads::buildBenchmark(Spec);
    const cfg::ProgramAnalysis PA(*W.Prog);
    const std::vector<int64_t> Image =
        W.buildImage(workloads::InputSetKind::Run);
    ProfileOptions Opts;
    Opts.MaxInstrs = RunToHalt;
    const ProfileData Fast = collectProfile(*W.Prog, PA, Image, Opts);
    const ProfileData Skewed = test::referenceCollectProfile(
        *W.Prog, PA, Image, Opts, /*SpanChargeSkew=*/1);
    EXPECT_NE(serialize::encodeProfileData(Fast),
              serialize::encodeProfileData(Skewed));
  }
}
