//===- bench/bench_throughput.cpp - Simulator throughput snapshot --------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Measures how fast the engine itself runs — not what it computes — and
// writes BENCH_throughput.json, the committed perf baseline for the fast
// paths (predecoded emulator dispatch, block-batched Emulator::run, the
// flattened DmpCore hot loop):
//
//   * emu-MIPS for all three functional stepping modes, per workload:
//     run() (block-batched), step() (predecoded per-step), and
//     stepReference() (the original IR-dispatch interpreter the fast paths
//     are differentially tested against);
//   * profile-MIPS: instructions per second of profile::collectProfile
//     (edge, misprediction and loop profiles over the block-granular
//     emulator entry point), the first-run stage of every cell;
//   * sim-MIPS: retired instructions per second of the cycle-level DmpCore
//     in the baseline (Table 1) configuration;
//   * the 17-cell campaign digest (the same campaign BENCH_serve.json
//     pins), so a throughput optimization that changes *results* shows up
//     in this file's diff, not just in test failures.
//
// Every workload is measured best-of-N because the numbers are wall-clock
// on a shared machine; the committed snapshot is the perf *baseline*, and
// `--check=<snapshot>` (used by `scripts/check.sh --bench` via the `perf`
// ctest label) re-measures in `--smoke` mode and fails on a >3x aggregate
// regression — wide enough for machine noise, tight enough to catch a fast
// path silently falling back to the slow one.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchJson.h"
#include "cfg/Analysis.h"
#include "harness/CellRun.h"
#include "profile/Emulator.h"
#include "profile/Profiler.h"
#include "serialize/Hash.h"
#include "serialize/ProfileIO.h"
#include "sim/DmpCore.h"
#include "sim/FinalState.h"
#include "sim/SimConfig.h"
#include "support/ExitCodes.h"
#include "support/Flags.h"
#include "support/Json.h"
#include "workloads/SpecSuite.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace dmp;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

double mips(uint64_t Instrs, double Sec) {
  return Sec > 0.0 ? static_cast<double>(Instrs) / Sec / 1e6 : 0.0;
}

struct Options {
  bool Smoke = false;
  std::string CheckPath; ///< Committed snapshot to gate against; empty = off.
  std::string OutPath = "BENCH_throughput.json";
  unsigned Reps = 0;          ///< 0 = mode default.
  size_t LimitBenches = 0;    ///< 0 = whole suite.

  // Per-leg dynamic instruction budgets (mode defaults; the reference
  // interpreter gets a smaller budget because it is the slow leg).
  uint64_t EmuInstrs = 4'000'000;
  uint64_t RefInstrs = 2'000'000;
  uint64_t SimInstrs = 1'000'000;

  static Options parseOrExit(int Argc, char **Argv) {
    Options O;
    FlagParser()
        .set("--smoke", O.Smoke, true,
             "small budgets for a quick re-measurement")
        .text("--check", "SNAPSHOT", O.CheckPath,
              "gate against a committed snapshot instead of\n"
              "writing one")
        .text("--out", "PATH", O.OutPath,
              "snapshot to write (default BENCH_throughput.json)")
        .number("--reps", "N", O.Reps, 0,
                std::numeric_limits<unsigned>::max(),
                "best-of-N repetitions (default 3, 2 with --smoke)")
        .number("--limit-benches", "N", O.LimitBenches, 0,
                std::numeric_limits<size_t>::max(),
                "measure only the first N workloads (default all)")
        .parseOrExit(Argc, Argv);
    if (O.Smoke) {
      O.EmuInstrs = 600'000;
      O.RefInstrs = 300'000;
      O.SimInstrs = 150'000;
    }
    if (O.Reps == 0)
      O.Reps = O.Smoke ? 2 : 3;
    return O;
  }
};

/// Best-of-reps measurements for one workload, in MIPS.
struct WorkloadResult {
  std::string Name;
  double EmuRun = 0.0;
  double EmuStep = 0.0;
  double EmuRef = 0.0;
  double Profile = 0.0;
  double Sim = 0.0;
  double SimIpc = 0.0;
  // Instructions actually executed per leg (a workload may halt before the
  // budget), for the aggregate instrs/sec computation.
  uint64_t EmuInstrs = 0;
  uint64_t RefInstrs = 0;
  uint64_t ProfileInstrs = 0;
  uint64_t SimInstrs = 0;
  // Best (smallest) wall times, seconds.
  double EmuRunSec = 0.0;
  double EmuStepSec = 0.0;
  double EmuRefSec = 0.0;
  double ProfileSec = 0.0;
  double SimSec = 0.0;
};

/// The suite plus a synthetic long-run variant: a loop-heavy composition
/// with an effectively unbounded outer trip count, so every leg runs to its
/// full instruction budget (the 17 suite members may halt early under the
/// larger full-mode budgets).
std::vector<workloads::Workload> buildWorkloads(size_t LimitBenches) {
  std::vector<workloads::Workload> All;
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    All.push_back(workloads::buildBenchmark(Spec));
    if (LimitBenches != 0 && All.size() >= LimitBenches)
      return All;
  }
  workloads::BenchmarkSpec LongRun;
  LongRun.Name = "longrun";
  LongRun.OuterIters = 1u << 30;
  LongRun.SimpleEasy = 1;
  LongRun.Short = 1;
  LongRun.DataLoops = 1;
  LongRun.Straight = 3;
  LongRun.Seed = 424242;
  All.push_back(workloads::buildBenchmark(LongRun));
  return All;
}

WorkloadResult measureWorkload(const workloads::Workload &W,
                               const Options &Opts) {
  WorkloadResult R;
  R.Name = W.Name;
  const std::vector<int64_t> Image =
      W.buildImage(workloads::InputSetKind::Run);
  const cfg::ProgramAnalysis PA(*W.Prog);

  double BestRun = 1e30, BestStep = 1e30, BestRef = 1e30, BestProfile = 1e30,
         BestSim = 1e30;
  for (unsigned Rep = 0; Rep < Opts.Reps; ++Rep) {
    // Leg 1: block-batched run().
    {
      profile::Emulator Emu(*W.Prog, Image);
      const auto T0 = Clock::now();
      Emu.run(Opts.EmuInstrs);
      const double Sec = secondsSince(T0);
      R.EmuInstrs = Emu.executedCount();
      BestRun = std::min(BestRun, Sec);
    }
    // Leg 2: per-step predecoded dispatch (what the profiler/sim loops pay).
    {
      profile::Emulator Emu(*W.Prog, Image);
      profile::DynInstr D;
      const auto T0 = Clock::now();
      while (Emu.executedCount() < Opts.EmuInstrs && Emu.step(D)) {
      }
      const double Sec = secondsSince(T0);
      if (Emu.executedCount() != R.EmuInstrs) {
        std::fprintf(stderr,
                     "bench_throughput: %s: step() executed %llu vs run() "
                     "%llu — fast paths diverge\n",
                     W.Name.c_str(),
                     static_cast<unsigned long long>(Emu.executedCount()),
                     static_cast<unsigned long long>(R.EmuInstrs));
        std::exit(exitcode::Failure);
      }
      BestStep = std::min(BestStep, Sec);
    }
    // Leg 3: the reference interpreter (smaller budget; it is the 1x line).
    {
      profile::Emulator Emu(*W.Prog, Image);
      profile::DynInstr D;
      const auto T0 = Clock::now();
      while (Emu.executedCount() < Opts.RefInstrs && Emu.stepReference(D)) {
      }
      const double Sec = secondsSince(T0);
      R.RefInstrs = Emu.executedCount();
      BestRef = std::min(BestRef, Sec);
    }
    // Leg 4: profile collection over the emu-leg budget (default options:
    // the gshare profiling predictor).
    {
      profile::ProfileOptions ProfOpts;
      ProfOpts.MaxInstrs = Opts.EmuInstrs;
      const auto T0 = Clock::now();
      const profile::ProfileData Prof =
          profile::collectProfile(*W.Prog, PA, Image, ProfOpts);
      const double Sec = secondsSince(T0);
      R.ProfileInstrs = Prof.DynamicInstrs;
      BestProfile = std::min(BestProfile, Sec);
    }
    // Leg 5: the cycle simulator, baseline configuration.
    {
      sim::SimConfig Cfg;
      Cfg.MaxInstrs = Opts.SimInstrs;
      sim::DmpCore Core(*W.Prog, /*Diverge=*/nullptr, Cfg);
      const auto T0 = Clock::now();
      const sim::SimStats Stats = Core.run(Image);
      const double Sec = secondsSince(T0);
      R.SimInstrs = Stats.RetiredInstrs;
      R.SimIpc = Stats.ipc();
      BestSim = std::min(BestSim, Sec);
    }
  }
  R.EmuRunSec = BestRun;
  R.EmuStepSec = BestStep;
  R.EmuRefSec = BestRef;
  R.ProfileSec = BestProfile;
  R.SimSec = BestSim;
  R.EmuRun = mips(R.EmuInstrs, BestRun);
  R.EmuStep = mips(R.EmuInstrs, BestStep);
  R.EmuRef = mips(R.RefInstrs, BestRef);
  R.Profile = mips(R.ProfileInstrs, BestProfile);
  R.Sim = mips(R.SimInstrs, BestSim);
  return R;
}

/// One sanity pass of the digest-identity contract inside the bench itself:
/// the simulator fed by the fast emulator and by the reference interpreter
/// must produce byte-identical stats and retired state.  Cheap (one small
/// workload) — the exhaustive version lives in tests/test_throughput_diff.
bool verifyEmuModeIdentity() {
  const workloads::Workload W = workloads::buildByName("mcf");
  const std::vector<int64_t> Image =
      W.buildImage(workloads::InputSetKind::Run);
  sim::SimConfig Cfg;
  Cfg.MaxInstrs = 100'000;
  sim::FinalState FastState, RefState;
  sim::DmpCore Fast(*W.Prog, nullptr, Cfg);
  const sim::SimStats FastStats =
      Fast.run(Image, &FastState, sim::DmpCore::EmuMode::Fast);
  sim::DmpCore Ref(*W.Prog, nullptr, Cfg);
  const sim::SimStats RefStats =
      Ref.run(Image, &RefState, sim::DmpCore::EmuMode::Reference);
  if (serialize::encodeSimStats(FastStats) !=
          serialize::encodeSimStats(RefStats) ||
      FastState.MemoryFingerprint != RefState.MemoryFingerprint ||
      FastState.Regs != RefState.Regs) {
    std::fprintf(stderr, "bench_throughput: EmuMode::Fast and Reference "
                         "disagree — fast paths are broken\n");
    return false;
  }
  return true;
}

/// SHA-256 over the 17-cell campaign BENCH_serve.json also pins (one cell
/// per suite benchmark, 400k profile / 100k sim instructions): the identity
/// anchor of this snapshot.
std::string campaignDigest() {
  serialize::Hasher H;
  for (const workloads::BenchmarkSpec &B : workloads::specSuite()) {
    harness::CellSpec Spec;
    Spec.Benchmark = B.Name;
    Spec.SimInstrs = 100'000;
    Spec.ProfileInstrs = 400'000;
    StatusOr<harness::CellResult> R =
        harness::runCellSpec(Spec, /*Cache=*/nullptr);
    if (!R.ok()) {
      std::fprintf(stderr, "bench_throughput: cell %s failed: %s\n", B.Name,
                   R.status().toString().c_str());
      std::exit(exitcode::Failure);
    }
    const std::vector<uint8_t> Blob = harness::encodeCellResult(*R);
    H.update(Blob.data(), Blob.size());
  }
  return H.finish().hex();
}

struct Aggregate {
  double EmuRun = 0.0;
  double EmuStep = 0.0;
  double EmuRef = 0.0;
  double Profile = 0.0;
  double Sim = 0.0;
};

Aggregate aggregate(const std::vector<WorkloadResult> &Results) {
  uint64_t EmuI = 0, RefI = 0, ProfI = 0, SimI = 0;
  double RunS = 0, StepS = 0, RefS = 0, ProfS = 0, SimS = 0;
  for (const WorkloadResult &R : Results) {
    EmuI += R.EmuInstrs;
    RefI += R.RefInstrs;
    ProfI += R.ProfileInstrs;
    SimI += R.SimInstrs;
    RunS += R.EmuRunSec;
    StepS += R.EmuStepSec;
    RefS += R.EmuRefSec;
    ProfS += R.ProfileSec;
    SimS += R.SimSec;
  }
  Aggregate A;
  A.EmuRun = mips(EmuI, RunS);
  A.EmuStep = mips(EmuI, StepS);
  A.EmuRef = mips(RefI, RefS);
  A.Profile = mips(ProfI, ProfS);
  A.Sim = mips(SimI, SimS);
  return A;
}

void writeSnapshot(const Options &Opts, const Aggregate &A,
                   const std::vector<WorkloadResult> &Results,
                   const std::string &Digest) {
  bench::BenchJson J("throughput");
  J.string("mode", Opts.Smoke ? "smoke" : "full");
  J.integer("reps", Opts.Reps);
  J.beginObject("budgets");
  J.integer("emu_instrs", Opts.EmuInstrs);
  J.integer("ref_instrs", Opts.RefInstrs);
  J.integer("sim_instrs", Opts.SimInstrs);
  J.endObject();
  J.beginObject("aggregate");
  J.number("emu_run_mips", A.EmuRun, 1);
  J.number("emu_step_mips", A.EmuStep, 1);
  J.number("emu_ref_mips", A.EmuRef, 1);
  J.number("profile_mips", A.Profile, 1);
  J.number("sim_mips", A.Sim, 1);
  J.number("emu_speedup_vs_ref", A.EmuRef > 0 ? A.EmuRun / A.EmuRef : 0.0,
           2);
  J.endObject();
  J.beginArray("workloads");
  for (const WorkloadResult &R : Results) {
    J.beginElement();
    J.string("name", R.Name);
    J.number("emu_run_mips", R.EmuRun, 1);
    J.number("emu_step_mips", R.EmuStep, 1);
    J.number("emu_ref_mips", R.EmuRef, 1);
    J.number("profile_mips", R.Profile, 1);
    J.number("sim_mips", R.Sim, 1);
    J.number("sim_ipc", R.SimIpc, 3);
    J.endElement();
  }
  J.endArray();
  J.string("campaign_digest", Digest);
  std::fputs(J.render().c_str(), stdout);
  if (!J.writeFile(Opts.OutPath)) {
    std::fprintf(stderr, "bench_throughput: cannot write %s\n",
                 Opts.OutPath.c_str());
    std::exit(exitcode::Failure);
  }
  std::printf("wrote %s\n", Opts.OutPath.c_str());
}

/// The perf-regression gate: re-measured aggregate MIPS must be within 3x
/// of the committed snapshot (machine noise allowance), and the campaign
/// digest must match exactly.
int checkAgainst(const std::string &Path, const Aggregate &A,
                 const std::string &Digest) {
  StatusOr<json::Value> Parsed = json::parseFile(Path);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "bench_throughput: %s\n",
                 Parsed.status().toString().c_str());
    return exitcode::Failure;
  }
  const json::Value &Root = *Parsed;
  const json::Value *Schema = Root.findString("schema");
  const json::Value *Bench = Root.findString("bench");
  if (!Schema || Schema->asString() != bench::kBenchSchema || !Bench ||
      Bench->asString() != "throughput") {
    std::fprintf(stderr, "bench_throughput: %s is not a throughput snapshot\n",
                 Path.c_str());
    return exitcode::Failure;
  }
  const json::Value *Committed = Root.findString("campaign_digest");
  if (!Committed || Committed->asString() != Digest) {
    std::fprintf(stderr,
                 "bench_throughput: campaign digest drifted\n"
                 "  committed: %s\n  measured : %s\n",
                 Committed ? Committed->asString().c_str() : "(missing)",
                 Digest.c_str());
    return exitcode::Failure;
  }
  const json::Value *Agg = Root.findObject("aggregate");
  if (!Agg) {
    std::fprintf(stderr, "bench_throughput: snapshot has no aggregate\n");
    return exitcode::Failure;
  }
  constexpr double Tolerance = 3.0;
  const std::pair<const char *, double> Gates[] = {
      {"emu_run_mips", A.EmuRun},
      {"emu_step_mips", A.EmuStep},
      {"emu_ref_mips", A.EmuRef},
      {"profile_mips", A.Profile},
      {"sim_mips", A.Sim},
  };
  int Rc = exitcode::Ok;
  for (const auto &[Key, Measured] : Gates) {
    const json::Value *V = Agg->findNumber(Key);
    if (!V) {
      std::fprintf(stderr, "bench_throughput: snapshot aggregate lacks %s\n",
                   Key);
      Rc = exitcode::Failure;
      continue;
    }
    const double Floor = V->asNumber() / Tolerance;
    std::printf("check %-14s measured %8.1f MIPS  committed %8.1f  floor "
                "%8.1f  %s\n",
                Key, Measured, V->asNumber(), Floor,
                Measured >= Floor ? "ok" : "REGRESSED");
    if (Measured < Floor)
      Rc = exitcode::Failure;
  }
  return Rc;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options Opts = Options::parseOrExit(Argc, Argv);

  if (!verifyEmuModeIdentity())
    return exitcode::Failure;

  const std::vector<workloads::Workload> Suite =
      buildWorkloads(Opts.LimitBenches);
  std::printf("bench_throughput: %zu workloads, %u reps, budgets "
              "emu=%llu ref=%llu sim=%llu (%s)\n",
              Suite.size(), Opts.Reps,
              static_cast<unsigned long long>(Opts.EmuInstrs),
              static_cast<unsigned long long>(Opts.RefInstrs),
              static_cast<unsigned long long>(Opts.SimInstrs),
              Opts.Smoke ? "smoke" : "full");

  std::vector<WorkloadResult> Results;
  for (const workloads::Workload &W : Suite) {
    Results.push_back(measureWorkload(W, Opts));
    const WorkloadResult &R = Results.back();
    std::printf("  %-8s emu run %7.1f  step %7.1f  ref %7.1f  profile %6.1f  "
                "sim %6.1f MIPS\n",
                R.Name.c_str(), R.EmuRun, R.EmuStep, R.EmuRef, R.Profile,
                R.Sim);
  }

  const Aggregate A = aggregate(Results);
  const std::string Digest = campaignDigest();

  if (!Opts.CheckPath.empty())
    return checkAgainst(Opts.CheckPath, A, Digest);

  writeSnapshot(Opts, A, Results, Digest);
  return exitcode::Ok;
}
