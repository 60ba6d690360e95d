//===- tools/fuzz_dmp.cpp - Differential-oracle fuzzer driver ------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Runs the dmp::check differential oracle over a range of generator seeds,
// fanned out on the exec thread pool.  Each seed expands to a random
// program (check/ProgramGen.h), which is run through the reference
// emulator and the cycle simulator in baseline, profile-selected-DMP, and
// adversarial-DMP configurations; any retired-state divergence or broken
// simulator invariant fails the seed.
//
// Usage:
//   fuzz_dmp [options]
//
// `fuzz_dmp --help` lists every option: the seed range, the canary fault
// modes, failure reduction, the jobs-independent result digest and the
// wall-clock --time-budget (which stops launching seeds, reports the covered
// seed range, and never truncates silently).  Value flags take `--flag=V`
// or `--flag V`.
//
// Exit status (support/ExitCodes.h): 0 when every completed seed passed
// (or, under --expect-divergence, when every completed seed failed);
// 1 otherwise; 2 on usage errors; 130 when interrupted by SIGINT/SIGTERM
// (the report above it covers the seeds that completed).
//
//===----------------------------------------------------------------------===//

#include "cfg/Analysis.h"
#include "check/Oracle.h"
#include "check/ProgramGen.h"
#include "check/Reduce.h"
#include "exec/TaskGraph.h"
#include "exec/ThreadPool.h"
#include "guard/Guard.h"
#include "serialize/Hash.h"
#include "serialize/ProfileIO.h"
#include "support/ExitCodes.h"
#include "support/Flags.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace dmp;

namespace {

struct CliOptions {
  uint64_t Seeds = 200;
  uint64_t StartSeed = 0;
  unsigned Jobs = exec::ThreadPool::defaultThreadCount();
  uint64_t MaxInstrs = 300'000;
  unsigned Fault = 0;
  bool ExpectDivergence = false;
  bool KeepGoing = false;
  bool Reduce = false;
  std::string DumpDir;
  bool PrintDigest = false;
  bool SelfcheckDeterminism = false;
  double TimeBudgetSeconds = 0; ///< 0 = unbounded.
};

/// Parses argv into \p Opts; exits on --help and usage errors.
void parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  FlagParser()
      .number("--seeds", "N", Opts.Seeds, 1, 1'000'000,
              "number of seeds to run (default 200)")
      .number("--start-seed", "N", Opts.StartSeed, 0,
              std::numeric_limits<uint64_t>::max(), "first seed (default 0)")
      .number("--jobs", "N", Opts.Jobs, 1, 1024,
              "worker threads (default: hardware)")
      .number("--max-instrs", "N", Opts.MaxInstrs, 1,
              std::numeric_limits<uint64_t>::max(),
              "per-run dynamic instruction budget (default\n"
              "300000)")
      .number("--fault", "0|1|2", Opts.Fault, 0, 2,
              "inject a canary fault into the dmp-selected leg's\n"
              "extracted state (1 = drop first retired store,\n"
              "2 = flip a bit of r1); the oracle must then flag\n"
              "every seed")
      .set("--expect-divergence", Opts.ExpectDivergence, true,
           "invert the exit status: succeed only when every\n"
           "seed fails (canary / known-bug mode)")
      .set("--keep-going", Opts.KeepGoing, true,
           "report every divergence, not only the first: a\n"
           "per-seed failure table and a failure digest\n"
           "independent of --jobs")
      .set("--reduce", Opts.Reduce, true,
           "on failure, greedily minimize the first failing\n"
           "seed and print the repro snippet + DOT CFG")
      .text("--dump-dir", "DIR", Opts.DumpDir,
            "write repro_seed<N>.h/.dot for the reduced case")
      .set("--digest", Opts.PrintDigest, true,
           "print the SHA-256 digest of all results; the\n"
           "digest is independent of --jobs")
      .set("--selfcheck-determinism", Opts.SelfcheckDeterminism, true,
           "run the batch twice (1 thread vs all threads) and\n"
           "fail unless the result digests match")
      .real("--time-budget", "SEC", Opts.TimeBudgetSeconds,
            std::numeric_limits<double>::denorm_min(), 1e9,
            "stop launching new seeds after SEC wall-clock\n"
            "seconds; in-flight seeds finish and the digest\n"
            "covers completed seeds only, with the covered\n"
            "seed count reported")
      .parseOrExit(Argc, Argv);
}

/// One seed's outcome — everything needed for reporting and for the
/// jobs-independent result digest.
struct SeedResult {
  uint64_t Seed = 0;
  /// False when the seed was never run — drained by the time budget or a
  /// shutdown signal.  Skipped seeds are excluded from the digests and
  /// failure counts, and reported explicitly in the coverage line.
  bool Ran = true;
  bool Ok = false;
  std::string Summary; ///< Error lines; empty when Ok.
  /// Per-leg serialized SimStats, so the digest also pins the timing
  /// model's counters, not just architectural correctness.
  std::vector<std::vector<uint8_t>> LegStats;
};

check::OracleOptions oracleOptions(const CliOptions &Opts) {
  check::OracleOptions OOpts;
  OOpts.MaxInstrs = Opts.MaxInstrs;
  OOpts.InjectFault = Opts.Fault;
  return OOpts;
}

SeedResult runSeed(uint64_t Seed, const CliOptions &Opts) {
  SeedResult R;
  R.Seed = Seed;
  const check::GenRecipe Recipe = check::randomRecipe(Seed);
  const check::GenProgram G = check::materialize(Recipe);
  if (!G.VerifyErrors.empty()) {
    R.Ok = false;
    for (const std::string &E : G.VerifyErrors)
      R.Summary += "generator: " + E + "\n";
    return R;
  }
  const cfg::ProgramAnalysis PA(*G.Prog);
  const check::OracleReport Report =
      check::runOracle(*G.Prog, PA, G.Image, oracleOptions(Opts));
  R.Ok = Report.ok();
  R.Summary = Report.summary();
  for (const check::LegResult &Leg : Report.Legs)
    R.LegStats.push_back(serialize::encodeSimStats(Leg.Stats));
  return R;
}

/// Digest over all completed results, in seed order — independent of
/// scheduling.  Skipped (never-run) seeds contribute nothing, so a
/// time-budgeted sweep's digest is exactly the digest of the seeds it
/// covered — and identical to an unbudgeted run's when nothing is skipped.
serialize::Digest resultsDigest(const std::vector<SeedResult> &Results) {
  serialize::Hasher H;
  H.update(std::string("fuzz-dmp-results"));
  for (const SeedResult &R : Results) {
    if (!R.Ran)
      continue;
    H.updateU64(R.Seed);
    H.updateU64(R.Ok ? 1 : 0);
    H.update(R.Summary);
    for (const std::vector<uint8_t> &Blob : R.LegStats)
      H.update(Blob.data(), Blob.size());
  }
  return H.finish();
}

std::vector<SeedResult> runBatch(const CliOptions &Opts, unsigned Jobs,
                                 const guard::CancelToken *Budget) {
  std::vector<SeedResult> Results(Opts.Seeds);
  exec::ThreadPool Pool(Jobs);
  exec::TaskGraph Graph;
  for (uint64_t I = 0; I < Opts.Seeds; ++I)
    Graph.add([I, &Opts, &Results] {
      Results[I] = runSeed(Opts.StartSeed + I, Opts);
    });
  // Graceful drain only: the check gates seed *launches*; a seed already
  // inside the oracle runs to completion (its legs are never aborted, so
  // every completed result is the same bytes a full run would produce).
  const std::vector<Status> Statuses =
      Graph.runAll(Pool, [Budget]() -> Status {
        if (Status S = guard::processToken().status(); !S.ok())
          return S;
        return Budget ? Budget->status() : Status();
      });
  // Run-to-completion: a seed whose harness itself blows up becomes a
  // failed seed with the Status text, instead of aborting the batch.
  // Guard-origin statuses are drains, not failures: the seed never ran.
  for (uint64_t I = 0; I < Opts.Seeds; ++I)
    if (!Statuses[I].ok()) {
      Results[I].Seed = Opts.StartSeed + I;
      Results[I].Ok = false;
      Results[I].LegStats.clear();
      if (Statuses[I].origin() == "guard") {
        Results[I].Ran = false;
        Results[I].Summary.clear();
      } else {
        Results[I].Summary = "harness: " + Statuses[I].toString() + "\n";
      }
    }
  return Results;
}

/// The first line of \p Text (without the newline), for compact tables.
std::string firstLine(const std::string &Text) {
  const size_t Pos = Text.find('\n');
  return Pos == std::string::npos ? Text : Text.substr(0, Pos);
}

/// Digest over the failing seeds only, in seed order — independent of
/// --jobs, so two --keep-going sweeps are comparable by one line.
serialize::Digest failureDigest(const std::vector<SeedResult> &Results) {
  serialize::Hasher H;
  H.update(std::string("fuzz-dmp-failures"));
  for (const SeedResult &R : Results) {
    if (!R.Ran || R.Ok)
      continue;
    H.updateU64(R.Seed);
    H.update(R.Summary);
  }
  return H.finish();
}

bool writeFile(const std::string &Path, const std::string &Contents) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fwrite(Contents.data(), 1, Contents.size(), F);
  std::fclose(F);
  return true;
}

void reduceAndReport(uint64_t Seed, const CliOptions &Opts) {
  const check::OracleOptions OOpts = oracleOptions(Opts);
  // When the original failure is an oracle divergence, candidates that
  // fail the IR lint are rejected outright: shrinking into a structurally
  // invalid program would "minimize" to a different bug.  Only when the
  // original failure *is* a lint failure do lint-failing candidates count
  // as reproducing it.
  const bool OriginalLintFailed =
      !check::materialize(check::randomRecipe(Seed)).VerifyErrors.empty();
  const auto StillFails = [&](const check::GenRecipe &Candidate) {
    const check::GenProgram G = check::materialize(Candidate);
    if (!G.VerifyErrors.empty())
      return OriginalLintFailed;
    if (OriginalLintFailed)
      return false;
    const cfg::ProgramAnalysis PA(*G.Prog);
    return !check::runOracle(*G.Prog, PA, G.Image, OOpts).ok();
  };
  const check::GenRecipe Minimized =
      check::reduceRecipe(check::randomRecipe(Seed), StillFails);
  const std::string Name = "Seed" + std::to_string(Seed);
  const std::string Snippet = check::emitReproSnippet(Minimized, Name);
  const std::string Dot = check::emitReproDot(Minimized);
  std::printf("minimized repro for seed %llu: %s\n%s",
              static_cast<unsigned long long>(Seed),
              check::describeRecipe(Minimized).c_str(), Snippet.c_str());
  if (!Opts.DumpDir.empty()) {
    const std::string Base =
        Opts.DumpDir + "/repro_seed" + std::to_string(Seed);
    if (!writeFile(Base + ".h", Snippet) || !writeFile(Base + ".dot", Dot))
      std::fprintf(stderr, "fuzz_dmp: cannot write repro files under %s\n",
                   Opts.DumpDir.c_str());
    else
      std::printf("repro written to %s.{h,dot}\n", Base.c_str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  guard::installSignalHandlers();
  CliOptions Opts;
  parseArgs(Argc, Argv, Opts);

  // The time budget spans the whole invocation (both selfcheck batches
  // included): once it expires, no batch launches further seeds.
  guard::CancelToken BudgetToken;
  std::unique_ptr<guard::DeadlineWatchdog> Watchdog;
  const guard::CancelToken *Budget = nullptr;
  if (Opts.TimeBudgetSeconds > 0) {
    Watchdog = std::make_unique<guard::DeadlineWatchdog>(
        guard::Deadline(Opts.TimeBudgetSeconds), BudgetToken,
        ErrorCode::ResourceExhausted, "time budget exhausted");
    Budget = &BudgetToken;
  }

  if (Opts.SelfcheckDeterminism) {
    const std::vector<SeedResult> Serial = runBatch(Opts, 1, Budget);
    const std::vector<SeedResult> Parallel = runBatch(Opts, Opts.Jobs, Budget);
    const serialize::Digest A = resultsDigest(Serial);
    const serialize::Digest B = resultsDigest(Parallel);
    std::printf("determinism selfcheck: jobs=1 %s, jobs=%u %s\n",
                A.hex().c_str(), Opts.Jobs, B.hex().c_str());
    if (A != B) {
      std::fprintf(stderr,
                   "fuzz_dmp: result digest depends on thread count\n");
      return exitcode::Failure;
    }
  }

  const std::vector<SeedResult> Results = runBatch(Opts, Opts.Jobs, Budget);

  uint64_t Completed = 0;
  uint64_t Failures = 0;
  const SeedResult *FirstFailure = nullptr;
  for (const SeedResult &R : Results) {
    if (!R.Ran)
      continue;
    ++Completed;
    if (!R.Ok) {
      ++Failures;
      if (!FirstFailure)
        FirstFailure = &R;
    }
  }
  const uint64_t Skipped = Opts.Seeds - Completed;

  std::printf("fuzz_dmp: %llu seeds starting at %llu, %llu failed "
              "(fault=%u, jobs=%u)\n",
              static_cast<unsigned long long>(Opts.Seeds),
              static_cast<unsigned long long>(Opts.StartSeed),
              static_cast<unsigned long long>(Failures), Opts.Fault,
              Opts.Jobs);
  // Coverage is always reported when a budget was set (and whenever seeds
  // were skipped), so a truncated sweep can never pass as a full one.
  if (Opts.TimeBudgetSeconds > 0 || Skipped > 0) {
    uint64_t Lo = 0, Hi = 0;
    bool Any = false;
    for (const SeedResult &R : Results)
      if (R.Ran) {
        if (!Any)
          Lo = R.Seed;
        Hi = R.Seed;
        Any = true;
      }
    if (Any)
      std::printf("coverage: %llu of %llu seeds completed, %llu skipped; "
                  "covered seeds %llu..%llu\n",
                  static_cast<unsigned long long>(Completed),
                  static_cast<unsigned long long>(Opts.Seeds),
                  static_cast<unsigned long long>(Skipped),
                  static_cast<unsigned long long>(Lo),
                  static_cast<unsigned long long>(Hi));
    else
      std::printf("coverage: 0 of %llu seeds completed, %llu skipped\n",
                  static_cast<unsigned long long>(Opts.Seeds),
                  static_cast<unsigned long long>(Skipped));
  }
  if (Opts.PrintDigest)
    std::printf("digest: %s\n", resultsDigest(Results).hex().c_str());
  if (Opts.KeepGoing && Failures > 0) {
    std::printf("failing seeds:\n");
    for (const SeedResult &R : Results)
      if (!R.Ok)
        std::printf("  seed %-8llu %s\n",
                    static_cast<unsigned long long>(R.Seed),
                    firstLine(R.Summary).c_str());
    std::printf("failure digest: %s\n", failureDigest(Results).hex().c_str());
  }
  if (FirstFailure) {
    std::printf("first failing seed %llu (%s):\n%s",
                static_cast<unsigned long long>(FirstFailure->Seed),
                check::describeRecipe(check::randomRecipe(FirstFailure->Seed))
                    .c_str(),
                FirstFailure->Summary.c_str());
    if (Opts.Reduce)
      reduceAndReport(FirstFailure->Seed, Opts);
  }

  if (guard::interrupted()) {
    std::fprintf(stderr,
                 "[guard] interrupted: results above cover completed seeds "
                 "only\n");
    return exitcode::Interrupted;
  }
  if (Opts.ExpectDivergence) {
    if (Completed > 0 && Failures == Completed)
      return exitcode::Ok;
    std::fprintf(stderr,
                 "fuzz_dmp: expected every seed to diverge, but %llu of "
                 "%llu completed seeds passed\n",
                 static_cast<unsigned long long>(Completed - Failures),
                 static_cast<unsigned long long>(Completed));
    return exitcode::Failure;
  }
  return Failures == 0 ? exitcode::Ok : exitcode::Failure;
}
