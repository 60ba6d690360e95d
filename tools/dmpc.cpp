//===- tools/dmpc.cpp - The DMP profiling-compiler driver ----------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Command-line driver mirroring the paper's binary-analysis toolset
// (Section 6.1): profile a benchmark, select diverge branches with a chosen
// algorithm, emit the annotation list that would be "attached to the
// binary", and optionally simulate baseline vs DMP.
//
// Usage:
//   dmpc [options] <benchmark>
//   dmpc --list
//   dmpc --remote SOCKET --ping
//
// `dmpc --help` lists every option with its default and range.  Value flags
// take either `--flag=V` or `--flag V`, the same syntax as the bench
// drivers; numbers are plain decimal.  Unknown options, malformed or
// out-of-range values and stray operands print usage and exit 2, so
// scripted sweeps fail loudly instead of silently running the default
// configuration.
//
//===----------------------------------------------------------------------===//

#include "analyze/Analyze.h"
#include "cfg/DotExport.h"
#include "check/Oracle.h"
#include "core/AnnotationIO.h"
#include "exec/TaskGraph.h"
#include "guard/Guard.h"
#include "harness/CellRun.h"
#include "harness/Engine.h"
#include "ir/Printer.h"
#include "profile/TwoDProfile.h"
#include "serve/Client.h"
#include "support/ExitCodes.h"
#include "support/Flags.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace dmp;

namespace {

struct CliOptions {
  std::string Benchmark;
  std::string Algo = "all";
  workloads::InputSetKind ProfileInput = workloads::InputSetKind::Run;
  unsigned MaxInstr = 50;
  double MinMergeProb = 0.01;
  bool TwoDFilter = false;
  bool EmitMap = false;
  bool DumpProgram = false;
  bool DumpDot = false;
  bool Simulate = false;
  bool LintOnly = false;
  bool LintGate = true;
  bool Verify = false;
  unsigned InjectFault = 0;
  uint64_t SimInstrs = 1'200'000;
  unsigned Jobs = exec::ThreadPool::defaultThreadCount();
  std::string CacheDir = harness::EngineOptions::defaultCacheDir();
  bool UseCache = true;
  std::string RemoteSocket; ///< non-empty: ship the cell to a dmp_served
  bool Ping = false;        ///< --remote health probe, no cell shipped
};

/// Parses argv into \p Opts; exits on --help, --list and usage errors.
void parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  bool List = false;
  std::vector<std::string> Operands;
  FlagParser Flags("[options] <benchmark> | --list | --remote SOCKET --ping");
  Flags
      .text("--algo", "NAME", Opts.Algo,
            "selection algorithm: exact, freq, short, ret, all,\n"
            "cost-long, cost-edge, all-cost, every-br,\n"
            "random-50, high-bp-5, immediate, if-else\n"
            "(default all)")
      .choice("--profile-input", Opts.ProfileInput,
              {{"run", workloads::InputSetKind::Run},
               {"train", workloads::InputSetKind::Train}},
              "profiling input set (default run)")
      .number("--max-instr", "N", Opts.MaxInstr, 1, 1'000'000,
              "MAX_INSTR threshold (default 50)")
      .real("--min-merge-prob", "P", Opts.MinMergeProb, 0.0, 1.0,
            "MIN_MERGE_PROB threshold (default 0.01)")
      .set("--2d-filter", Opts.TwoDFilter, true,
           "drop always-easy branches (2D profiling)")
      .set("--dump-dot", Opts.DumpDot, true,
           "print Graphviz CFGs with the selection")
      .set("--emit-map", Opts.EmitMap, true, "print the serialized diverge map")
      .set("--dump-program", Opts.DumpProgram, true,
           "print the program listing")
      .set("--simulate", Opts.Simulate, true,
           "run baseline and DMP simulations")
      .set("--lint", Opts.LintOnly, true,
           "run the static checker (IR lint, annotation/CFM\n"
           "legality, profile sanity) over the selection and\n"
           "exit; non-zero on any error-severity diagnostic")
      .set("--no-lint", Opts.LintGate, false,
           "skip the implicit lint gate that otherwise runs\n"
           "before --simulate/--verify")
      .set("--verify", Opts.Verify, true,
           "run the differential oracle (reference emulator\n"
           "vs baseline/DMP-selected/DMP-adversarial legs);\n"
           "non-zero on any retired-state mismatch or\n"
           "invariant violation")
      .number("--inject-fault", "0|1|2", Opts.InjectFault, 0, 2,
              "with --verify: canary fault in the DMP-selected\n"
              "leg (1 = drop first retired store, 2 = flip a bit\n"
              "of r1); the oracle must then fail")
      .number("--sim-instrs", "N", Opts.SimInstrs, 1,
              std::numeric_limits<uint64_t>::max(),
              "simulation budget (default 1200000)")
      .number("--jobs", "N", Opts.Jobs, 1, 1024,
              "worker threads (baseline and DMP simulations\n"
              "overlap under --simulate)")
      .text("--cache-dir", "DIR", Opts.CacheDir,
            "artifact cache location (default $DMP_CACHE_DIR\n"
            "or .dmp-cache)")
      .set("--no-cache", Opts.UseCache, false,
           "recompute; skip the artifact cache")
      .text("--remote", "SOCKET", Opts.RemoteSocket,
            "run the cell on a dmp_served daemon (implies\n"
            "--simulate; the printed stats digest is\n"
            "bit-identical to a local run)")
      .set("--ping", Opts.Ping, true,
           "with --remote: health-probe the daemon and print\n"
           "its epoch, load snapshot and round-trip time")
      .set("--list", List, true, "list available benchmarks and exit")
      .operands("benchmark", Operands, 1)
      .parseOrExit(Argc, Argv);
  if (List) {
    for (const auto &Spec : workloads::specSuite())
      std::printf("%s\n", Spec.Name);
    std::exit(exitcode::Ok);
  }
  // --ping is a daemon probe, not a cell run: no benchmark needed.
  if (Opts.Ping && Opts.RemoteSocket.empty())
    Flags.usageError("--ping requires --remote SOCKET");
  if (Operands.empty() && !Opts.Ping)
    Flags.usageError("missing <benchmark> (try --list)");
  if (!Operands.empty())
    Opts.Benchmark = Operands[0];
  // Remote mode runs exactly one profile->select->simulate cell on the
  // daemon; the local-only analysis/report modes don't ship.
  if (!Opts.RemoteSocket.empty() &&
      (Opts.TwoDFilter || Opts.EmitMap || Opts.DumpProgram || Opts.DumpDot ||
       Opts.LintOnly || Opts.Verify))
    Flags.usageError("--remote supports only the simulate pipeline "
                     "(no --2d-filter/--emit-map/--dump-*/--lint/--verify)");
}

/// Runs the requested selection algorithm via the shared per-cell entry
/// point (harness::selectByAlgo), so dmpc and the serve workers parse one
/// grammar and run one implementation.
core::DivergeMap runSelection(harness::BenchContext &Bench,
                              const CliOptions &Opts,
                              core::SelectionStats &Stats) {
  StatusOr<core::DivergeMap> Map =
      harness::selectByAlgo(Bench, Opts.Algo, Opts.ProfileInput, &Stats);
  if (!Map.ok()) {
    std::fprintf(stderr, "error: unknown algorithm '%s'\n",
                 Opts.Algo.c_str());
    std::exit(exitcode::Usage);
  }
  return *std::move(Map);
}

void printSimReport(const sim::SimStats &Base, const sim::SimStats &Dmp) {
  std::printf("baseline: IPC %.3f  MPKI %.2f  flushes/kinstr %.2f\n",
              Base.ipc(), Base.mpki(), Base.flushesPerKiloInstr());
  std::printf("DMP     : IPC %.3f  flushes/kinstr %.2f  dpred entries "
              "%llu  merged %llu  saved flushes %llu\n",
              Dmp.ipc(), Dmp.flushesPerKiloInstr(),
              static_cast<unsigned long long>(Dmp.DpredEntries),
              static_cast<unsigned long long>(Dmp.DpredMerged),
              static_cast<unsigned long long>(Dmp.DpredSavedFlushes));
  std::printf("speedup : %s\n",
              formatPercent(harness::ipcImprovement(Base, Dmp)).c_str());
}

/// `dmpc --remote=SOCKET --ping`: one PING round trip, rendered as the
/// daemon's epoch, its load snapshot (when the daemon is new enough to
/// send one), and the measured RTT.
int runPing(const CliOptions &Opts) {
  serve::Client Client;
  if (Status S = Client.connect(Opts.RemoteSocket); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
    return exitcode::Failure;
  }
  const auto T0 = std::chrono::steady_clock::now();
  uint64_t Epoch = 0;
  StatusOr<serve::PongLoad> Load = Client.serverLoad(&Epoch);
  const double RttMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - T0)
          .count();
  if (!Load.ok() && Load.status().code() != ErrorCode::NotFound) {
    std::fprintf(stderr, "error: %s\n", Load.status().toString().c_str());
    return exitcode::Failure;
  }
  std::printf("pong: epoch=%llu rtt=%.3fms\n",
              static_cast<unsigned long long>(Epoch), RttMs);
  if (Load.ok())
    std::printf("load: jobs-active=%llu cells-running=%llu "
                "jobs-shed=%llu conns-shed=%llu\n",
                static_cast<unsigned long long>(Load->JobsActive),
                static_cast<unsigned long long>(Load->CellsRunning),
                static_cast<unsigned long long>(Load->JobsShed),
                static_cast<unsigned long long>(Load->ConnsShed));
  else
    std::printf("load: unavailable (daemon predates the load snapshot)\n");
  return exitcode::Ok;
}

/// `dmpc --remote`: ship the cell to a dmp_served daemon and render the
/// same report a local --simulate run prints, including the stats digest —
/// which must come back bit-identical to local execution.
int runRemote(const CliOptions &Opts) {
  harness::CellSpec Spec;
  Spec.Benchmark = Opts.Benchmark;
  Spec.Algo = Opts.Algo;
  Spec.ProfileInput = Opts.ProfileInput;
  Spec.MaxInstr = Opts.MaxInstr;
  Spec.MinMergeProb = Opts.MinMergeProb;
  Spec.SimInstrs = Opts.SimInstrs;
  if (Status S = Spec.validate(); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
    return exitcode::Usage;
  }

  serve::Client Client;
  if (Status S = Client.connect(Opts.RemoteSocket); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
    return exitcode::Failure;
  }
  serve::SubmitRequest Req;
  Req.Cells.push_back(Spec);
  // runCampaign rides through daemon blips and restarts: reconnect under
  // deterministic backoff, epoch check, idempotent resubmit.
  StatusOr<serve::FetchReplyData> Reply = Client.runCampaign(Req);
  if (!Reply.ok()) {
    std::fprintf(stderr, "error: %s\n", Reply.status().toString().c_str());
    return guard::interrupted() ? exitcode::Interrupted : exitcode::Failure;
  }
  // Results are in hand: release the job's durable record.  Best-effort —
  // if the ack is lost the server GC (or the next identical submit's
  // dedup) cleans up.
  (void)Client.ack(Reply->Job);
  if (Reply->Cells.size() != 1) {
    std::fprintf(stderr, "error: server returned %zu cells for 1 submitted\n",
                 Reply->Cells.size());
    return exitcode::Failure;
  }
  const StatusOr<harness::CellResult> &Cell = Reply->Cells[0];
  if (!Cell.ok()) {
    std::fprintf(stderr, "error: %s\n", Cell.status().toString().c_str());
    return exitcode::Failure;
  }

  std::printf("%s: algo=%s profile=%s -> %llu diverge branches "
              "(avg %.2f CFM points)\n",
              Opts.Benchmark.c_str(), Opts.Algo.c_str(),
              Opts.ProfileInput == workloads::InputSetKind::Run ? "run"
                                                                : "train",
              static_cast<unsigned long long>(Cell->DivergeBranches),
              Cell->AvgCfmPoints);
  printSimReport(Cell->Baseline, Cell->Dmp);
  std::printf("digest  : %s\n",
              harness::cellResultDigest(*Cell).hex().c_str());
  return exitcode::Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  guard::installSignalHandlers();
  CliOptions Opts;
  parseArgs(Argc, Argv, Opts);
  if (Opts.Ping)
    return runPing(Opts);

  const workloads::BenchmarkSpec *Spec = nullptr;
  for (const auto &S : workloads::specSuite())
    if (Opts.Benchmark == S.Name)
      Spec = &S;
  if (!Spec) {
    std::fprintf(stderr, "error: unknown benchmark '%s' (try --list)\n",
                 Opts.Benchmark.c_str());
    return exitcode::Usage;
  }

  if (!Opts.RemoteSocket.empty())
    return runRemote(Opts);

  harness::ExperimentOptions Options;
  Options.Selection =
      Options.Selection.withMaxInstr(Opts.MaxInstr)
          .withMinMergeProb(Opts.MinMergeProb);
  Options.Sim.MaxInstrs = Opts.SimInstrs;
  if (Opts.UseCache)
    Options.Cache = std::make_shared<serialize::ArtifactCache>(Opts.CacheDir);
  harness::BenchContext Bench(*Spec, Options);

  if (Opts.DumpProgram)
    std::printf("%s\n", ir::printProgram(*Bench.workload().Prog).c_str());

  core::SelectionStats Stats;
  core::DivergeMap Map = runSelection(Bench, Opts, Stats);
  std::printf("%s: algo=%s profile=%s -> %zu diverge branches "
              "(avg %.2f CFM points)\n",
              Opts.Benchmark.c_str(), Opts.Algo.c_str(),
              Opts.ProfileInput == workloads::InputSetKind::Run ? "run"
                                                                : "train",
              Map.size(), Map.avgCfmPoints());

  if (Opts.TwoDFilter) {
    const profile::TwoDProfileData TwoD = profile::collectTwoDProfile(
        *Bench.workload().Prog,
        Bench.workload().buildImage(Opts.ProfileInput));
    size_t Dropped = 0;
    Map = profile::filterAlwaysEasyBranches(Map, TwoD, &Dropped);
    std::printf("2D-profiling filter dropped %zu always-easy branches; %zu "
                "remain\n",
                Dropped, Map.size());
  }

  if (Opts.EmitMap)
    std::printf("%s", core::serializeDivergeMap(Map).c_str());

  if (Opts.DumpDot) {
    cfg::DotOptions DotOpts;
    const auto &Prof = Bench.profileData(Opts.ProfileInput);
    DotOpts.Edges = &Prof.Edges;
    DotOpts.Diverge = &Map;
    for (const auto &F : Bench.workload().Prog->functions())
      std::printf("%s\n", cfg::exportFunctionDot(*F, DotOpts).c_str());
  }

  // Static checker: with --lint, check and exit; otherwise gate the
  // expensive oracle/simulation phases on a clean lint (--no-lint skips).
  if (Opts.LintOnly ||
      (Opts.LintGate && (Opts.Simulate || Opts.Verify))) {
    analyze::AnalysisInput LintInput;
    LintInput.P = Bench.workload().Prog.get();
    LintInput.PA = &Bench.analysis();
    LintInput.Profile = &Bench.profileData(Opts.ProfileInput).Edges;
    LintInput.Annotations = &Map;
    analyze::DiagnosticSink Sink;
    const Status LintStatus = analyze::lintAll(LintInput, &Sink);
    // The implicit pre-simulation gate stays quiet unless something gates;
    // --lint is the reporting mode and prints warnings too.
    if (Opts.LintOnly) {
      if (!Sink.empty())
        std::fprintf(stderr, "%s", Sink.renderText().c_str());
      std::printf("lint: %s %s\n", Opts.Benchmark.c_str(),
                  Sink.summaryLine().c_str());
      return LintStatus.ok() ? exitcode::Ok : exitcode::Failure;
    }
    if (!LintStatus.ok()) {
      for (const analyze::Diagnostic &D : Sink.diagnostics())
        if (D.Sev == analyze::Severity::Error)
          std::fprintf(stderr, "%s\n", D.renderText().c_str());
    }
    if (!LintStatus.ok()) {
      std::fprintf(stderr,
                   "lint: refusing to simulate a selection with error "
                   "diagnostics (use --no-lint to bypass)\n");
      return exitcode::Failure;
    }
  }

  // Phase boundaries double as interrupt points: a first SIGINT lets the
  // current phase finish, then we stop cleanly with the distinct exit code
  // instead of starting the (expensive) oracle or simulation phases.
  if (guard::interrupted()) {
    std::fprintf(stderr, "[guard] interrupted: skipping remaining phases\n");
    return exitcode::Interrupted;
  }

  if (Opts.Verify) {
    check::OracleOptions OracleOpts;
    OracleOpts.MaxInstrs = Opts.SimInstrs;
    OracleOpts.InjectFault = Opts.InjectFault;
    const check::OracleReport Report = check::runOracle(
        *Bench.workload().Prog, Bench.analysis(),
        Bench.workload().buildImage(workloads::InputSetKind::Run),
        OracleOpts);
    for (const check::LegResult &Leg : Report.Legs)
      std::printf("verify %-15s %s\n", Leg.Name.c_str(),
                  Leg.Errors.empty() ? "ok" : "FAILED");
    if (!Report.ok()) {
      std::fprintf(stderr, "%s", Report.summary().c_str());
      std::fprintf(stderr, "verify: %s FAILED\n", Opts.Benchmark.c_str());
      return exitcode::Failure;
    }
    std::printf("verify: %s ok (all legs match the reference emulator)\n",
                Opts.Benchmark.c_str());
  }

  if (guard::interrupted()) {
    std::fprintf(stderr, "[guard] interrupted: skipping remaining phases\n");
    return exitcode::Interrupted;
  }

  if (Opts.Simulate) {
    // The baseline and DMP simulations are independent; overlap them when
    // more than one worker is available.
    sim::SimStats Dmp;
    {
      exec::ThreadPool Pool(Opts.Jobs);
      exec::TaskGraph Graph;
      Graph.add([&Bench] { Bench.baseline(); });
      Graph.add([&Bench, &Map, &Dmp] { Dmp = Bench.simulateWith(Map); });
      Graph.run(Pool);
    }
    const sim::SimStats &Base = Bench.baseline();
    printSimReport(Base, Dmp);
    // The digest a --remote run of the same spec must reproduce.
    harness::CellResult Local;
    Local.Baseline = Base;
    Local.Dmp = Dmp;
    Local.DivergeBranches = Map.size();
    Local.AvgCfmPoints = Map.avgCfmPoints();
    std::printf("digest  : %s\n",
                harness::cellResultDigest(Local).hex().c_str());
  }

  if (const serialize::ArtifactCache *Cache = Options.Cache.get())
    std::fprintf(stderr,
                 "[cache] hits=%llu misses=%llu stores=%llu corrupt=%llu "
                 "store-failures=%llu orphans-reaped=%llu evicted=%llu "
                 "lock-contention=%llu\n",
                 static_cast<unsigned long long>(Cache->hits()),
                 static_cast<unsigned long long>(Cache->misses()),
                 static_cast<unsigned long long>(Cache->stores()),
                 static_cast<unsigned long long>(Cache->corruptDeletes()),
                 static_cast<unsigned long long>(Cache->failedStores()),
                 static_cast<unsigned long long>(Cache->orphansReaped()),
                 static_cast<unsigned long long>(Cache->evictions()),
                 static_cast<unsigned long long>(Cache->lockContention()));
  return guard::interrupted() ? exitcode::Interrupted : exitcode::Ok;
}
