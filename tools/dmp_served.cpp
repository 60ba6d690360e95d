//===- tools/dmp_served.cpp - The campaign-service daemon -----------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Long-lived campaign service: owns the content-addressed artifact cache
// and a pool of forked worker processes, and accepts campaign submissions
// from `dmpc --remote` over a Unix socket (see DESIGN.md "Service
// architecture" and serve/Protocol.h for the wire format).
//
// Usage:
//   dmp_served --socket PATH [options]
//
// `dmp_served --help` lists every option (worker count, cache, admission
// bounds, the hung-worker watchdog, durability).  Value flags take
// `--flag=V` or `--flag V`; a bad or unknown argument exits 2.
//
// Shutdown: SIGINT and SIGTERM both drain gracefully — stop accepting,
// shed pending cells, let in-flight cells finish, flush replies — and then
// exit 130 (SIGINT) or 143 (SIGTERM), so process supervisors can tell an
// operator interrupt from a managed stop.  A SHUTDOWN frame drains the
// same way and exits 0.
//
//===----------------------------------------------------------------------===//

#include "guard/Guard.h"
#include "harness/Engine.h"
#include "serve/Server.h"
#include "serve/WorkerPool.h"
#include "support/ExitCodes.h"
#include "support/Flags.h"

#include <csignal>
#include <cstdio>

using namespace dmp;

namespace {

struct DaemonOptions {
  std::string Socket;
  unsigned Workers = 2;
  std::string CacheDir = harness::EngineOptions::defaultCacheDir();
  bool UseCache = true;
  unsigned MaxJobs = 64;
  unsigned MaxCells = 256;
  unsigned CellAttempts = 3;
  unsigned CellWallMs = 0;
  unsigned MaxConns = 64;
  bool Durable = true;
  bool Quiet = false;
};

/// Parses argv into \p Opts; exits on --help and usage errors.
void parseArgs(int Argc, char **Argv, DaemonOptions &Opts) {
  FlagParser Flags("--socket PATH [options]");
  Flags
      .text("--socket", "PATH", Opts.Socket,
            "Unix socket to listen on (required)")
      .number("--workers", "N", Opts.Workers, 0, 64,
              "worker processes (default 2; 0 = in-process)")
      .text("--cache-dir", "DIR", Opts.CacheDir,
            "artifact cache shared by all workers (default\n"
            "$DMP_CACHE_DIR or .dmp-cache)")
      .set("--no-cache", Opts.UseCache, false, "run every cell uncached")
      .number("--max-jobs", "N", Opts.MaxJobs, 1, 100'000,
              "admission bound on concurrently active jobs\n"
              "(default 64); over-limit SUBMITs are rejected\n"
              "with ResourceExhausted")
      .number("--max-cells", "N", Opts.MaxCells, 1, serve::kMaxCellsPerSubmit,
              "admission bound on cells per job (default 256)")
      .number("--cell-attempts", "N", Opts.CellAttempts, 1, 100,
              "dispatch attempts per cell across worker crashes\n"
              "(default 3)")
      .number("--cell-wall-ms", "N", Opts.CellWallMs, 0, 86'400'000,
              "hung-worker watchdog: a busy worker silent (no\n"
              "CELL_PROGRESS heartbeat) for N ms is SIGKILLed\n"
              "and its cell retried (default 0 = off)")
      .number("--max-conns", "N", Opts.MaxConns, 1, 100'000,
              "accept cap; at the limit new connects shed the\n"
              "oldest idle connection or are refused (default 64)")
      .set("--no-durable", Opts.Durable, false,
           "do not checkpoint jobs to the cache; a restart\n"
           "forgets all in-flight work")
      .set("--quiet", Opts.Quiet, true, "suppress the per-event log lines")
      .parseOrExit(Argc, Argv);
  if (Opts.Socket.empty())
    Flags.usageError("--socket PATH is required");
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonOptions Opts;
  parseArgs(Argc, Argv, Opts);

  // Fork the workers BEFORE arming signal handlers: a worker must not
  // inherit the supervisor's drain semantics (it ignores SIGINT itself and
  // is drained by its socketpair closing).
  serve::WorkerPoolOptions PoolOpts;
  PoolOpts.Workers = Opts.Workers;
  PoolOpts.CacheDir = Opts.CacheDir;
  PoolOpts.UseCache = Opts.UseCache;
  serve::WorkerPool Pool(PoolOpts);

  guard::installSignalHandlers();

  serve::ServerOptions ServerOpts;
  ServerOpts.SocketPath = Opts.Socket;
  ServerOpts.MaxActiveJobs = Opts.MaxJobs;
  ServerOpts.MaxCellsPerJob = Opts.MaxCells;
  ServerOpts.CellAttempts = Opts.CellAttempts;
  ServerOpts.CellWallMs = Opts.CellWallMs;
  ServerOpts.MaxConns = Opts.MaxConns;
  ServerOpts.DurableJobs = Opts.Durable;
  ServerOpts.Quiet = Opts.Quiet;
  serve::Server Server(std::move(ServerOpts), Pool);

  if (Status S = Server.listen(); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
    return exitcode::Failure;
  }
  // The readiness line scripts wait for before connecting.
  std::printf("dmp_served: listening on %s (%u workers, cache %s)\n",
              Opts.Socket.c_str(), Pool.size(),
              Opts.UseCache ? Opts.CacheDir.c_str() : "off");
  std::fflush(stdout);

  const Status Run = Server.run();

  const serve::Server::Counters C = Server.counters();
  std::fprintf(stderr,
               "[serve] conns=%llu jobs=%llu rejected=%llu deduped=%llu "
               "recovered=%llu dispatched=%llu completed=%llu failed=%llu "
               "retried=%llu resumed=%llu crashes=%llu protocol-errors=%llu "
               "checkpoints=%llu hung=%llu heartbeats=%llu "
               "read-timeouts=%llu idle-drops=%llu slow-drops=%llu "
               "shed=%llu refused=%llu accept-errors=%llu\n",
               static_cast<unsigned long long>(C.ConnectionsAccepted),
               static_cast<unsigned long long>(C.JobsAccepted),
               static_cast<unsigned long long>(C.JobsRejected),
               static_cast<unsigned long long>(C.JobsDeduped),
               static_cast<unsigned long long>(C.JobsRecovered),
               static_cast<unsigned long long>(C.CellsDispatched),
               static_cast<unsigned long long>(C.CellsCompleted),
               static_cast<unsigned long long>(C.CellsFailed),
               static_cast<unsigned long long>(C.CellsRetried),
               static_cast<unsigned long long>(C.CellsResumed),
               static_cast<unsigned long long>(C.WorkerCrashes),
               static_cast<unsigned long long>(C.ProtocolErrors),
               static_cast<unsigned long long>(C.Checkpoints),
               static_cast<unsigned long long>(C.WorkersHung),
               static_cast<unsigned long long>(C.Heartbeats),
               static_cast<unsigned long long>(C.ReadTimeouts),
               static_cast<unsigned long long>(C.IdleDrops),
               static_cast<unsigned long long>(C.SlowConsumerDrops),
               static_cast<unsigned long long>(C.ConnsShed),
               static_cast<unsigned long long>(C.ConnsRefused),
               static_cast<unsigned long long>(C.AcceptErrors));

  if (!Run.ok()) {
    std::fprintf(stderr, "error: %s\n", Run.toString().c_str());
    return exitcode::Failure;
  }
  // A signal-initiated drain reports which signal: 130 for SIGINT, 143 for
  // SIGTERM (exitcode::Terminated), per the supervisor convention.
  if (guard::interrupted())
    return guard::lastSignal() == SIGTERM ? exitcode::Terminated
                                          : exitcode::Interrupted;
  return exitcode::Ok;
}
