//===- pipebench/Main.cpp - End-to-end benchmark of the DMP pipeline ------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Times the profile -> select -> simulate pipeline through the library's
// public entry points, on three workloads (see README.md for why each):
//
//   cold-cells     harness::runCellSpec, fresh artifact cache every pass
//   paper-matrix   harness::ExperimentEngine::runMatrix, 17 x 13, 2 threads
//   warm-replay    harness::runCellSpec against a cache set-up filled
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1
//   pipebench --self-test
//
// A run repeats whole passes over the workload's cells, each pass in an
// order drawn from the seed, until --seconds have passed; it then checks
// every result outside the timed passes and prints one JSON line last:
// the end-to-end metrics with --trace 0, the per-layer metrics of the
// stage-by-stage traced replay with --trace 1.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Pipeline.h"
#include "Trace.h"

#include "exec/TaskGraph.h"
#include "harness/Engine.h"
#include "support/ExitCodes.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <unistd.h>

using namespace dmp;
using namespace pipebench;

namespace {

const Clock::time_point ProcessStart = Clock::now();

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Host-speed probe
//===----------------------------------------------------------------------===//

/// A fixed, library-independent integer kernel (a small bytecode
/// interpreter over a 512 KiB data array) timed between units of work.
/// The host's speed drifts by tens of percent over seconds; the probe's
/// time next to each unit says how fast the host was just then, and
/// host-second metrics are scaled to the probe's nominal speed.  The
/// kernel shares nothing with src/, so a change to the library cannot move
/// the probe.
class HostProbe {
public:
  /// The probe's time at this machine's fast steady state (4-core KVM
  /// Xeon guest, Release build).
  static constexpr double kNominalSeconds = 0.00100;
  static constexpr uint64_t kIters = 430'000;

  HostProbe() {
    std::mt19937 G(0x5eed);
    Code.resize(kCodeWords);
    for (uint32_t &C : Code)
      C = static_cast<uint32_t>(G());
  }

  /// Runs the kernel once on the calling thread and records its time.
  double sample() {
    thread_local std::vector<int64_t> Mem(kMemWords, 3);
    const Clock::time_point Start = Clock::now();
    Sink.fetch_add(kernel(Mem), std::memory_order_relaxed);
    const double S = secondsSince(Start);
    std::lock_guard<std::mutex> Lock(Mutex);
    Samples.push_back(S);
    return S;
  }

  size_t mark() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Samples.size();
  }

  /// Median probe time since \p From over the nominal: 1.0 on the fast
  /// host, above it when the host runs slow.
  double slowness(size_t From) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (From == Samples.size())
      return 1.0;
    return median({Samples.begin() + From, Samples.end()}) / kNominalSeconds;
  }

  /// Total probe time since \p From (to take out of a wall interval the
  /// probe ran inside).
  double seconds(size_t From) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    double Sum = 0.0;
    for (size_t I = From; I < Samples.size(); ++I)
      Sum += Samples[I];
    return Sum;
  }

private:
  static constexpr uint32_t kCodeWords = 4096;
  static constexpr uint64_t kMemWords = 65536;

  int64_t kernel(std::vector<int64_t> &Mem) const {
    int64_t R[16];
    for (int I = 0; I < 16; ++I)
      R[I] = I * 7 + 1;
    uint32_t PC = 0;
    for (uint64_t I = 0; I < kIters; ++I) {
      const uint32_t C = Code[PC];
      const unsigned A = (C >> 3) & 15, B = (C >> 7) & 15, D = (C >> 11) & 15;
      uint32_t Next = (PC + 1) & (kCodeWords - 1);
      switch (C & 7) {
      case 0:
        R[A] = R[B] + R[D];
        break;
      case 1:
        R[A] = R[B] ^ static_cast<int64_t>(static_cast<uint64_t>(R[D]) << 1);
        break;
      case 2:
        R[A] = static_cast<int64_t>(static_cast<uint64_t>(R[B]) * 3 + 1);
        break;
      case 3:
        R[A] = Mem[static_cast<uint64_t>(R[B]) & (kMemWords - 1)];
        break;
      case 4:
        Mem[static_cast<uint64_t>(R[D]) & (kMemWords - 1)] = R[A];
        break;
      case 5:
        R[A] = static_cast<int64_t>(static_cast<uint64_t>(R[B]) -
                                    static_cast<uint64_t>(R[D]));
        break;
      default:
        if ((R[A] ^ R[B]) & 1)
          Next = (C >> 15) & (kCodeWords - 1);
        break;
      }
      PC = Next;
    }
    return R[0] + R[1];
  }

  std::vector<uint32_t> Code;
  std::atomic<int64_t> Sink{0};
  mutable std::mutex Mutex;
  std::vector<double> Samples;
};

//===----------------------------------------------------------------------===//
// Run state and helpers
//===----------------------------------------------------------------------===//

/// A directory under the checkout that holds a run's artifact caches,
/// removed when the run ends however it ends.
class TempDir {
public:
  TempDir() {
    Path = formatString(".bench_build/tmp/pipebench-%d",
                        static_cast<int>(::getpid()));
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;
  std::string Path;
};

struct Run {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  Tracer *T = nullptr; ///< Null in the untimed (end-to-end) run.
  std::string Tmp;
  HostProbe Probe;
};

/// What a run measured; times are host-speed corrected (see HostProbe)
/// and the raw figures are kept for the stderr summary.
struct Outcome {
  double SetupS = 0.0, RawSetupS = 0.0;
  std::vector<double> Rates, RawRates; ///< cells/s, one per pass
  uint64_t Attempted = 0, Failed = 0;
  double PeakRssMb = 0.0;
  /// Canonical-order results: the cold set-up campaign's for warm-replay,
  /// the first pass's otherwise.
  std::vector<harness::CellResult> Results;
  std::vector<serialize::Digest> Want;
  std::vector<std::string> Errors;
};

/// A permutation of [0, N) drawn from (seed, pass, salt).
std::vector<size_t> order(size_t N, uint64_t Seed, uint64_t Pass,
                          uint64_t Salt = 0) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = I;
  std::mt19937_64 G(Seed * 0x9E3779B97F4A7C15ull + Pass * 1000003 + Salt);
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[G() % I]);
  return P;
}

/// This process's VmHWM in MiB, 0 when unreadable.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// Files one pass's outcomes (indexed by canonical cell) into \p Out:
/// counts attempts and failures, and checks every digest against the
/// reference digests (the first pass's, unless set-up already set them).
void recordPass(Outcome &Out, const std::string &What,
                std::vector<StatusOr<harness::CellResult>> &Pass) {
  Out.Attempted += Pass.size();
  const bool First = Out.Want.empty();
  if (First) {
    Out.Want.resize(Pass.size());
    Out.Results.resize(Pass.size());
  }
  for (size_t I = 0; I < Pass.size(); ++I) {
    if (!Pass[I].ok()) {
      ++Out.Failed;
      std::fprintf(stderr, "pipebench: %s cell %zu failed: %s\n",
                   What.c_str(), I, Pass[I].status().toString().c_str());
      continue;
    }
    const serialize::Digest D = harness::cellResultDigest(*Pass[I]);
    if (First) {
      Out.Want[I] = D;
      Out.Results[I] = *Pass[I];
    } else if (std::string E = checkDigests({D}, {Out.Want[I]}, What);
               !E.empty()) {
      Out.Errors.push_back(formatString("cell %zu: ", I) + E);
    }
  }
}

/// Runs \p Pass(k) for k = 0, 1, ... until the run's seconds are spent.
/// Each pass returns {raw seconds, host slowness} for its cells.  Peak
/// memory is read after the first pass, so it does not depend on how many
/// passes the host's speed allowed.
template <typename PassFn>
void timedPasses(Run &R, Outcome &Out, size_t Cells, PassFn Pass) {
  const Clock::time_point Start = Clock::now();
  size_t K = 0;
  do {
    const auto [Raw, Slow] = Pass(K++);
    Out.RawRates.push_back(static_cast<double>(Cells) / Raw);
    Out.Rates.push_back(static_cast<double>(Cells) * Slow / Raw);
    if (K == 1)
      Out.PeakRssMb = peakRssMb();
  } while (secondsSince(Start) < R.Seconds);
}

/// Closes set-up: \p From is the probe mark before set-up's first sample,
/// and the probes ran spread over \p Threads threads.
void endSetup(Run &R, Outcome &Out, size_t From, unsigned Threads) {
  Out.RawSetupS =
      secondsSince(ProcessStart) - R.Probe.seconds(From) / Threads;
  Out.SetupS = Out.RawSetupS / R.Probe.slowness(From);
}

StatusOr<harness::CellResult> tracedCell(const harness::CellSpec &Spec,
                                         serialize::ArtifactCache *Cache,
                                         Tracer *T, uint32_t Id) {
  try {
    return replayCell(Spec, StageCtx{T, Id, Cache});
  } catch (const StatusError &E) {
    return E.status();
  } catch (const std::exception &E) {
    return Status::invariant(E.what(), "pipebench");
  }
}

/// The engine campaign cell of paper-matrix and of warm-replay's set-up: selectByAlgo + the shared baseline + the DMP simulation, as
/// runCellSpec computes them.
harness::CellResult engineCell(HostProbe &Probe, harness::Cell &C,
                               const std::string &Algo) {
  Probe.sample();
  StatusOr<core::DivergeMap> Map =
      harness::selectByAlgo(C.Bench, Algo, workloads::InputSetKind::Run);
  if (!Map.ok())
    throw StatusError(Map.status());
  const sim::SimStats Dmp = C.Bench.simulateWith(*Map);
  return makeResult(C.Bench.baseline(), Dmp, *Map);
}

/// One paper-matrix campaign through the engine, in the order of pass
/// \p K; \p CacheDir empty runs uncached.  Results land in canonical
/// order.  Returns the wall seconds less the probe's share.
double engineCampaign(Run &R, size_t K, unsigned Jobs,
                      const std::string &CacheDir,
                      const std::vector<workloads::BenchmarkSpec> &Suite,
                      std::vector<StatusOr<harness::CellResult>> &Out) {
  const std::vector<std::string> &Algos = algoNames();
  const std::vector<size_t> BenchOrder = order(Suite.size(), R.Seed, K, 1);
  const std::vector<size_t> AlgoOrder = order(Algos.size(), R.Seed, K, 2);
  std::vector<workloads::BenchmarkSpec> Specs;
  for (size_t B : BenchOrder)
    Specs.push_back(Suite[B]);

  const size_t From = R.Probe.mark();
  const Clock::time_point Start = Clock::now();
  guard::CancelToken NeverDrain;
  harness::EngineOptions E;
  E.Jobs = Jobs;
  E.UseCache = !CacheDir.empty();
  E.CacheDir = CacheDir;
  E.DrainToken = &NeverDrain;
  std::vector<std::vector<StatusOr<harness::CellResult>>> Matrix;
  {
    harness::ExperimentEngine Engine(harness::ExperimentOptions(), E);
    Matrix = Engine.runMatrix<harness::CellResult>(
        Specs, Algos.size(), [&](harness::Cell &C) {
          return engineCell(R.Probe, C, Algos[AlgoOrder[C.Config]]);
        });
  }
  const double Wall =
      secondsSince(Start) - R.Probe.seconds(From) / std::max(1u, Jobs);
  Out.assign(Suite.size() * Algos.size(), StatusOr<harness::CellResult>());
  for (size_t B = 0; B < Specs.size(); ++B)
    for (size_t C = 0; C < Algos.size(); ++C)
      Out[BenchOrder[B] * Algos.size() + AlgoOrder[C]] =
          std::move(Matrix[B][C]);
  return Wall;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

constexpr unsigned kThreads = 2;

/// Set-up of cold-cells and paper-matrix warms the process (allocator,
/// code pages, lazily built tables) with the cells of the suite's first
/// few benchmarks, untimed, so every timed pass sees the same warm process.
/// The same benchmarks for every seed, so set-up does the same work.
std::vector<workloads::BenchmarkSpec> warmupSuite() {
  const std::vector<workloads::BenchmarkSpec> &Suite = workloads::specSuite();
  return {Suite.begin(), Suite.begin() + 4};
}

void runColdCells(Run &R, Outcome &Out) {
  const std::vector<harness::CellSpec> Cells = coldCells();
  const size_t SetupFrom = R.Probe.mark();
  {
    auto Cache = std::make_shared<serialize::ArtifactCache>(R.Tmp + "/warmup");
    for (const workloads::BenchmarkSpec &B : warmupSuite())
      for (const harness::CellSpec &Cell : Cells)
        if (Cell.Benchmark == B.Name) {
          R.Probe.sample();
          if (StatusOr<harness::CellResult> Res = harness::runCellSpec(Cell, Cache);
              !Res.ok())
            throw StatusError(Res.status());
        }
    Cache.reset();
    std::filesystem::remove_all(R.Tmp + "/warmup");
  }
  endSetup(R, Out, SetupFrom, 1);
  timedPasses(R, Out, Cells.size(), [&](size_t K) {
    const std::string Dir = R.Tmp + "/cold-" + std::to_string(K);
    auto Cache = std::make_shared<serialize::ArtifactCache>(Dir);
    std::vector<StatusOr<harness::CellResult>> Pass(Cells.size());
    const size_t From = R.Probe.mark();
    double Raw = 0.0;
    for (size_t I : order(Cells.size(), R.Seed, K)) {
      R.Probe.sample();
      const Clock::time_point Start = Clock::now();
      Pass[I] = R.T ? tracedCell(Cells[I], Cache.get(), R.T,
                                 static_cast<uint32_t>(I))
                    : harness::runCellSpec(Cells[I], Cache);
      Raw += secondsSince(Start);
    }
    const double Slow = R.Probe.slowness(From);
    Cache.reset();
    std::filesystem::remove_all(Dir);
    recordPass(Out, "cold-cells pass " + std::to_string(K), Pass);
    return std::pair{Raw, Slow};
  });
}

/// The traced replay of one engine campaign: the same stage functions the
/// engine's tasks call, with the same dependency edges, on an
/// exec::ThreadPool of the same size.
double tracedMatrix(Run &R, size_t K,
                    std::vector<StatusOr<harness::CellResult>> &Out) {
  const std::vector<workloads::BenchmarkSpec> &Suite = workloads::specSuite();
  const std::vector<std::string> &Algos = algoNames();
  const std::vector<harness::CellSpec> Cells = matrixCells();
  const harness::ExperimentOptions Options = optionsFor(Cells.front());
  std::vector<Prepared> Preps(Suite.size());
  std::vector<profile::ProfileData> Profiles(Suite.size());
  std::vector<sim::SimStats> Baselines(Suite.size());
  Out.assign(Cells.size(), StatusOr<harness::CellResult>());
  std::atomic<int64_t> BusyNs{0};
  auto Task = [&](std::function<void()> Fn) {
    return [&BusyNs, Fn = std::move(Fn)] {
      const Clock::time_point Start = Clock::now();
      Fn();
      BusyNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Start)
                    .count();
    };
  };

  const size_t From = R.Probe.mark();
  const Clock::time_point Start = Clock::now();
  {
    exec::ThreadPool Pool(kThreads);
    exec::TaskGraph Graph;
    for (size_t B : order(Suite.size(), R.Seed, K, 1)) {
      const uint32_t Id = static_cast<uint32_t>(B * Algos.size());
      const auto Build = Graph.add(Task([&, B, Id] {
        Preps[B] = prepare(Suite[B], StageCtx{R.T, Id, nullptr});
      }));
      const auto Prof = Graph.add(Task([&, B, Id] {
        Profiles[B] = profileStage(Preps[B], workloads::InputSetKind::Run,
                                   Options, StageCtx{R.T, Id, nullptr});
      }),
                                  {Build});
      const auto Base = Graph.add(Task([&, B, Id] {
        Baselines[B] =
            baselineStage(Preps[B], Options, StageCtx{R.T, Id, nullptr});
      }),
                                  {Build});
      for (size_t A : order(Algos.size(), R.Seed, K, 2)) {
        const size_t I = B * Algos.size() + A;
        Graph.add(Task([&, B, A, I] {
          R.Probe.sample();
          const StageCtx Ctx{R.T, static_cast<uint32_t>(I), nullptr};
          ScopedSpan Cell(R.T, "harness.cell", Ctx.Cell);
          const core::DivergeMap Map =
              selectStage(Preps[B], Algos[A], Profiles[B], Options, Ctx);
          const sim::SimStats Dmp = dmpStage(Preps[B], Map, Options, Ctx);
          Out[I] = makeResult(Baselines[B], Dmp, Map);
        }),
                  {Prof, Base});
      }
    }
    for (const Status &S : Graph.runAll(Pool))
      if (!S.ok())
        throw StatusError(S);
  }
  const double Probes = R.Probe.seconds(From);
  const double Wall = secondsSince(Start) - Probes / kThreads;
  const double BusyMs = static_cast<double>(BusyNs.load()) / 1e6 - Probes * 1e3;
  R.T->count("exec.busy_ms", BusyMs);
  R.T->count("exec.idle_ms", kThreads * Wall * 1e3 - BusyMs);
  return Wall;
}

void runPaperMatrix(Run &R, Outcome &Out) {
  const std::vector<harness::CellSpec> Cells = matrixCells();
  const size_t SetupFrom = R.Probe.mark();
  {
    std::vector<StatusOr<harness::CellResult>> Warmup;
    engineCampaign(R, 0, kThreads, "", warmupSuite(), Warmup);
  }
  endSetup(R, Out, SetupFrom, kThreads);
  timedPasses(R, Out, Cells.size(), [&](size_t K) {
    std::vector<StatusOr<harness::CellResult>> Pass;
    const size_t From = R.Probe.mark();
    const double Raw = R.T ? tracedMatrix(R, K, Pass)
                           : engineCampaign(R, K, kThreads, "",
                                            workloads::specSuite(), Pass);
    const double Slow = R.Probe.slowness(From);
    recordPass(Out, "paper-matrix pass " + std::to_string(K), Pass);
    return std::pair{Raw, Slow};
  });
  if (R.T)
    return;

  // Thread-count independence: two benchmarks, drawn from the seed, on
  // one thread.
  std::vector<workloads::BenchmarkSpec> Two;
  const std::vector<size_t> Pick =
      order(workloads::specSuite().size(), R.Seed, 0, 3);
  for (size_t I = 0; I < 2; ++I)
    Two.push_back(workloads::specSuite()[Pick[I]]);
  std::vector<StatusOr<harness::CellResult>> Single;
  engineCampaign(R, 0, 1, "", Two, Single);
  const size_t A = algoNames().size();
  for (size_t I = 0; I < 2 * A; ++I) {
    const size_t Canon = Pick[I / A] * A + I % A;
    if (!Single[I].ok())
      Out.Errors.push_back("one-thread campaign cell failed: " +
                           Single[I].status().toString());
    else if (std::string E = checkDigests(
                 {harness::cellResultDigest(*Single[I])}, {Out.Want[Canon]},
                 "paper-matrix on one thread vs two");
             !E.empty())
      Out.Errors.push_back(E);
  }
}

void runWarmReplay(Run &R, Outcome &Out) {
  const std::vector<harness::CellSpec> Cells = matrixCells();
  const std::string CacheDir = R.Tmp + "/cache";
  // Set-up: the cold engine campaign that fills the cache; its results are
  // the reference every replayed cell must match.
  const size_t SetupFrom = R.Probe.mark();
  std::vector<StatusOr<harness::CellResult>> Cold;
  engineCampaign(R, 0, kThreads, CacheDir, workloads::specSuite(), Cold);
  for (const StatusOr<harness::CellResult> &C : Cold)
    if (!C.ok())
      throw StatusError(C.status());
  recordPass(Out, "cold campaign", Cold);
  Out.Attempted = 0;
  auto Cache = std::make_shared<serialize::ArtifactCache>(CacheDir);
  endSetup(R, Out, SetupFrom, kThreads);
  timedPasses(R, Out, Cells.size(), [&](size_t K) {
    std::vector<StatusOr<harness::CellResult>> Pass(Cells.size());
    const std::vector<size_t> Order = order(Cells.size(), R.Seed, K);
    const size_t From = R.Probe.mark();
    R.Probe.sample();
    const Clock::time_point Start = Clock::now();
    for (size_t I : Order)
      Pass[I] = R.T ? tracedCell(Cells[I], Cache.get(), R.T,
                                 static_cast<uint32_t>(I))
                    : harness::runCellSpec(Cells[I], Cache);
    const double Raw = secondsSince(Start);
    R.Probe.sample();
    const double Slow = R.Probe.slowness(From);
    recordPass(Out, "warm-replay pass " + std::to_string(K), Pass);
    return std::pair{Raw, Slow};
  });
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

double geomeanSpeedup(const std::vector<harness::CellResult> &Results) {
  double LogSum = 0.0;
  size_t N = 0;
  for (const harness::CellResult &C : Results)
    if (C.Baseline.ipc() > 0.0 && C.Dmp.ipc() > 0.0) {
      LogSum += std::log(C.Dmp.ipc() / C.Baseline.ipc());
      ++N;
    }
  return N ? std::exp(LogSum / static_cast<double>(N)) : 0.0;
}

std::vector<Metric> endToEnd(const Outcome &Out) {
  return {{"setup_s", Out.SetupS, "s"},
          {"cells_per_s", median(Out.Rates), "cells/s"},
          {"peak_rss_mb", Out.PeakRssMb, "MB"},
          {"dmp_speedup", geomeanSpeedup(Out.Results), "x"}};
}

std::vector<Metric> perLayer(const Run &R, const Outcome &Out) {
  std::map<std::string, double> Self = R.T->selfTimesMs();
  std::map<std::string, double> Count = R.T->counters();
  const double Passes = static_cast<double>(Out.Rates.size());
  auto PerPass = [&](std::map<std::string, double> &M, const char *Key) {
    return M[Key] / Passes;
  };
  auto Rate = [&](const char *Instrs, std::initializer_list<const char *> Ms) {
    double Sum = 0.0;
    for (const char *K : Ms)
      Sum += Self[K];
    return Sum > 0.0 ? Count[Instrs] / Sum / 1e3 : 0.0;
  };

  sim::SimStats Base, Dmp;
  double Branches = 0.0, CfmPoints = 0.0;
  for (const harness::CellResult &C : Out.Results) {
    Base.Cycles += C.Baseline.Cycles;
    Dmp.Cycles += C.Dmp.Cycles;
    Dmp.RetiredInstrs += C.Dmp.RetiredInstrs;
    Dmp.Flushes += C.Dmp.Flushes;
    Dmp.DpredEntries += C.Dmp.DpredEntries;
    Dmp.DpredMerged += C.Dmp.DpredMerged;
    Dmp.DpredSavedFlushes += C.Dmp.DpredSavedFlushes;
    Dmp.UselessDpredInstrs += C.Dmp.UselessDpredInstrs;
    Dmp.SelectUops += C.Dmp.SelectUops;
    Branches += static_cast<double>(C.DivergeBranches);
    CfmPoints += C.AvgCfmPoints * static_cast<double>(C.DivergeBranches);
  }
  auto PerKilo = [&](uint64_t V) {
    return Dmp.RetiredInstrs
               ? 1000.0 * static_cast<double>(V) /
                     static_cast<double>(Dmp.RetiredInstrs)
               : 0.0;
  };

  return {
      {"workloads.build_ms", PerPass(Self, "workloads.build"), "ms"},
      {"cfg.analysis_ms", PerPass(Self, "cfg.analysis"), "ms"},
      {"profile.ms", PerPass(Self, "profile"), "ms"},
      {"profile.minstr_per_s", Rate("profile.instrs", {"profile"}), "Minstr/s"},
      {"profile.instrs", PerPass(Count, "profile.instrs"), "instrs"},
      {"core.select_ms", PerPass(Self, "core.select"), "ms"},
      {"core.diverge_branches", Branches, "count"},
      {"core.cfm_points_avg", Branches > 0 ? CfmPoints / Branches : 0.0,
       "count"},
      {"sim.baseline_ms", PerPass(Self, "sim.baseline"), "ms"},
      {"sim.dmp_ms", PerPass(Self, "sim.dmp"), "ms"},
      {"sim.minstr_per_s", Rate("sim.instrs", {"sim.baseline", "sim.dmp"}),
       "Minstr/s"},
      {"sim.baseline_cycles", static_cast<double>(Base.Cycles), "cycles"},
      {"sim.dmp_cycles", static_cast<double>(Dmp.Cycles), "cycles"},
      {"sim.flushes_per_kinstr", PerKilo(Dmp.Flushes), "1/kinstr"},
      {"sim.dpred_entries", static_cast<double>(Dmp.DpredEntries), "count"},
      {"sim.dpred_merged", static_cast<double>(Dmp.DpredMerged), "count"},
      {"sim.saved_flushes", static_cast<double>(Dmp.DpredSavedFlushes),
       "count"},
      {"sim.useless_dpred_per_kinstr", PerKilo(Dmp.UselessDpredInstrs),
       "1/kinstr"},
      {"sim.select_uops_per_kinstr", PerKilo(Dmp.SelectUops), "1/kinstr"},
      {"serialize.key_ms", PerPass(Self, "serialize.key"), "ms"},
      {"serialize.load_ms", PerPass(Self, "serialize.load"), "ms"},
      {"serialize.decode_ms", PerPass(Self, "serialize.decode"), "ms"},
      {"serialize.hits", PerPass(Count, "serialize.hits"), "count"},
      {"serialize.bytes_read", PerPass(Count, "serialize.bytes_read"),
       "bytes"},
      {"serialize.store_ms", PerPass(Self, "serialize.store"), "ms"},
      {"serialize.misses", PerPass(Count, "serialize.misses"), "count"},
      {"serialize.bytes_written", PerPass(Count, "serialize.bytes_written"),
       "bytes"},
      {"harness.cell_overhead_ms", PerPass(Self, "harness.cell"), "ms"},
      {"exec.busy_ms", PerPass(Count, "exec.busy_ms"), "ms"},
      {"exec.idle_ms", PerPass(Count, "exec.idle_ms"), "ms"},
  };
}

void printResult(bool Correct, const Outcome &Out,
                 const std::vector<Metric> &Metrics) {
  std::string Json = formatString(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      Correct ? "true" : "false",
      static_cast<unsigned long long>(Out.Attempted),
      static_cast<unsigned long long>(Out.Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    Json += formatString("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         I ? ", " : "", Metrics[I].Name.c_str(),
                         Metrics[I].Value, Metrics[I].Unit);
  Json += "}}";
  std::printf("%s\n", Json.c_str());
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

void usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload cold-cells|paper-matrix|"
               "warm-replay --seed N --seconds S --trace 0|1\n"
               "       pipebench --self-test\n");
}

bool parseU64(const char *S, uint64_t &Out) {
  if (!S || !*S || *S < '0' || *S > '9')
    return false;
  errno = 0;
  char *End = nullptr;
  const unsigned long long V = std::strtoull(S, &End, 10);
  if (errno != 0 || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Run R;
  uint64_t Seconds = 10, Trace = 0;
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    const char *Value = I + 1 < Argc ? Argv[I + 1] : nullptr;
    bool Ok = true;
    if (Flag == "--self-test")
      SelfTest = true;
    else if (Flag == "--workload" && Value)
      R.Workload = Argv[++I];
    else if (Flag == "--seed")
      Ok = parseU64(Value, R.Seed);
    else if (Flag == "--seconds")
      Ok = parseU64(Value, Seconds) && Seconds >= 1;
    else if (Flag == "--trace")
      Ok = parseU64(Value, Trace) && Trace <= 1;
    else
      Ok = false;
    if (Flag == "--seed" || Flag == "--seconds" || Flag == "--trace")
      ++I;
    if (!Ok) {
      std::fprintf(stderr, "pipebench: bad argument '%s'\n", Flag.c_str());
      usage();
      return exitcode::Usage;
    }
  }
  R.Seconds = static_cast<double>(Seconds);

  using WorkloadFn = void (*)(Run &, Outcome &);
  const std::map<std::string, WorkloadFn> Workloads = {
      {"cold-cells", runColdCells},
      {"paper-matrix", runPaperMatrix},
      {"warm-replay", runWarmReplay}};
  const auto It = Workloads.find(R.Workload);
  if (!SelfTest && It == Workloads.end()) {
    usage();
    return exitcode::Usage;
  }

  try {
    TempDir Tmp;
    R.Tmp = Tmp.Path;
    if (SelfTest)
      return runSelfTest(R.Tmp) == 0 ? exitcode::Ok : exitcode::Failure;

    Tracer Spans;
    if (Trace)
      R.T = &Spans;
    Outcome Out;
    It->second(R, Out);

    const bool Cold = R.Workload == "cold-cells";
    const std::vector<harness::CellSpec> Cells =
        Cold ? coldCells() : matrixCells();
    if (R.T && (Cold || R.Workload == "paper-matrix")) {
      // The traced replay must reproduce the library's own results.
      std::vector<StatusOr<harness::CellResult>> Lib(Cells.size());
      if (Cold) {
        auto Cache =
            std::make_shared<serialize::ArtifactCache>(R.Tmp + "/untraced");
        for (size_t I = 0; I < Cells.size(); ++I)
          Lib[I] = harness::runCellSpec(Cells[I], Cache);
      } else {
        engineCampaign(R, 0, kThreads, "", workloads::specSuite(), Lib);
      }
      for (size_t I = 0; I < Cells.size(); ++I)
        if (std::string E = Lib[I].ok()
                                ? checkDigests(
                                      {harness::cellResultDigest(*Lib[I])},
                                      {Out.Want[I]}, "traced vs untraced")
                                : Lib[I].status().toString();
            !E.empty())
          Out.Errors.push_back(formatString("cell %zu: ", I) + E);
    }
    for (std::string &E : checkCells(Cells, Out.Want, kThreads))
      Out.Errors.push_back(std::move(E));
    for (const std::string &E : Out.Errors)
      std::fprintf(stderr, "pipebench: check failed: %s\n", E.c_str());
    std::fprintf(stderr,
                 "pipebench: %s seed=%llu passes=%zu raw_setup_s=%.4f "
                 "raw_cells_per_s=%.2f corrected_cells_per_s=%.2f "
                 "probe_median_ms=%.4f%s\n",
                 R.Workload.c_str(), static_cast<unsigned long long>(R.Seed),
                 Out.Rates.size(), Out.RawSetupS, median(Out.RawRates),
                 median(Out.Rates),
                 R.Probe.slowness(0) * HostProbe::kNominalSeconds * 1e3,
                 R.T ? " (traced)" : "");
    if (R.T) {
      const std::string Dir = ".bench_build/pipebench-trace";
      std::filesystem::create_directories(Dir);
      const std::string Path = formatString(
          "%s/%s.seed%llu.spans.tsv", Dir.c_str(), R.Workload.c_str(),
          static_cast<unsigned long long>(R.Seed));
      if (!Spans.writeTsv(Path))
        Out.Errors.push_back("cannot write " + Path);
    }
    printResult(Out.Errors.empty(), Out,
                R.T ? perLayer(R, Out) : endToEnd(Out));
    return exitcode::Ok;
  } catch (const StatusError &E) {
    std::fprintf(stderr, "pipebench: %s\n", E.status().toString().c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "pipebench: %s\n", E.what());
  }
  return exitcode::Failure;
}
