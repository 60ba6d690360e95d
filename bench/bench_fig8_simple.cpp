//===- bench/bench_fig8_simple.cpp - Figure 8 reproduction --------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Regenerates Figure 8, "Performance improvement of DMP with alternative
// simple algorithms for selecting diverge branches": Every-br, Random-50,
// High-BP-5, Immediate, If-else versus All-best-heur.
//
// Paper shapes: the simple selectors cluster around +4-4.5% while
// All-best-heur reaches +20.4%; simple selectors do best on benchmarks
// whose mispredictions sit in simple hammocks (eon, perlbmk, li).
//
//===----------------------------------------------------------------------===//

#include "guard/Guard.h"
#include "harness/CellRun.h"
#include "harness/Engine.h"
#include "harness/Reports.h"

#include <cstdio>

using namespace dmp;

int main(int Argc, char **Argv) {
  guard::installSignalHandlers();
  const harness::EngineOptions EngineOpts =
      harness::EngineOptions::parseOrExit(Argc, Argv);
  harness::ExperimentEngine Engine(harness::ExperimentOptions(), EngineOpts);

  // Display name and the --algo name harness::selectByAlgo runs.
  struct Config {
    const char *Name;
    const char *Algo;
  };
  const Config Configs[] = {
      {"Every-br", "every-br"},   {"Random-50", "random-50"},
      {"High-BP-5", "high-bp-5"}, {"Immediate", "immediate"},
      {"If-else", "if-else"},     {"All-best-heur", "all"},
  };

  const std::vector<workloads::BenchmarkSpec> Suite =
      harness::limitSuite(workloads::specSuite(), EngineOpts);
  std::vector<std::string> Names;
  for (const Config &C : Configs)
    Names.push_back(C.Name);
  harness::CampaignJournal *Journal = Engine.journalFor(
      "fig8", harness::paramsDigest(Names), Suite.size(), std::size(Configs));
  const std::vector<std::vector<StatusOr<double>>> Matrix =
      Engine.runMatrix<double>(
          Suite, std::size(Configs),
          [&Configs](harness::Cell &C) {
            StatusOr<core::DivergeMap> Map = harness::selectByAlgo(
                C.Bench, Configs[C.Config].Algo, workloads::InputSetKind::Run);
            if (!Map.ok())
              throw StatusError(Map.status());
            const sim::SimStats Dmp = C.Bench.simulateWith(*Map);
            return harness::ipcImprovement(C.Bench.baseline(), Dmp);
          },
          harness::CellNeeds(), Journal, &harness::doubleCellCodec());

  harness::ImprovementReport Report(Names);
  for (size_t B = 0; B < Suite.size(); ++B)
    Report.addBenchmark(Suite[B].Name, Matrix[B]);

  std::printf("%s",
              Report
                  .render("== Figure 8: DMP IPC improvement with alternative "
                          "simple selection algorithms ==")
                  .c_str());
  return harness::finishDriver(Engine);
}
