//===- bench/bench_fig6_flushes.cpp - Figure 6 reproduction -------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Regenerates Figure 6, "Pipeline flushes due to branch mispredictions in
// the baseline and DMP": flushes per kilo-instruction for the baseline
// processor and for DMP under each cumulative selection configuration.
// The paper's shape: flushes decrease monotonically as selection techniques
// are added.
//
//===----------------------------------------------------------------------===//

#include "guard/Guard.h"
#include "harness/Engine.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>

using namespace dmp;

int main(int Argc, char **Argv) {
  guard::installSignalHandlers();
  const harness::EngineOptions EngineOpts =
      harness::EngineOptions::parseOrExit(Argc, Argv);
  harness::ExperimentEngine Engine(harness::ExperimentOptions(), EngineOpts);

  // Column 0 is the baseline processor; the rest are DMP under each
  // cumulative selection configuration.
  struct Config {
    const char *Name;
    core::SelectionFeatures Features;
  };
  const Config Configs[] = {
      {"baseline", {}},
      {"exact", core::SelectionFeatures::exactOnly()},
      {"+freq", core::SelectionFeatures::exactFreq()},
      {"+short", core::SelectionFeatures::exactFreqShort()},
      {"+ret", core::SelectionFeatures::exactFreqShortRet()},
      {"+loop", core::SelectionFeatures::allBestHeur()},
  };

  const std::vector<workloads::BenchmarkSpec> Suite =
      harness::limitSuite(workloads::specSuite(), EngineOpts);
  std::vector<std::string> ConfigNames;
  for (const Config &C : Configs)
    ConfigNames.push_back(C.Name);
  harness::CampaignJournal *Journal =
      Engine.journalFor("fig6", harness::paramsDigest(ConfigNames),
                        Suite.size(), std::size(Configs));
  const std::vector<std::vector<StatusOr<double>>> Matrix =
      Engine.runMatrix<double>(
          Suite, std::size(Configs),
          [&Configs](harness::Cell &C) {
            if (C.Config == 0)
              return C.Bench.baseline().flushesPerKiloInstr();
            return C.Bench.runSelection(Configs[C.Config].Features)
                .flushesPerKiloInstr();
          },
          harness::CellNeeds(), Journal, &harness::doubleCellCodec());

  std::vector<std::string> Header = {"benchmark"};
  for (const Config &C : Configs)
    Header.push_back(C.Name);
  Table T(Header);

  std::vector<double> Sums(std::size(Configs), 0.0);
  std::vector<size_t> Counts(std::size(Configs), 0);
  for (size_t B = 0; B < Suite.size(); ++B) {
    std::vector<std::string> Row = {Suite[B].Name};
    for (size_t I = 0; I < std::size(Configs); ++I) {
      // A failed cell (the baseline's too) is an explicit gap; the
      // average skips it.
      if (Matrix[B][I].ok()) {
        Row.push_back(formatDouble(*Matrix[B][I], 2));
        Sums[I] += *Matrix[B][I];
        ++Counts[I];
      } else {
        Row.push_back("--");
      }
    }
    T.addRow(Row);
  }

  T.addSeparator();
  std::vector<std::string> Mean = {"average"};
  for (size_t I = 0; I < std::size(Configs); ++I)
    Mean.push_back(Counts[I] == 0 ? "--" : formatDouble(Sums[I] / Counts[I], 2));
  T.addRow(Mean);

  std::printf("== Figure 6: pipeline flushes per kilo-instruction, baseline "
              "vs DMP ==\n");
  T.print();
  return harness::finishDriver(Engine);
}
