//===- tools/dmp_lint.cpp - Batch static checker CLI ---------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Batch front end for the analyze:: static checker: build one or more
// synthetic workloads, profile them, run diverge-branch selection, and lint
// the program + profile + annotations through the standard pass pipeline
// (IRLint, AnnotationConsistency, CfmLegality, ProfileSanity).  With
// --map=FILE the annotations are read from a serialized diverge map
// instead of running selection, which is how externally produced (or
// corrupted) annotation files are vetted before simulation.
//
// Usage:
//   dmp_lint [options] [benchmark...]
//
// `dmp_lint --help` lists every option and the exit-code contract (0 clean,
// 1 diagnostics at gating severity, 2 usage error; support/ExitCodes.h).
// Value flags take `--flag=V` or `--flag V`, like every other tool.
//
//===----------------------------------------------------------------------===//

#include "analyze/Analyze.h"
#include "bench/BenchJson.h"
#include "core/AnnotationIO.h"
#include "dataflow/Meldability.h"
#include "harness/CellRun.h"
#include "support/ExitCodes.h"
#include "support/Flags.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace dmp;

namespace {

struct CliOptions {
  std::vector<std::string> Benchmarks;
  bool All = false;
  std::string Algo = "all";
  workloads::InputSetKind ProfileInput = workloads::InputSetKind::Run;
  std::string MapFile;
  bool MachineFormat = false;
  uint64_t ProfileInstrs = 4'000'000;
  unsigned MaxInstr = 50;
  double MinMergeProb = 0.01;
  bool WarningsAsErrors = false;
  bool MeldReport = false;
  bool Json = false;
};

/// Parses argv into \p Opts; exits on --help and usage errors.
void parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  FlagParser Flags(
      "[options] [benchmark...]",
      "Build the named synthetic workloads (all of them with --all, the\n"
      "default), profile them, run diverge-branch selection, and lint the\n"
      "program + profile + annotations through the standard analyze pass\n"
      "pipeline (IRLint, AnnotationConsistency, CfmLegality,\n"
      "PredicationSafety, ProfileSanity).",
      "Exit codes:\n"
      "  0  clean: no error diagnostics (and no warnings under --werror)\n"
      "  1  gating diagnostics: at least one error-severity finding, or\n"
      "     any warning when --werror is set\n"
      "  2  usage error: unknown option/benchmark/algorithm, invalid\n"
      "     option value, or unreadable --map file\n");
  Flags.set("--all", Opts.All, true, "lint every benchmark of the suite")
      .text("--algo", "NAME", Opts.Algo,
            "selection algorithm (dmpc's names; default all)")
      .choice("--profile-input", Opts.ProfileInput,
              {{"run", workloads::InputSetKind::Run},
               {"train", workloads::InputSetKind::Train}},
              "profiling input set (default run)")
      .text("--map", "FILE", Opts.MapFile,
            "lint FILE as the annotation set for the (single)\n"
            "named benchmark; also checks the serialized text\n"
            "for duplicate entries")
      .choice("--format", Opts.MachineFormat,
              {{"text", false}, {"machine", true}},
              "stderr diagnostic rendering (default text;\n"
              "machine is one tab-separated line per\n"
              "diagnostic: code, severity, function, block,\n"
              "addr, message)")
      .number("--profile-instrs", "N", Opts.ProfileInstrs, 1,
              std::numeric_limits<uint64_t>::max(),
              "profiler instruction budget (default 4000000)")
      .number("--max-instr", "N", Opts.MaxInstr, 1, 1'000'000,
              "selection MAX_INSTR (default 50)")
      .real("--min-merge-prob", "P", Opts.MinMergeProb, 0.0, 1.0,
            "selection MIN_MERGE_PROB (default 0.01)")
      .set("--werror", Opts.WarningsAsErrors, true,
           "warnings gate the exit code too")
      .set("--meld-report", Opts.MeldReport, true,
           "print the meldability TSV (one row per annotated\n"
           "branch, leading workload column) to stdout\n"
           "instead of linting; always exits 0 unless a\n"
           "usage error occurs")
      .set("--json", Opts.Json, true,
           "print one JSON snapshot of every diagnostic to\n"
           "stdout (schema dmp-bench/1, bench \"lint\");\n"
           "replaces the text summary, exit codes are\n"
           "unchanged")
      .operands("benchmark", Opts.Benchmarks)
      .parseOrExit(Argc, Argv);
  if (Opts.Benchmarks.empty())
    Opts.All = true;
  if (!Opts.MapFile.empty() && (Opts.All || Opts.Benchmarks.size() != 1))
    Flags.usageError("--map requires exactly one named benchmark");
  if (Opts.MeldReport && Opts.Json)
    Flags.usageError("--meld-report and --json both claim stdout; pick one");
}

/// Appends one diagnostics element to the --json snapshot's per-workload
/// array (caller opened the array).
void appendJsonWorkload(bench::BenchJson &Json,
                        const workloads::BenchmarkSpec &Spec,
                        const core::DivergeMap &Map,
                        const analyze::DiagnosticSink &Sink) {
  Json.beginElement();
  Json.string("name", Spec.Name);
  Json.integer("annotations", Map.size());
  Json.integer("errors", Sink.errorCount());
  Json.integer("warnings", Sink.warningCount());
  Json.beginArray("diagnostics");
  for (const analyze::Diagnostic &D : Sink.diagnostics()) {
    Json.beginElement();
    Json.string("code", analyze::diagCodeName(D.Code));
    Json.string("severity", analyze::severityName(D.Sev));
    Json.string("function", D.Loc.Function);
    Json.string("block", D.Loc.Block);
    if (D.Loc.Addr != ir::InvalidAddr)
      Json.integer("addr", D.Loc.Addr);
    Json.string("message", D.Message);
    Json.endElement();
  }
  Json.endArray();
  Json.endElement();
}

/// Lints one benchmark; returns false when diagnostics gate (errors, or
/// warnings under --werror).  With \p Json the snapshot element replaces
/// the stdout/stderr report; \p First gates the --meld-report header line.
bool lintBenchmark(const workloads::BenchmarkSpec &Spec,
                   const CliOptions &Opts, bool &UsageError,
                   bench::BenchJson *Json, bool First) {
  harness::ExperimentOptions Options;
  Options.Profile.MaxInstrs = Opts.ProfileInstrs;
  Options.Selection = Options.Selection.withMaxInstr(Opts.MaxInstr)
                          .withMinMergeProb(Opts.MinMergeProb);
  harness::BenchContext Bench(Spec, Options);

  analyze::DiagnosticSink Sink;
  core::DivergeMap Map;
  if (!Opts.MapFile.empty()) {
    std::ifstream In(Opts.MapFile);
    if (!In) {
      std::fprintf(stderr, "error: cannot read map file '%s'\n",
                   Opts.MapFile.c_str());
      UsageError = true;
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    const std::string Text = Buf.str();
    // Duplicate entries only exist in the serialized text: the in-memory
    // map collapses them at parse time.
    analyze::lintDivergeMapText(Text, Sink);
    const Status ParseStatus = core::parseDivergeMap(Text, Map);
    if (!ParseStatus.ok()) {
      std::fprintf(stderr, "%s: map parse failed: %s\n", Spec.Name,
                   ParseStatus.toString().c_str());
      return false;
    }
  } else {
    StatusOr<core::DivergeMap> Selected =
        harness::selectByAlgo(Bench, Opts.Algo, Opts.ProfileInput);
    if (!Selected.ok()) {
      std::fprintf(stderr, "error: unknown algorithm '%s'\n",
                   Opts.Algo.c_str());
      UsageError = true;
      return false;
    }
    Map = *std::move(Selected);
  }

  if (Opts.MeldReport) {
    const ir::Program &P = *Bench.workload().Prog;
    const dataflow::ProgramDataflow PD(P);
    const dataflow::MeldReport Report =
        dataflow::analyzeMeldability(P, Bench.analysis(), Map, PD);
    std::string Tsv =
        dataflow::renderMeldReportTsv(Report, {"workload"}, {Spec.Name});
    if (!First)
      Tsv.erase(0, Tsv.find('\n') + 1);
    std::fputs(Tsv.c_str(), stdout);
    return true;
  }

  analyze::AnalysisInput Input;
  Input.P = Bench.workload().Prog.get();
  Input.PA = &Bench.analysis();
  Input.Profile = &Bench.profileData(Opts.ProfileInput).Edges;
  Input.Annotations = &Map;
  analyze::lintAll(Input, &Sink);

  if (Json != nullptr) {
    appendJsonWorkload(*Json, Spec, Map, Sink);
  } else {
    if (!Sink.empty())
      std::fprintf(stderr, "%s",
                   Opts.MachineFormat ? Sink.renderMachine().c_str()
                                      : Sink.renderText().c_str());
    std::printf("%-10s %zu annotations: %s\n", Spec.Name, Map.size(),
                Sink.summaryLine().c_str());
  }
  if (Sink.errorCount() > 0)
    return false;
  if (Opts.WarningsAsErrors && Sink.warningCount() > 0)
    return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  parseArgs(Argc, Argv, Opts);

  std::vector<const workloads::BenchmarkSpec *> Specs;
  if (Opts.All) {
    for (const auto &Spec : workloads::specSuite())
      Specs.push_back(&Spec);
  } else {
    for (const std::string &Name : Opts.Benchmarks) {
      const workloads::BenchmarkSpec *Found = nullptr;
      for (const auto &Spec : workloads::specSuite())
        if (Name == Spec.Name)
          Found = &Spec;
      if (Found == nullptr) {
        std::fprintf(stderr, "error: unknown benchmark '%s'\n", Name.c_str());
        return exitcode::Usage;
      }
      Specs.push_back(Found);
    }
  }

  std::unique_ptr<bench::BenchJson> Json;
  if (Opts.Json) {
    Json = std::make_unique<bench::BenchJson>("lint");
    Json->string("algo", Opts.Algo);
    Json->string("profile_input",
                 Opts.ProfileInput == workloads::InputSetKind::Train ? "train"
                                                                     : "run");
    Json->boolean("werror", Opts.WarningsAsErrors);
    Json->beginArray("workloads");
  }

  bool AllClean = true;
  bool First = true;
  for (const workloads::BenchmarkSpec *Spec : Specs) {
    bool UsageError = false;
    if (!lintBenchmark(*Spec, Opts, UsageError, Json.get(), First)) {
      if (UsageError)
        return exitcode::Usage;
      AllClean = false;
    }
    First = false;
  }

  if (Json != nullptr) {
    Json->endArray();
    Json->boolean("clean", AllClean);
    Json->writeFile("/dev/stdout");
  }
  return AllClean ? exitcode::Ok : exitcode::Failure;
}
