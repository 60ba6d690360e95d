//===- support/Flags.cpp - Strict command-line flag parsing ---------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"

#include "support/ExitCodes.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace dmp;

namespace {

bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// Column the help text of each flag starts at.
constexpr size_t kHelpColumn = 26;

} // namespace

std::optional<uint64_t> dmp::parseDecimal(std::string_view Text, uint64_t Min,
                                          uint64_t Max) {
  if (Text.empty())
    return std::nullopt;
  uint64_t V = 0;
  for (const char C : Text) {
    if (!isDigit(C))
      return std::nullopt;
    const uint64_t D = static_cast<uint64_t>(C - '0');
    if (V > (std::numeric_limits<uint64_t>::max() - D) / 10)
      return std::nullopt;
    V = V * 10 + D;
  }
  if (V < Min || V > Max)
    return std::nullopt;
  return V;
}

std::optional<double> dmp::parseDecimalReal(std::string_view Text, double Min,
                                            double Max) {
  size_t Digits = 0, Points = 0;
  for (const char C : Text) {
    if (isDigit(C))
      ++Digits;
    else if (C == '.')
      ++Points;
    else
      return std::nullopt;
  }
  if (Digits == 0 || Points > 1)
    return std::nullopt;
  // The syntax is checked above, so strtod reads exactly Text; it only
  // decides the rounding and reports overflow.
  const std::string Owned(Text);
  errno = 0;
  const double V = std::strtod(Owned.c_str(), nullptr);
  if (errno == ERANGE || !std::isfinite(V) || V < Min || V > Max)
    return std::nullopt;
  return V;
}

FlagParser::FlagParser(std::string Synopsis, std::string About,
                       std::string Epilogue)
    : Synopsis(std::move(Synopsis)), About(std::move(About)),
      Epilogue(std::move(Epilogue)) {}

FlagParser &FlagParser::value(const char *Name, std::string Meta,
                              const char *Help,
                              std::function<bool(const std::string &)> Apply,
                              std::string Expect) {
  Flags.push_back(
      {Name, std::move(Meta), Help, std::move(Expect), std::move(Apply)});
  return *this;
}

FlagParser &FlagParser::set(const char *Name, bool &Out, bool Value,
                            const char *Help) {
  Flags.push_back({Name, "", Help, "",
                   [&Out, Value](const std::string &) {
                     Out = Value;
                     return true;
                   }});
  return *this;
}

FlagParser &FlagParser::real(const char *Name, const char *Meta, double &Out,
                             double Min, double Max, const char *Help) {
  // A Min of denorm_min() is how a flag says "positive": show it as (0.
  const bool Positive = Min == std::numeric_limits<double>::denorm_min();
  char Range[96];
  std::snprintf(Range, sizeof(Range), "a decimal number in %s%.15g, %.15g]",
                Positive ? "(" : "[", Positive ? 0.0 : Min, Max);
  return value(Name, Meta, Help,
               [&Out, Min, Max](const std::string &V) {
                 const std::optional<double> D =
                     parseDecimalReal(V, Min, Max);
                 if (D)
                   Out = *D;
                 return D.has_value();
               },
               Range);
}

FlagParser &FlagParser::text(const char *Name, const char *Meta,
                             std::string &Out, const char *Help) {
  return value(Name, Meta, Help,
               [&Out](const std::string &V) {
                 if (!V.empty())
                   Out = V;
                 return !V.empty();
               },
               "a non-empty value");
}

FlagParser &FlagParser::operands(const char *Meta,
                                 std::vector<std::string> &Out,
                                 size_t MaxCount) {
  Operands = &Out;
  OperandMeta = Meta;
  MaxOperands = MaxCount;
  return *this;
}

const FlagParser::Flag *FlagParser::find(std::string_view Name) const {
  for (const Flag &F : Flags)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

std::string FlagParser::parse(int Argc, const char *const *Argv) {
  if (Argc > 0 && Argv[0]) {
    const std::string_view Path = Argv[0];
    const size_t Slash = Path.rfind('/');
    Program = std::string(
        Slash == std::string_view::npos ? Path : Path.substr(Slash + 1));
  }
  for (int I = 1; I < Argc; ++I) {
    const std::string_view Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      HelpRequested = true;
      return "";
    }
    if (Arg.empty() || Arg[0] != '-') {
      if (!Operands)
        return "unexpected argument '" + std::string(Arg) + "'";
      if (Operands->size() >= MaxOperands)
        return "unexpected argument '" + std::string(Arg) + "' (at most " +
               std::to_string(MaxOperands) + " " + OperandMeta + ")";
      Operands->emplace_back(Arg);
      continue;
    }
    const size_t Eq = Arg.find('=');
    const Flag *F = find(Arg.substr(0, Eq));
    if (!F)
      return "unknown option '" + std::string(Arg) + "'";
    std::string Value;
    if (F->Meta.empty()) {
      if (Eq != std::string_view::npos)
        return F->Name + " takes no value";
    } else if (Eq != std::string_view::npos) {
      Value = Arg.substr(Eq + 1);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      return "missing value for " + F->Name;
    }
    if (!F->Apply(Value))
      return "invalid " + F->Name + " value '" + Value + "' (expected " +
             F->Expect + ")";
  }
  return "";
}

void FlagParser::parseOrExit(int Argc, char **Argv) {
  const std::string Error = parse(Argc, Argv);
  if (!Error.empty())
    usageError(Error);
  if (HelpRequested) {
    std::fputs(help().c_str(), stdout);
    std::exit(exitcode::Ok);
  }
}

void FlagParser::usageError(const std::string &Msg) const {
  std::fprintf(stderr, "error: %s\n%s(%s --help lists every option)\n",
               Msg.c_str(), usage().c_str(), Program.c_str());
  std::exit(exitcode::Usage);
}

std::string FlagParser::usage() const {
  return "usage: " + Program + " " + Synopsis + "\n";
}

std::string FlagParser::help() const {
  std::string Out = usage();
  if (!About.empty())
    Out += "\n" + About + "\n";
  Out += "\nOptions:\n";
  const std::string Indent(kHelpColumn, ' ');
  const auto Line = [&](const std::string &Lead, const std::string &Help) {
    Out += "  " + Lead;
    Out += Lead.size() + 4 > kHelpColumn
               ? "\n" + Indent
               : std::string(kHelpColumn - 2 - Lead.size(), ' ');
    // Continuation lines of a multi-line help text align with the first.
    for (const char C : Help)
      Out += C == '\n' ? "\n" + Indent : std::string(1, C);
    Out += "\n";
  };
  for (const Flag &F : Flags)
    Line(F.Meta.empty() ? F.Name : F.Name + " " + F.Meta, F.Help);
  Line("--help", "print this text and exit");
  if (!Epilogue.empty())
    Out += "\n" + Epilogue;
  return Out;
}
