//===- support/Flags.h - Strict command-line flag parsing -------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one command-line parser every tool and bench driver uses, so a
/// mistyped threshold fails the command instead of quietly running some
/// other configuration of a sweep.
///
/// Numbers are plain decimal: digits only for integers, digits with at most
/// one '.' for reals.  A sign, whitespace, an exponent, trailing junk, an
/// empty value, overflow, NaN and infinity are all rejected, and every value
/// must lie in its flag's inclusive [Min, Max] range.  The same number rule
/// backs environment test hooks and annotation-file decoding.
///
/// Flags are declared in a table.  Every value flag takes `--flag=V` and
/// `--flag V`; a switch takes no value.  The usage line and the `--help`
/// text are generated from the table.  parseOrExit() prints help on stdout
/// and exits exitcode::Ok for `--help` (or `-h`); any unknown flag, bad
/// value, missing value or stray operand prints the error and the usage
/// line on stderr and exits exitcode::Usage.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SUPPORT_FLAGS_H
#define DMP_SUPPORT_FLAGS_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dmp {

/// \p Text as a plain decimal integer in [Min, Max], or nullopt.
std::optional<uint64_t>
parseDecimal(std::string_view Text, uint64_t Min = 0,
             uint64_t Max = std::numeric_limits<uint64_t>::max());

/// \p Text as a plain decimal real ("12", "0.05", ".5") in [Min, Max], or
/// nullopt.  Never NaN or infinite.
std::optional<double> parseDecimalReal(std::string_view Text, double Min,
                                       double Max);

class FlagParser {
public:
  /// \p Synopsis follows "usage: <program> " in the usage line; \p About
  /// and \p Epilogue frame the option list in the --help text.
  explicit FlagParser(std::string Synopsis = "[options]",
                      std::string About = "", std::string Epilogue = "");

  /// A switch: seeing \p Name stores \p Value into \p Out.
  FlagParser &set(const char *Name, bool &Out, bool Value, const char *Help);

  /// An unsigned integer in [Min, Max].
  template <typename T>
  FlagParser &number(const char *Name, const char *Meta, T &Out, uint64_t Min,
                     uint64_t Max, const char *Help) {
    static_assert(std::is_unsigned_v<T>, "number() flags are unsigned");
    Max = std::min<uint64_t>(Max, std::numeric_limits<T>::max());
    return value(Name, Meta, Help,
                 [&Out, Min, Max](const std::string &V) {
                   const std::optional<uint64_t> N = parseDecimal(V, Min, Max);
                   if (N)
                     Out = static_cast<T>(*N);
                   return N.has_value();
                 },
                 "an integer in [" + std::to_string(Min) + ", " +
                     std::to_string(Max) + "]");
  }

  /// A real in [Min, Max].
  FlagParser &real(const char *Name, const char *Meta, double &Out, double Min,
                   double Max, const char *Help);

  /// A non-empty string.
  FlagParser &text(const char *Name, const char *Meta, std::string &Out,
                   const char *Help);

  /// One of a fixed set of words, each mapped to a value of \p Out.
  template <typename T>
  FlagParser &choice(const char *Name, T &Out,
                     std::vector<std::pair<std::string, T>> Words,
                     const char *Help) {
    std::string Meta;
    for (const auto &W : Words)
      Meta += (Meta.empty() ? "" : "|") + W.first;
    return value(Name, Meta, Help,
                 [&Out, Words](const std::string &V) {
                   for (const auto &W : Words)
                     if (V == W.first) {
                       Out = W.second;
                       return true;
                     }
                   return false;
                 },
                 "one of " + Meta);
  }

  /// Non-option arguments, at most \p MaxCount of them, named \p Meta in
  /// the error text.  Without this, any operand is a usage error.
  FlagParser &operands(const char *Meta, std::vector<std::string> &Out,
                       size_t MaxCount = std::numeric_limits<size_t>::max());

  /// Parses argv without exiting: "" on success, else the error message.
  /// Stops at --help/-h and reports it through helpRequested().
  std::string parse(int Argc, const char *const *Argv);
  bool helpRequested() const { return HelpRequested; }

  /// parse(), with --help and errors handled as the file comment says.
  void parseOrExit(int Argc, char **Argv);

  /// For checks across flags after parsing: prints "error: <Msg>" and the
  /// usage line on stderr and exits exitcode::Usage.
  [[noreturn]] void usageError(const std::string &Msg) const;

  /// "usage: <program> <synopsis>\n".
  std::string usage() const;
  /// The usage line, the about text, one line per flag, the epilogue.
  std::string help() const;

private:
  struct Flag {
    std::string Name;
    std::string Meta; ///< Empty for a switch.
    std::string Help;
    std::string Expect; ///< "an integer in [1, 1024]", for error text.
    std::function<bool(const std::string &)> Apply;
  };

  FlagParser &value(const char *Name, std::string Meta, const char *Help,
                    std::function<bool(const std::string &)> Apply,
                    std::string Expect);
  const Flag *find(std::string_view Name) const;

  std::string Program = "dmp";
  std::string Synopsis;
  std::string About;
  std::string Epilogue;
  std::vector<Flag> Flags;
  std::vector<std::string> *Operands = nullptr;
  const char *OperandMeta = nullptr;
  size_t MaxOperands = 0;
  bool HelpRequested = false;
};

} // namespace dmp

#endif // DMP_SUPPORT_FLAGS_H
