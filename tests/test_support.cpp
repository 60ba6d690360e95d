//===- tests/test_support.cpp - Support library unit tests --------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"
#include "support/Histogram.h"
#include "support/MathExtras.h"
#include "support/RNG.h"
#include "support/Saturating.h"
#include "support/Statistic.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace dmp;

TEST(RNGTest, DeterministicForSeed) {
  RNG A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNGTest, DifferentSeedsDiffer) {
  RNG A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += (A.next() == B.next());
  EXPECT_LT(Same, 2);
}

TEST(RNGTest, NextBelowInRange) {
  RNG R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(RNGTest, NextInRangeInclusive) {
  RNG R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    const int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= (V == -3);
    SawHi |= (V == 3);
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RNGTest, NextDoubleUnitInterval) {
  RNG R(11);
  double Sum = 0.0;
  for (int I = 0; I < 10000; ++I) {
    const double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
    Sum += V;
  }
  EXPECT_NEAR(Sum / 10000.0, 0.5, 0.02);
}

TEST(RNGTest, NextBoolMatchesProbability) {
  RNG R(13);
  int True70 = 0;
  for (int I = 0; I < 10000; ++I)
    True70 += R.nextBool(0.7);
  EXPECT_NEAR(True70 / 10000.0, 0.7, 0.03);
  EXPECT_FALSE(R.nextBool(0.0));
  EXPECT_TRUE(R.nextBool(1.0));
}

TEST(RNGTest, ForkIndependentStreams) {
  RNG Parent(99);
  RNG Child = Parent.fork();
  EXPECT_NE(Parent.next(), Child.next());
}

TEST(SaturatingCounterTest, SaturatesAtBounds) {
  SaturatingCounter<2> C;
  EXPECT_EQ(C.get(), 0);
  C.decrement();
  EXPECT_EQ(C.get(), 0);
  for (int I = 0; I < 10; ++I)
    C.increment();
  EXPECT_EQ(C.get(), 3);
  EXPECT_TRUE(C.isSaturated());
  C.decrement();
  EXPECT_EQ(C.get(), 2);
  EXPECT_TRUE(C.isWeaklySet());
  C.decrement();
  EXPECT_EQ(C.get(), 1);
  EXPECT_FALSE(C.isWeaklySet());
}

TEST(SaturatingWeightTest, ClampsToRange) {
  SaturatingWeight<-8, 7> W;
  for (int I = 0; I < 100; ++I)
    W.add(1);
  EXPECT_EQ(W.get(), 7);
  for (int I = 0; I < 100; ++I)
    W.add(-1);
  EXPECT_EQ(W.get(), -8);
}

TEST(MathExtrasTest, PowerOfTwo) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(1024));
  EXPECT_FALSE(isPowerOf2(1023));
}

TEST(MathExtrasTest, Log2) {
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(4096), 12u);
  EXPECT_EQ(log2Floor(4097), 12u);
  EXPECT_EQ(log2Ceil(4096), 12u);
  EXPECT_EQ(log2Ceil(4097), 13u);
}

TEST(MathExtrasTest, GeomeanAndMean) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(safeDiv(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safeDiv(6.0, 3.0), 2.0);
}

TEST(StatisticTest, CountersAccumulateAndIterateInOrder) {
  StatisticSet Stats;
  Stats.counter("fetch.cycles") += 10;
  Stats.add("retired", 5);
  Stats.counter("fetch.cycles") += 1;
  EXPECT_EQ(Stats.get("fetch.cycles"), 11u);
  EXPECT_EQ(Stats.get("retired"), 5u);
  EXPECT_EQ(Stats.get("missing"), 0u);
  ASSERT_EQ(Stats.entries().size(), 2u);
  EXPECT_EQ(Stats.entries()[0].first, "fetch.cycles");
  Stats.clear();
  EXPECT_EQ(Stats.get("fetch.cycles"), 0u);
  EXPECT_EQ(Stats.entries().size(), 2u);
}

TEST(StatisticTest, ConcurrentIncrementsAndRegistrations) {
  // Parallel experiment tasks bump counters on a shared set while new
  // counters register; no increment may be lost and no reference may dangle
  // (the seed's vector storage invalidated references on growth).
  StatisticSet Stats;
  std::atomic<uint64_t> &Shared = Stats.counter("shared");
  constexpr int NumThreads = 8;
  constexpr uint64_t PerThread = 10'000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Stats, &Shared, T] {
      const std::string Mine = "thread." + std::to_string(T);
      for (uint64_t I = 0; I < PerThread; ++I) {
        Shared.fetch_add(1, std::memory_order_relaxed);
        Stats.add(Mine, 1);
        // Register fresh names mid-flight to force registry growth.
        if (I % 1000 == 0)
          Stats.counter(Mine + "." + std::to_string(I));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Stats.get("shared"), NumThreads * PerThread);
  for (int T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Stats.get("thread." + std::to_string(T)), PerThread);
}

TEST(HistogramTest, BasicMoments) {
  Histogram H;
  EXPECT_EQ(H.average(), 0.0);
  H.addSample(1);
  H.addSample(3);
  H.addSample(3);
  H.addSample(5);
  EXPECT_EQ(H.sampleCount(), 4u);
  EXPECT_DOUBLE_EQ(H.average(), 3.0);
  EXPECT_EQ(H.minValue(), 1u);
  EXPECT_EQ(H.maxValue(), 5u);
  EXPECT_DOUBLE_EQ(H.fractionAbove(3), 0.25);
  EXPECT_EQ(H.percentile(0.5), 3u);
}

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatPercent(0.204), "+20.4%");
  EXPECT_EQ(formatPercent(-0.005), "-0.5%");
  EXPECT_EQ(formatDouble(3.14159, 3), "3.142");
}

TEST(StringUtilsTest, SplitString) {
  const auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
}

TEST(TableTest, RendersAlignedColumns) {
  Table T({"bench", "ipc"});
  T.addRow({"gzip", "2.10"});
  T.addSeparator();
  T.addRow({"mcf", "0.45"});
  const std::string Out = T.render();
  EXPECT_NE(Out.find("bench"), std::string::npos);
  EXPECT_NE(Out.find("2.10"), std::string::npos);
  EXPECT_NE(Out.find("-+-"), std::string::npos);
  EXPECT_EQ(T.rowCount(), 3u);
}

TEST(FlagsTest, DecimalRejectsSignWhitespaceJunkAndEmpty) {
  EXPECT_EQ(parseDecimal("42"), 42u);
  EXPECT_EQ(parseDecimal("007"), 7u);
  for (const char *Bad : {"", "-1", "+5", " 4", "4 ", "4\n", "12x", "0x10",
                          "1e3", "4.0"})
    EXPECT_FALSE(parseDecimal(Bad).has_value()) << "'" << Bad << "'";
}

TEST(FlagsTest, DecimalRejectsOverflow) {
  EXPECT_EQ(parseDecimal("18446744073709551615"), ~0ULL);
  EXPECT_FALSE(parseDecimal("18446744073709551616").has_value());
  EXPECT_FALSE(parseDecimal("99999999999999999999").has_value());
}

TEST(FlagsTest, DecimalRangeEdgesAreInclusive) {
  EXPECT_EQ(parseDecimal("1", 1, 1024), 1u);
  EXPECT_EQ(parseDecimal("1024", 1, 1024), 1024u);
  EXPECT_FALSE(parseDecimal("0", 1, 1024).has_value());
  EXPECT_FALSE(parseDecimal("1025", 1, 1024).has_value());
}

TEST(FlagsTest, RealAcceptsPlainDecimalsOnly) {
  EXPECT_EQ(parseDecimalReal("0.05", 0, 1), 0.05);
  EXPECT_EQ(parseDecimalReal(".5", 0, 1), 0.5);
  EXPECT_EQ(parseDecimalReal("1", 0, 1), 1.0);
  for (const char *Bad : {"", ".", "1.2.3", "-0.5", "+0.5", " 0.5", "0.5 ",
                          "0.5x", "1e-3", "nan", "NaN", "inf", "-inf",
                          "infinity", "0x1p-2"})
    EXPECT_FALSE(parseDecimalReal(Bad, 0, 1e300).has_value())
        << "'" << Bad << "'";
}

TEST(FlagsTest, RealRejectsOverflowAndOutOfRange) {
  EXPECT_FALSE(parseDecimalReal(std::string(400, '9'), 0, 1e308).has_value());
  EXPECT_EQ(parseDecimalReal("0", 0, 1), 0.0);
  EXPECT_FALSE(parseDecimalReal("1.0001", 0, 1).has_value());
  const double Tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_FALSE(parseDecimalReal("0.0", Tiny, 1e9).has_value());
  EXPECT_EQ(parseDecimalReal("1000000000", Tiny, 1e9), 1e9);
  EXPECT_FALSE(parseDecimalReal("1000000000.5", Tiny, 1e9).has_value());
}

namespace {

/// A small flag table in the shape every tool declares.
struct ParsedFlags {
  unsigned Jobs = 4;
  double Prob = 0.01;
  std::string Dir = "default";
  bool Cache = true;
  int Mode = 0;
  std::vector<std::string> Operands;
  std::string Error;
  bool Help = false;
};

ParsedFlags parseFlags(std::vector<const char *> Args) {
  ParsedFlags R;
  Args.insert(Args.begin(), "/path/to/tool");
  FlagParser P("[options] <bench>");
  P.number("--jobs", "N", R.Jobs, 1, 1024, "threads")
      .real("--prob", "P", R.Prob, 0.0, 1.0, "probability")
      .text("--dir", "DIR", R.Dir, "directory")
      .set("--no-cache", R.Cache, false, "skip the cache")
      .choice("--mode", R.Mode, {{"fast", 1}, {"slow", 2}}, "mode")
      .operands("bench", R.Operands, 1);
  R.Error = P.parse(static_cast<int>(Args.size()), Args.data());
  R.Help = P.helpRequested();
  return R;
}

} // namespace

TEST(FlagsTest, EqualsAndSpaceFormsAgree) {
  const ParsedFlags Eq = parseFlags(
      {"--jobs=8", "--prob=0.5", "--dir=x", "--mode=slow", "--no-cache"});
  const ParsedFlags Sp = parseFlags(
      {"--jobs", "8", "--prob", "0.5", "--dir", "x", "--mode", "slow",
       "--no-cache"});
  for (const ParsedFlags *R : {&Eq, &Sp}) {
    EXPECT_EQ(R->Error, "");
    EXPECT_EQ(R->Jobs, 8u);
    EXPECT_EQ(R->Prob, 0.5);
    EXPECT_EQ(R->Dir, "x");
    EXPECT_EQ(R->Mode, 2);
    EXPECT_FALSE(R->Cache);
  }
}

TEST(FlagsTest, DefaultsSurviveAnEmptyCommandLine) {
  const ParsedFlags R = parseFlags({});
  EXPECT_EQ(R.Error, "");
  EXPECT_EQ(R.Jobs, 4u);
  EXPECT_EQ(R.Prob, 0.01);
  EXPECT_EQ(R.Dir, "default");
  EXPECT_TRUE(R.Cache);
  EXPECT_TRUE(R.Operands.empty());
}

TEST(FlagsTest, RejectsMalformedValues) {
  for (std::vector<const char *> Args :
       {std::vector<const char *>{"--jobs=-1"}, {"--jobs=0"}, {"--jobs= 4"},
        {"--jobs", "1025"}, {"--jobs=4x"}, {"--jobs="}, {"--prob=nan"},
        {"--prob=inf"}, {"--prob=1.5"}, {"--dir="}, {"--mode=medium"},
        {"--no-cache=1"}}) {
    EXPECT_NE(parseFlags(Args).Error, "") << Args[0];
  }
  EXPECT_EQ(parseFlags({"--jobs=0"}).Error,
            "invalid --jobs value '0' (expected an integer in [1, 1024])");
}

TEST(FlagsTest, RejectsUnknownFlagsAndStrayOperands) {
  EXPECT_EQ(parseFlags({"--bogus"}).Error, "unknown option '--bogus'");
  EXPECT_EQ(parseFlags({"--jobsx=3"}).Error, "unknown option '--jobsx=3'");
  EXPECT_EQ(parseFlags({"-j"}).Error, "unknown option '-j'");
  const ParsedFlags One = parseFlags({"gzip"});
  EXPECT_EQ(One.Error, "");
  ASSERT_EQ(One.Operands.size(), 1u);
  EXPECT_EQ(One.Operands[0], "gzip");
  EXPECT_NE(parseFlags({"gzip", "mcf"}).Error, "");
}

TEST(FlagsTest, MissingValueAtEndOfArgv) {
  EXPECT_EQ(parseFlags({"--jobs"}).Error, "missing value for --jobs");
  EXPECT_EQ(parseFlags({"--no-cache", "--dir"}).Error,
            "missing value for --dir");
}

TEST(FlagsTest, HelpStopsParsingAndListsTheTable) {
  const ParsedFlags R = parseFlags({"--help", "--bogus"});
  EXPECT_EQ(R.Error, "");
  EXPECT_TRUE(R.Help);
  EXPECT_TRUE(parseFlags({"-h"}).Help);

  unsigned Jobs = 1;
  FlagParser P("[options]", "About text.", "Exit codes: 0 ok\n");
  P.number("--jobs", "N", Jobs, 1, 8, "worker threads");
  const char *Argv[] = {"/bin/tool"};
  EXPECT_EQ(P.parse(1, Argv), "");
  EXPECT_EQ(P.usage(), "usage: tool [options]\n");
  const std::string Help = P.help();
  EXPECT_EQ(Help.rfind("usage: tool [options]\n", 0), 0u);
  EXPECT_NE(Help.find("About text."), std::string::npos);
  EXPECT_NE(Help.find("  --jobs N"), std::string::npos);
  EXPECT_NE(Help.find("worker threads"), std::string::npos);
  EXPECT_NE(Help.find("  --help"), std::string::npos);
  EXPECT_NE(Help.find("Exit codes: 0 ok"), std::string::npos);
}
