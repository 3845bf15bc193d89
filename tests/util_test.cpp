// Utility-layer tests: strings, RNG determinism and distribution sanity,
// table rendering, flags, timers, thread pool.
#include <cstdint>
#include <limits>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "dynsched/util/checked.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/flags.hpp"
#include "dynsched/util/logging.hpp"
#include "dynsched/util/rng.hpp"
#include "dynsched/util/strings.hpp"
#include "dynsched/util/table.hpp"
#include "dynsched/util/thread_pool.hpp"
#include "dynsched/util/timer.hpp"

namespace dynsched::util {
namespace {

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto parts = splitWhitespace("  12\t 34\n56  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "12");
  EXPECT_EQ(parts[2], "56");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(toLower("FcFs"), "fcfs");
  EXPECT_TRUE(startsWith("; MaxNodes: 430", ";"));
  EXPECT_FALSE(startsWith("a", "ab"));
}

TEST(Strings, StrictParsing) {
  EXPECT_EQ(parseInt(" 42 "), 42);
  EXPECT_EQ(parseInt("-7"), -7);
  EXPECT_FALSE(parseInt("42x").has_value());
  EXPECT_FALSE(parseInt("").has_value());
  EXPECT_DOUBLE_EQ(parseDouble("2.5").value(), 2.5);
  EXPECT_FALSE(parseDouble("2.5.1").has_value());
}

TEST(Strings, MemorySizes) {
  EXPECT_EQ(parseMemorySize("8G"), 8ULL << 30);
  EXPECT_EQ(parseMemorySize("8GB"), 8ULL << 30);
  EXPECT_EQ(parseMemorySize("512mb"), 512ULL << 20);
  EXPECT_EQ(parseMemorySize("64k"), 64ULL << 10);
  EXPECT_EQ(parseMemorySize("1024"), 1024ULL);
  EXPECT_FALSE(parseMemorySize("lots").has_value());
  EXPECT_EQ(formatMemorySize(8ULL << 30), "8.0 GB");
}

TEST(Strings, ThousandsSeparators) {
  EXPECT_EQ(formatThousands(0), "0");
  EXPECT_EQ(formatThousands(999), "999");
  EXPECT_EQ(formatThousands(1798384), "1,798,384");
  EXPECT_EQ(formatThousands(-12345), "-12,345");
}

TEST(Timer, Formatting) {
  EXPECT_EQ(formatHms(0), "0:00:00");
  EXPECT_EQ(formatHms(3905), "1:05:05");
  EXPECT_EQ(formatHms(237.0 * 3600), "237:00:00");  // the paper's 10 days
  EXPECT_EQ(formatSimTime(90061), "1+01:01:01");
}

TEST(Rng, DeterministicStreams) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, DistributionMoments) {
  Rng rng(11);
  double sum = 0, sumExp = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
    sumExp += rng.exponential(0.5);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(sumExp / n, 2.0, 0.05);
}

TEST(Rng, DiscretePicksByWeight) {
  Rng rng(3);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) {
    counts[rng.discrete({1.0, 0.0, 3.0})]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(Rng, LogUniformStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.logUniform(10, 1000);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 1000);
  }
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(77);
  Rng childA = parent.split();
  Rng childB = parent.split();
  // Children differ from each other and from the parent's continuation.
  EXPECT_NE(childA.next(), childB.next());
  Rng parent2(77);
  Rng childA2 = parent2.split();
  EXPECT_EQ(Rng(77).split().next(), childA2.next());  // still deterministic
}

TEST(Table, RendersAlignedWithRules) {
  TextTable t({"name", "value"});
  t.setAlign(0, TextTable::Align::Left);
  t.addRow({"alpha", "1"});
  t.addRule();
  t.addRow({"avg", "1,234"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(out.find("| avg   | 1,234 |"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), CheckError);
}

TEST(Flags, ParsesAllKinds) {
  FlagSet flags("prog");
  auto& n = flags.addInt("n", 5, "count");
  auto& rate = flags.addDouble("rate", 1.0, "rate");
  auto& name = flags.addString("name", "x", "name");
  auto& verbose = flags.addBool("verbose", false, "verbosity");
  const char* argv[] = {"prog", "--n=9", "--rate", "2.5", "--name=trace.swf",
                        "--verbose", "positional"};
  ASSERT_TRUE(flags.parse(7, argv));
  EXPECT_EQ(n, 9);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_EQ(name, "trace.swf");
  EXPECT_TRUE(verbose);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Flags, RejectsUnknownAndMalformed) {
  FlagSet flags("prog");
  flags.addInt("n", 1, "");
  const char* bad[] = {"prog", "--whatever=1"};
  EXPECT_THROW(flags.parse(2, bad), CheckError);
  FlagSet flags2("prog");
  flags2.addInt("n", 1, "");
  const char* badValue[] = {"prog", "--n=abc"};
  EXPECT_THROW(flags2.parse(2, badValue), CheckError);
}

TEST(Flags, RejectsDuplicateRegistration) {
  FlagSet flags("prog");
  flags.addInt("n", 1, "count");
  EXPECT_THROW(flags.addDouble("n", 2.0, "clashes"), CheckError);
}

TEST(Flags, RejectsMissingValueAndBadBool) {
  FlagSet flags("prog");
  flags.addInt("n", 1, "");
  const char* dangling[] = {"prog", "--n"};
  EXPECT_THROW(flags.parse(2, dangling), CheckError);
  FlagSet flags2("prog");
  flags2.addBool("verbose", false, "");
  const char* badBool[] = {"prog", "--verbose=maybe"};
  EXPECT_THROW(flags2.parse(2, badBool), CheckError);
}

TEST(Flags, HelpReturnsFalse) {
  FlagSet flags("prog");
  flags.addInt("n", 1, "count");
  const char* argv[] = {"prog", "--help"};
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(flags.parse(2, argv));
  const std::string usage = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(usage.find("--n"), std::string::npos);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(100, 0);
  pool.parallelFor(100, [&](std::size_t i) { hits[i]++; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Logging, LevelsParseAndFilter) {
  EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
  EXPECT_EQ(parseLogLevel("WARN"), LogLevel::Warn);
  EXPECT_THROW(parseLogLevel("loud"), CheckError);
  const LogLevel old = setLogLevel(LogLevel::Off);
  DYNSCHED_LOG(Error) << "this must not crash while disabled";
  setLogLevel(old);
}

TEST(Check, ThrowsWithContext) {
  try {
    DYNSCHED_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Checked, AddAndMulPassThroughInRange) {
  EXPECT_EQ(checkedAdd<std::int64_t>(1'000'000'000LL, 2'000'000'000LL),
            3'000'000'000LL);
  EXPECT_EQ(checkedMul<std::int64_t>(-7, 6), -42);
  EXPECT_EQ(checkedAdd<std::int32_t>(-5, 5), 0);
  const std::int64_t maxT = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(checkedAdd<std::int64_t>(maxT, 0), maxT);
  EXPECT_EQ(checkedMul<std::int64_t>(maxT, 1), maxT);
}

TEST(Checked, AddOverflowThrows) {
  const std::int64_t maxT = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(checkedAdd<std::int64_t>(maxT, 1), CheckError);
  const std::int64_t minT = std::numeric_limits<std::int64_t>::min();
  EXPECT_THROW(checkedAdd<std::int64_t>(minT, -1), CheckError);
  EXPECT_THROW(checkedAdd<std::int32_t>(2'000'000'000, 2'000'000'000),
               CheckError);
}

TEST(Checked, MulOverflowThrows) {
  const std::int64_t maxT = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(checkedMul<std::int64_t>(maxT, 2), CheckError);
  EXPECT_THROW(checkedMul<std::int64_t>(maxT / 2 + 1, 2), CheckError);
  const std::int64_t minT = std::numeric_limits<std::int64_t>::min();
  EXPECT_THROW(checkedMul<std::int64_t>(minT, -1), CheckError);
}

}  // namespace
}  // namespace dynsched::util
