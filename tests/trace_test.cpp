// SWF parsing/writing, cleaning filters, workload statistics and the
// synthetic generators (including CTC calibration checks).
#include <sstream>

#include <gtest/gtest.h>

#include "dynsched/core/job.hpp"
#include "dynsched/trace/filters.hpp"
#include "dynsched/trace/stats.hpp"
#include "dynsched/trace/swf.hpp"
#include "dynsched/trace/synthetic.hpp"

namespace dynsched::trace {
namespace {

constexpr const char* kSampleSwf =
    "; Version: 2\n"
    "; MaxNodes: 430\n"
    "; MaxProcs: 430\n"
    "; free-form comment without structure\n"
    "1 0 10 3600 16 -1 -1 16 7200 -1 1 3 1 -1 1 -1 -1 -1\n"
    "2 100 0 60 1 -1 -1 1 300 -1 1 4 1 -1 1 -1 -1 -1\n"
    "3 200 5 -1 -1 -1 -1 8 600 -1 5 4 1 -1 1 -1 -1 -1\n";

TEST(Swf, ParsesHeaderAndRecords) {
  std::istringstream in(kSampleSwf);
  const SwfTrace trace = SwfTrace::parse(in);
  EXPECT_EQ(trace.maxProcs(), 430);
  ASSERT_EQ(trace.jobs().size(), 3u);
  const SwfJob& j = trace.jobs()[0];
  EXPECT_EQ(j.jobNumber, 1);
  EXPECT_EQ(j.submitTime, 0);
  EXPECT_EQ(j.runTime, 3600);
  EXPECT_EQ(j.width(), 16);
  EXPECT_EQ(j.estimate(), 7200);
  EXPECT_EQ(trace.header().at("Version"), "2");
  // The free-form comment must not pollute the header map.
  EXPECT_EQ(trace.header().count("free-form"), 0u);
}

TEST(Swf, WidthAndEstimateFallbacks) {
  SwfJob j;
  j.requestedProcs = -1;
  j.allocatedProcs = 8;
  EXPECT_EQ(j.width(), 8);
  j.requestedTime = -1;
  j.runTime = 120;
  EXPECT_EQ(j.estimate(), 120);
}

TEST(Swf, StrictParseThrowsOnMalformed) {
  std::istringstream in("1 2 3\n");
  EXPECT_THROW(SwfTrace::parse(in), CheckError);
}

TEST(Swf, StrictParseThrowsOnNonNumericField) {
  // Right field count (18), but field 4 is not a number.
  std::istringstream in("1 0 10 60 oops 1 1 4 60 1 1 1 1 1 1 1 -1 -1\n");
  EXPECT_THROW(SwfTrace::parse(in), CheckError);
}

TEST(Swf, StrictParseReportsLineNumber) {
  std::istringstream in(std::string(kSampleSwf) + "malformed record\n");
  try {
    SwfTrace::parse(in);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("malformed SWF record"),
              std::string::npos);
  }
}

TEST(Swf, LenientParseSkipsAndCounts) {
  std::istringstream in("garbage line\n" + std::string(kSampleSwf));
  const SwfTrace trace = SwfTrace::parse(in, /*lenient=*/true);
  EXPECT_EQ(trace.jobs().size(), 3u);
  EXPECT_EQ(trace.skippedLines(), 1u);
}

TEST(Swf, RoundTripPreservesRecords) {
  std::istringstream in(kSampleSwf);
  const SwfTrace trace = SwfTrace::parse(in);
  std::ostringstream out;
  trace.write(out);
  std::istringstream in2(out.str());
  const SwfTrace again = SwfTrace::parse(in2);
  ASSERT_EQ(again.jobs().size(), trace.jobs().size());
  for (std::size_t i = 0; i < trace.jobs().size(); ++i) {
    EXPECT_EQ(again.jobs()[i].jobNumber, trace.jobs()[i].jobNumber);
    EXPECT_EQ(again.jobs()[i].submitTime, trace.jobs()[i].submitTime);
    EXPECT_EQ(again.jobs()[i].runTime, trace.jobs()[i].runTime);
    EXPECT_EQ(again.jobs()[i].requestedTime, trace.jobs()[i].requestedTime);
  }
  EXPECT_EQ(again.maxProcs(), 430);
}

TEST(Filters, CleanDropsAndRepairs) {
  std::istringstream in(kSampleSwf);
  const SwfTrace trace = SwfTrace::parse(in);
  CleanReport report;
  const SwfTrace cleaned = clean(trace, CleanOptions{}, &report);
  // Job 3 is cancelled (status 5) without a runtime: dropped.
  EXPECT_EQ(cleaned.jobs().size(), 2u);
  EXPECT_EQ(report.droppedCancelled, 1u);
  EXPECT_EQ(report.kept, 2u);
}

TEST(Filters, CleanRaisesUnderestimates) {
  SwfTrace trace;
  trace.setHeaderField("MaxProcs", "64");
  SwfJob j;
  j.jobNumber = 1;
  j.submitTime = 0;
  j.runTime = 500;
  j.requestedTime = 100;  // underestimated
  j.requestedProcs = 4;
  j.allocatedProcs = 4;
  j.status = 1;
  trace.jobs().push_back(j);
  CleanReport report;
  const SwfTrace cleaned = clean(trace, CleanOptions{}, &report);
  ASSERT_EQ(cleaned.jobs().size(), 1u);
  EXPECT_EQ(cleaned.jobs()[0].estimate(), 500);
  EXPECT_EQ(report.raisedEstimates, 1u);
}

TEST(Filters, CleanClampsWidthToMachine) {
  SwfTrace trace;
  trace.setHeaderField("MaxProcs", "32");
  SwfJob j;
  j.jobNumber = 1;
  j.runTime = 10;
  j.requestedProcs = 64;
  j.status = 1;
  trace.jobs().push_back(j);
  const SwfTrace cleaned = clean(trace, CleanOptions{});
  EXPECT_EQ(cleaned.jobs()[0].width(), 32);
}

TEST(Filters, HeadWindowNormalizeScale) {
  SwfTrace trace;
  for (int i = 0; i < 10; ++i) {
    SwfJob j;
    j.jobNumber = i + 1;
    j.submitTime = (9 - i) * 100;  // reverse order on purpose
    j.runTime = 50;
    j.requestedProcs = 1;
    j.status = 1;
    trace.jobs().push_back(j);
  }
  EXPECT_EQ(head(trace, 4).jobs().size(), 4u);

  const SwfTrace sorted = normalize(trace);
  EXPECT_EQ(sorted.jobs().front().submitTime, 0);
  EXPECT_EQ(sorted.jobs().front().jobNumber, 1);
  EXPECT_EQ(sorted.jobs().back().submitTime, 900);

  const SwfTrace stretched = scaleArrivals(sorted, 2.0);
  EXPECT_EQ(stretched.jobs().back().submitTime, 1800);
}

TEST(Swf, FileRoundTrip) {
  const SwfTrace trace = ctcModel().generate(50, 3);
  const std::string path = ::testing::TempDir() + "/dynsched_roundtrip.swf";
  trace.writeFile(path);
  const SwfTrace again = SwfTrace::parseFile(path);
  ASSERT_EQ(again.jobs().size(), trace.jobs().size());
  EXPECT_EQ(again.maxProcs(), trace.maxProcs());
  for (std::size_t i = 0; i < trace.jobs().size(); ++i) {
    EXPECT_EQ(again.jobs()[i].submitTime, trace.jobs()[i].submitTime);
    EXPECT_EQ(again.jobs()[i].runTime, trace.jobs()[i].runTime);
  }
}

TEST(Swf, ParseFileRejectsMissing) {
  EXPECT_THROW(SwfTrace::parseFile("/nonexistent/really.swf"), CheckError);
}

TEST(Stats, QuantileEdgeCases) {
  const Quantiles empty = computeQuantiles({});
  EXPECT_DOUBLE_EQ(empty.mean, 0);
  const Quantiles one = computeQuantiles({7});
  EXPECT_DOUBLE_EQ(one.min, 7);
  EXPECT_DOUBLE_EQ(one.median, 7);
  EXPECT_DOUBLE_EQ(one.max, 7);
  const Quantiles two = computeQuantiles({2, 4});
  EXPECT_DOUBLE_EQ(two.median, 3);  // linear interpolation
}

TEST(Stats, QuantilesAndMeans) {
  const Quantiles q = computeQuantiles({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(q.min, 1);
  EXPECT_DOUBLE_EQ(q.median, 3);
  EXPECT_DOUBLE_EQ(q.max, 5);
  EXPECT_DOUBLE_EQ(q.mean, 3);
}

TEST(Stats, AnalyzeComputesLoadAndMix) {
  SwfTrace trace;
  trace.setHeaderField("MaxProcs", "10");
  for (int i = 0; i < 11; ++i) {
    SwfJob j;
    j.jobNumber = i + 1;
    j.submitTime = i * 100;  // span 1000, mean interarrival 100
    j.runTime = 100;
    j.requestedTime = 200;
    j.requestedProcs = (i % 2 == 0) ? 1 : 2;
    j.status = 1;
    trace.jobs().push_back(j);
  }
  const WorkloadStats stats = analyze(trace);
  EXPECT_EQ(stats.jobCount, 11u);
  EXPECT_EQ(stats.machineSize, 10);
  EXPECT_DOUBLE_EQ(stats.meanInterarrival, 100.0);
  EXPECT_NEAR(stats.serialFraction, 6.0 / 11.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.powerOfTwoFraction, 1.0);  // widths 1 and 2
  EXPECT_DOUBLE_EQ(stats.meanOverestimation, 2.0);
  // Area = 6*100 + 5*200 = 1600 over 1000 s * 10 nodes.
  EXPECT_DOUBLE_EQ(stats.offeredLoad, 0.16);
  EXPECT_FALSE(stats.summary().empty());
}

// ---------------------------------------------------------------------------
// Synthetic generators.
// ---------------------------------------------------------------------------

TEST(Synthetic, DeterministicForSeed) {
  const SyntheticModel model = ctcModel();
  const SwfTrace a = model.generate(200, 123);
  const SwfTrace b = model.generate(200, 123);
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(a.jobs()[i].submitTime, b.jobs()[i].submitTime);
    EXPECT_EQ(a.jobs()[i].runTime, b.jobs()[i].runTime);
    EXPECT_EQ(a.jobs()[i].requestedProcs, b.jobs()[i].requestedProcs);
  }
  const SwfTrace c = model.generate(200, 124);
  bool anyDifferent = false;
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    anyDifferent |= a.jobs()[i].submitTime != c.jobs()[i].submitTime;
  }
  EXPECT_TRUE(anyDifferent);
}

TEST(Synthetic, JobsAreWellFormedAndConvertible) {
  const SwfTrace trace = ctcModel().generate(500, 7);
  for (const SwfJob& j : trace.jobs()) {
    EXPECT_GT(j.width(), 0);
    EXPECT_LE(j.width(), 430);
    EXPECT_GT(j.runTime, 0);
    EXPECT_GE(j.estimate(), j.runTime);  // planner-safe estimates
  }
  const auto jobs = core::fromSwf(trace);  // must not throw
  EXPECT_EQ(jobs.size(), 500u);
}

TEST(Synthetic, SubmitTimesNonDecreasing) {
  const SwfTrace trace = ctcModel().generate(400, 99);
  for (std::size_t i = 1; i < trace.jobs().size(); ++i) {
    EXPECT_GE(trace.jobs()[i].submitTime, trace.jobs()[i - 1].submitTime);
  }
}

TEST(Synthetic, CtcCalibrationTargets) {
  // Calibration targets from DESIGN.md: 430 nodes, mean interarrival within
  // ~25% of the CTC's 369 s, a meaningful serial-job share, mostly
  // power-of-two widths.
  const SwfTrace trace = ctcModel().generate(4000, 2026);
  const WorkloadStats stats = analyze(trace);
  EXPECT_EQ(stats.machineSize, 430);
  EXPECT_NEAR(stats.meanInterarrival, 369.0, 369.0 * 0.25);
  EXPECT_GT(stats.serialFraction, 0.10);
  EXPECT_GT(stats.powerOfTwoFraction, 0.50);
  EXPECT_GT(stats.meanOverestimation, 1.5);  // users over-request
  EXPECT_GT(stats.offeredLoad, 0.3);
  EXPECT_LT(stats.offeredLoad, 1.2);
}

TEST(Synthetic, ShortAndLongModelsDiffer) {
  const WorkloadStats shortStats =
      analyze(shortJobModel().generate(1000, 5));
  const WorkloadStats longStats = analyze(longJobModel().generate(1000, 5));
  EXPECT_LT(shortStats.runtime.median, longStats.runtime.median / 4);
  EXPECT_LT(shortStats.width.median, longStats.width.median);
}

TEST(Synthetic, PhasedWorkloadConcatenatesMonotonically) {
  const SwfTrace trace = generatePhased(
      {{shortJobModel(), 50}, {longJobModel(), 30}, {shortJobModel(), 20}},
      11);
  ASSERT_EQ(trace.jobs().size(), 100u);
  for (std::size_t i = 1; i < trace.jobs().size(); ++i) {
    EXPECT_GE(trace.jobs()[i].submitTime, trace.jobs()[i - 1].submitTime);
    EXPECT_EQ(trace.jobs()[i].jobNumber,
              static_cast<JobId>(i + 1));  // renumbered
  }
}

TEST(Synthetic, BurstsProduceNearSimultaneousArrivals) {
  SyntheticModel model = ctcModel();
  model.arrivals.burstProbability = 0.5;  // force plenty of bursts
  const SwfTrace trace = model.generate(500, 31);
  std::size_t tightGaps = 0;
  for (std::size_t i = 1; i < trace.jobs().size(); ++i) {
    if (trace.jobs()[i].submitTime - trace.jobs()[i - 1].submitTime <= 3) {
      ++tightGaps;
    }
  }
  EXPECT_GT(tightGaps, 100u);  // script bursts dominate the arrival stream
}

}  // namespace
}  // namespace dynsched::trace
