// MachineHistory and ResourceProfile tests, including a randomized property
// suite that cross-checks the segment-based profile against a brute-force
// per-second capacity array.
#include <algorithm>

#include <gtest/gtest.h>

#include "dynsched/core/job.hpp"
#include "dynsched/core/machine_history.hpp"
#include "dynsched/core/resource_profile.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/rng.hpp"

namespace dynsched::core {
namespace {

TEST(MachineHistory, EmptyMachineFullyFree) {
  const auto h = MachineHistory::empty(Machine{128}, 100);
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(h.startTime(), 100);
  EXPECT_EQ(h.machineSize(), 128);
  EXPECT_EQ(h.freeAt(100), 128);
  EXPECT_EQ(h.freeAt(1000000), 128);
  EXPECT_EQ(h.fullyFreeFrom(), 100);
}

TEST(MachineHistory, FromRunningJobsStaircase) {
  // Figure 1 shape: free resources increase monotonically as jobs end.
  const std::vector<RunningJob> running = {
      {1, 40, 200}, {2, 30, 150}, {3, 20, 200}, {4, 10, 400}};
  const auto h = MachineHistory::fromRunningJobs(Machine{128}, 100, running);
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(h.freeAt(100), 128 - 100);
  EXPECT_EQ(h.freeAt(149), 28);
  EXPECT_EQ(h.freeAt(150), 58);    // job 2 (30 nodes) released
  EXPECT_EQ(h.freeAt(200), 118);   // jobs 1 and 3 released together
  EXPECT_EQ(h.freeAt(399), 118);
  EXPECT_EQ(h.freeAt(400), 128);
  EXPECT_EQ(h.fullyFreeFrom(), 400);
}

TEST(MachineHistory, MergesSimultaneousEnds) {
  const std::vector<RunningJob> running = {{1, 10, 500}, {2, 20, 500}};
  const auto h = MachineHistory::fromRunningJobs(Machine{64}, 0, running);
  // One entry at t=0 plus a single merged entry at t=500.
  EXPECT_EQ(h.entries().size(), 2u);
  EXPECT_EQ(h.freeAt(0), 34);
  EXPECT_EQ(h.freeAt(500), 64);
}

TEST(MachineHistory, OverrunningJobTreatedAsEndingSoon) {
  // A running job whose estimated end is already past holds nodes until
  // now + 1 (it will be killed / has just ended).
  const std::vector<RunningJob> running = {{1, 16, 50}};
  const auto h = MachineHistory::fromRunningJobs(Machine{32}, 100, running);
  EXPECT_EQ(h.freeAt(100), 16);
  EXPECT_EQ(h.freeAt(101), 32);
}

TEST(MachineHistory, RejectsOversubscription) {
  const std::vector<RunningJob> running = {{1, 40, 200}, {2, 30, 150}};
  EXPECT_THROW(MachineHistory::fromRunningJobs(Machine{64}, 0, running),
               CheckError);
}

TEST(ResourceProfile, EarliestFitOnEmptyMachine) {
  ResourceProfile p(Machine{100}, 0);
  EXPECT_EQ(p.earliestFit(0, 3600, 100), 0);
  EXPECT_EQ(p.earliestFit(500, 10, 1), 500);
}

TEST(ResourceProfile, EarliestFitWaitsForHistory) {
  // 60 nodes busy until t=1000 on a 100-node machine.
  const auto h = MachineHistory::fromRunningJobs(Machine{100}, 0,
                                                 {{1, 60, 1000}});
  ResourceProfile p(h);
  EXPECT_EQ(p.earliestFit(0, 100, 40), 0);    // fits beside the running job
  EXPECT_EQ(p.earliestFit(0, 100, 41), 1000); // must wait for the release
}

TEST(ResourceProfile, ReserveCreatesHole) {
  ResourceProfile p(Machine{10}, 0);
  p.reserve(100, 50, 10);  // full machine for [100, 150)
  EXPECT_EQ(p.freeAt(99), 10);
  EXPECT_EQ(p.freeAt(100), 0);
  EXPECT_EQ(p.freeAt(149), 0);
  EXPECT_EQ(p.freeAt(150), 10);
  // A job of 60 s cannot start in [41, 99]; earliest is 150 for width > 0
  // jobs that overlap the blocked window.
  EXPECT_EQ(p.earliestFit(50, 60, 1), 150);
  EXPECT_EQ(p.earliestFit(0, 60, 1), 0);  // fits before the hole: [0,60)...
}

TEST(ResourceProfile, EarliestFitSkipsTooShortGaps) {
  ResourceProfile p(Machine{4}, 0);
  p.reserve(10, 10, 4);  // block [10, 20)
  p.reserve(25, 10, 4);  // block [25, 35)
  // Gap [20, 25) is 5 s wide: a 6 s job must wait until 35.
  EXPECT_EQ(p.earliestFit(0, 6, 1), 0);
  EXPECT_EQ(p.earliestFit(12, 6, 1), 35);
  EXPECT_EQ(p.earliestFit(12, 5, 1), 20);
}

TEST(ResourceProfile, ReserveRejectsOverflow) {
  ResourceProfile p(Machine{8}, 0);
  p.reserve(0, 100, 6);
  EXPECT_THROW(p.reserve(50, 10, 3), CheckError);
  EXPECT_NO_THROW(p.reserve(50, 10, 2));
}

bool sameSteps(const std::vector<MachineHistory::Entry>& a,
               const std::vector<MachineHistory::Entry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const MachineHistory::Entry& x,
                       const MachineHistory::Entry& y) {
                      return x.time == y.time && x.freeNodes == y.freeNodes;
                    });
}

TEST(ResourceProfile, ReserveRejectsOverflowInALaterSegment) {
  // [20, 60) fits in its first segment ([0, 50), 8 free) but not in its
  // second ([50, 60), 2 free): the reservation must throw before it splits
  // or decrements anything.
  ResourceProfile p(Machine{8}, 0);
  p.reserve(50, 10, 6);
  const auto before = p.steps();
  const std::size_t segments = p.segmentCount();
  EXPECT_THROW(p.reserve(20, 40, 3), CheckError);
  EXPECT_TRUE(sameSteps(p.steps(), before)) << p.toString();
  EXPECT_EQ(p.segmentCount(), segments);
  EXPECT_THROW(p.reserve(0, 10, 9), CheckError);  // wider than the machine
  EXPECT_TRUE(sameSteps(p.steps(), before)) << p.toString();
  EXPECT_NO_THROW(p.reserve(20, 40, 2));
  EXPECT_EQ(p.freeAt(55), 0);
}

TEST(ResourceProfile, PlaceReservesTheEarliestFit) {
  ResourceProfile p(Machine{4}, 0);
  p.reserve(10, 10, 4);  // block [10, 20)
  EXPECT_EQ(p.place(0, 15, 1), 20);  // [0, 10) is too short
  EXPECT_EQ(p.freeAt(20), 3);
  EXPECT_EQ(p.freeAt(34), 3);
  EXPECT_EQ(p.freeAt(35), 4);
  EXPECT_EQ(p.place(0, 10, 4), 0);  // fills the gap exactly
  EXPECT_EQ(p.freeAt(0), 0);
  EXPECT_EQ(p.earliestFit(0, 1, 1), 20);
  EXPECT_THROW(p.place(0, 10, 5), CheckError);  // wider than the machine
}

TEST(ResourceProfile, SegmentsMergeAfterAdjacentReservations) {
  ResourceProfile p(Machine{8}, 0);
  p.reserve(0, 10, 4);
  p.reserve(10, 10, 4);  // same capacity as the previous segment: merges
  // Expect segments: [0,20) free=4, [20,inf) free=8.
  EXPECT_EQ(p.segmentCount(), 2u);
}

TEST(ResourceProfile, StepsRoundTripToHistoryShape) {
  const auto h = MachineHistory::fromRunningJobs(
      Machine{100}, 0, {{1, 60, 1000}, {2, 20, 2000}});
  ResourceProfile p(h);
  const auto steps = p.steps();
  ASSERT_EQ(steps.size(), h.entries().size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].time, h.entries()[i].time);
    EXPECT_EQ(steps[i].freeNodes, h.entries()[i].freeNodes);
  }
}

// ---------------------------------------------------------------------------
// Property test: random reservations against a per-second oracle.
// ---------------------------------------------------------------------------

struct ProfileCase {
  std::uint64_t seed;
  NodeCount machine;
  int operations;
};

class ProfileRandomTest : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(ProfileRandomTest, MatchesPerSecondOracle) {
  const ProfileCase param = GetParam();
  util::Rng rng(param.seed);
  constexpr Time kHorizon = 600;

  // Random machine history.
  std::vector<RunningJob> running;
  NodeCount busy = 0;
  while (busy < param.machine / 2 && rng.bernoulli(0.8)) {
    const NodeCount w = static_cast<NodeCount>(
        rng.uniformInt(1, std::max<NodeCount>(1, param.machine / 4)));
    if (busy + w > param.machine) break;
    running.push_back(RunningJob{static_cast<JobId>(running.size() + 1), w,
                                 rng.uniformInt(1, 120)});
    busy += w;
  }
  const auto history =
      MachineHistory::fromRunningJobs(Machine{param.machine}, 0, running);
  ResourceProfile profile(history);
  ResourceProfile placed(history);  // the same placements through place()

  // Oracle: per-second free capacity array.
  std::vector<NodeCount> oracle(kHorizon);
  for (Time t = 0; t < kHorizon; ++t) oracle[static_cast<std::size_t>(t)] = history.freeAt(t);

  for (int op = 0; op < param.operations; ++op) {
    const NodeCount width = static_cast<NodeCount>(
        rng.uniformInt(1, param.machine));
    const Time duration = rng.uniformInt(1, 40);
    const Time ready = rng.uniformInt(0, 100);

    // Oracle earliest fit.
    Time expected = -1;
    for (Time s = ready; s + duration <= kHorizon; ++s) {
      bool ok = true;
      for (Time t = s; t < s + duration; ++t) {
        if (oracle[static_cast<std::size_t>(t)] < width) {
          ok = false;
          break;
        }
      }
      if (ok) {
        expected = s;
        break;
      }
    }
    if (expected < 0) continue;  // would land beyond the oracle horizon

    const Time got = profile.earliestFit(ready, duration, width);
    ASSERT_EQ(got, expected)
        << "op " << op << " seed " << param.seed << " width " << width
        << " dur " << duration << " ready " << ready;

    ASSERT_TRUE(profile.fits(got, duration, width));
    profile.reserve(got, duration, width);
    // Differential: the one-pass place() on a twin profile finds the same
    // start and leaves the same staircase as earliestFit() + reserve().
    ASSERT_EQ(placed.place(ready, duration, width), got)
        << "op " << op << " seed " << param.seed;
    ASSERT_TRUE(sameSteps(placed.steps(), profile.steps()))
        << "op " << op << " seed " << param.seed << "\nreserve:\n"
        << profile.toString() << "place:\n" << placed.toString();
    ASSERT_EQ(placed.segmentCount(), profile.segmentCount());
    for (Time t = got; t < got + duration; ++t) {
      oracle[static_cast<std::size_t>(t)] -= width;
    }
    // Spot-check freeAt at random instants.
    for (int probe = 0; probe < 5; ++probe) {
      const Time t = rng.uniformInt(0, kHorizon - 1);
      ASSERT_EQ(profile.freeAt(t), oracle[static_cast<std::size_t>(t)])
          << "probe at " << t << " seed " << param.seed;
    }
  }
}

std::vector<ProfileCase> profileCases() {
  std::vector<ProfileCase> cases;
  std::uint64_t seed = 9000;
  for (const NodeCount machine : {1, 2, 7, 32, 430}) {
    for (const int ops : {5, 25, 60}) {
      for (int rep = 0; rep < 2; ++rep) {
        cases.push_back(ProfileCase{seed++, machine, ops});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ProfileRandomTest,
                         ::testing::ValuesIn(profileCases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "_m" + std::to_string(info.param.machine) +
                                  "_o" + std::to_string(info.param.operations);
                         });

}  // namespace
}  // namespace dynsched::core
