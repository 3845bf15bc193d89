// Advance-reservation tests: admission control, capacity interaction with
// the machine history, planner integration, and end-to-end simulation
// (completed jobs never overlap a reserved rectangle).
#include <gtest/gtest.h>

#include "dynsched/core/planner.hpp"
#include "dynsched/core/reservation.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/trace/synthetic.hpp"

namespace dynsched::core {
namespace {

Job makeJob(JobId id, Time submit, NodeCount width, Time estimate) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.width = width;
  j.estimate = estimate;
  j.actualRuntime = estimate;
  return j;
}

TEST(ReservationBook, AdmitsWithinFreeCapacity) {
  const auto history = MachineHistory::empty(Machine{100}, 0);
  ReservationBook book;
  EXPECT_TRUE(book.admit(history, {1, 1000, 500, 60}, 0));
  // A second 60-node reservation overlapping the first does not fit.
  EXPECT_FALSE(book.canAdmit(history, {2, 1200, 500, 60}, 0));
  EXPECT_FALSE(book.admit(history, {2, 1200, 500, 60}, 0));
  // 40 nodes beside the first reservation do fit.
  EXPECT_TRUE(book.admit(history, {3, 1200, 100, 40}, 0));
  EXPECT_EQ(book.reservations().size(), 2u);
}

TEST(ReservationBook, RespectsMachineHistory) {
  // 70/100 nodes busy until t=2000: a 40-node reservation at t=500 cannot
  // be admitted, but one after the release can.
  const auto history =
      MachineHistory::fromRunningJobs(Machine{100}, 0, {{9, 70, 2000}});
  ReservationBook book;
  EXPECT_FALSE(book.canAdmit(history, {1, 500, 100, 40}, 0));
  EXPECT_TRUE(book.canAdmit(history, {1, 2000, 100, 40}, 0));
}

TEST(ReservationBook, RejectsPastAndOversized) {
  const auto history = MachineHistory::empty(Machine{10}, 1000);
  ReservationBook book;
  EXPECT_FALSE(book.canAdmit(history, {1, 0, 500, 2}, 1000));   // in the past
  EXPECT_FALSE(book.canAdmit(history, {2, 2000, 100, 11}, 1000));  // too wide
  // A reservation straddling `now` is clipped and judged on its remainder.
  EXPECT_TRUE(book.canAdmit(history, {3, 900, 500, 4}, 1000));
}

TEST(ReservationBook, CancelFreesCapacity) {
  const auto history = MachineHistory::empty(Machine{10}, 0);
  ReservationBook book;
  EXPECT_TRUE(book.admit(history, {1, 100, 100, 10}, 0));
  EXPECT_FALSE(book.canAdmit(history, {2, 150, 10, 1}, 0));
  EXPECT_TRUE(book.cancel(1));
  EXPECT_FALSE(book.cancel(1));  // already gone
  EXPECT_TRUE(book.canAdmit(history, {2, 150, 10, 1}, 0));
}

TEST(ReservationBook, ActiveAtClipsExpired) {
  const auto history = MachineHistory::empty(Machine{10}, 0);
  ReservationBook book;
  ASSERT_TRUE(book.admit(history, {1, 100, 100, 4}, 0));
  ASSERT_TRUE(book.admit(history, {2, 500, 100, 4}, 0));
  EXPECT_EQ(book.activeAt(0).size(), 2u);
  EXPECT_EQ(book.activeAt(300).size(), 1u);   // first expired
  const auto active = book.activeAt(550);     // second clipped
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].start, 550);
  EXPECT_EQ(active[0].duration, 50);
  EXPECT_TRUE(book.activeAt(1000).empty());
}

TEST(Planner, PlansAroundReservation) {
  // Full-machine reservation [100, 200): a full-machine job submitted at 50
  // with 80 s duration cannot fit before it and starts at 200.
  const auto history = MachineHistory::empty(Machine{10}, 0);
  ReservationBook book;
  ASSERT_TRUE(book.admit(history, {99, 100, 100, 10}, 0));
  const std::vector<Job> waiting = {makeJob(1, 50, 10, 80)};
  const Schedule s =
      planSchedule(history, waiting, PolicyKind::Fcfs, 50, &book);
  EXPECT_EQ(s.find(1)->start, 200);
  // A short job fits in front of the reservation.
  const std::vector<Job> shortJob = {makeJob(2, 50, 10, 50)};
  const Schedule s2 =
      planSchedule(history, shortJob, PolicyKind::Fcfs, 50, &book);
  EXPECT_EQ(s2.find(2)->start, 50);
}

TEST(Planner, PartialWidthReservationLeavesRoom) {
  const auto history = MachineHistory::empty(Machine{10}, 0);
  ReservationBook book;
  ASSERT_TRUE(book.admit(history, {99, 0, 1000, 6}, 0));
  const std::vector<Job> waiting = {makeJob(1, 0, 4, 100),
                                    makeJob(2, 0, 5, 100)};
  const Schedule s = planSchedule(history, waiting, PolicyKind::Fcfs, 0, &book);
  EXPECT_EQ(s.find(1)->start, 0);      // 4 <= 10-6 free
  EXPECT_EQ(s.find(2)->start, 1000);   // 5 > 4 free until the window ends
}

TEST(Simulator, CompletedJobsNeverOverlapReservations) {
  const auto trace = trace::ctcModel().generate(150, 67);
  sim::SimOptions options;
  options.kind = sim::SchedulerKind::DynP;
  // Two maintenance-style windows inside the busy period.
  options.reservations = {{9001, 20000, 7200, 430},
                          {9002, 60000, 3600, 200}};
  sim::RmsSimulator simulator(core::Machine{430}, options);
  const auto report = simulator.run(core::fromSwf(trace));
  EXPECT_EQ(report.completed.size(), 150u);
  // Capacity audit: at every probed reservation second, the width actually
  // running (observed [start, end) intervals) plus the reservation width
  // fits the machine. Actual occupancy is a subset of what each replan
  // guaranteed capacity for, so this must hold throughout the window.
  for (const core::Reservation& r : options.reservations) {
    for (Time t = r.start; t < r.end(); t += 60) {
      NodeCount busy = 0;
      for (const auto& c : report.completed) {
        if (c.start <= t && t < c.end) busy += c.job.width;
      }
      EXPECT_LE(busy + r.width, 430)
          << "reservation " << r.id << " violated at t=" << t;
    }
  }
}

TEST(Simulator, InfeasibleReservationAborts) {
  sim::SimOptions options;
  options.reservations = {{1, 100, 100, 430}, {2, 150, 100, 1}};
  sim::RmsSimulator simulator(core::Machine{430}, options);
  EXPECT_THROW(simulator.run({makeJob(1, 0, 1, 10)}), CheckError);
}

}  // namespace
}  // namespace dynsched::core
