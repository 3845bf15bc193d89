// Planning-based schedule construction.
//
// planSchedule() is the paper's planning-based scheduler: sort the waiting
// jobs by the active policy, then place each at its earliest feasible start
// in the free-capacity profile. Because a later job may slot into a hole
// left in front of an earlier (wider) one without delaying it, "backfilling
// is done implicitly" (paper Section 2).
//
// Given a ReservationBook, planSchedule() plans around the admitted advance
// reservations (see reservation.hpp); the base profile then carries both
// the machine history and the reserved rectangles.
//
// planEasyBackfill() is a queueing-style EASY baseline (ablation, DESIGN.md
// Section 6): strict queue order, a reservation only for the queue head,
// other jobs may jump ahead only if they do not delay that reservation.
#pragma once

#include <vector>

#include "dynsched/core/policies.hpp"
#include "dynsched/core/reservation.hpp"
#include "dynsched/core/schedule.hpp"

namespace dynsched::core {

class MachineHistory;  // plans only read it by reference

/// Builds a full schedule for `waiting` at time `now` under `policy`, given
/// the machine history (running jobs) and, when `reservations` is non-null,
/// the admitted advance reservations. Jobs are planned with their estimated
/// duration; every job gets a start >= max(now, submit).
Schedule planSchedule(const MachineHistory& history,
                      const std::vector<Job>& waiting, PolicyKind policy,
                      Time now, const ReservationBook* reservations = nullptr);

/// Places jobs in a caller-supplied order (no sorting). Used by the ILP
/// compaction step, which must preserve the solver's starting order.
Schedule planInOrder(const MachineHistory& history,
                     const std::vector<Job>& ordered, Time now);

/// In-order placement into an explicit starting profile (history already
/// reduced by reservations or other commitments). The profile is consumed.
Schedule planInOrder(ResourceProfile profile,
                     const std::vector<Job>& ordered, Time now);

/// EASY-backfilling baseline on FCFS queue order (see file comment).
Schedule planEasyBackfill(const MachineHistory& history,
                          const std::vector<Job>& waiting, Time now);

}  // namespace dynsched::core
