// The basic scheduling policies of the dynP family.
//
// CCS implements FCFS, SJF and LJF (paper Section 2); a policy here is a
// total order on waiting jobs. The planner then places jobs earliest-fit in
// that order, which performs backfilling implicitly.
#pragma once

#include <array>
#include <vector>

#include "dynsched/core/job.hpp"

namespace dynsched::core {

enum class PolicyKind {
  Fcfs,  ///< first come, first served (by submit time)
  Sjf,   ///< shortest (estimated duration) job first
  Ljf,   ///< longest (estimated duration) job first
  // Extension beyond the paper's three CCS policies (the dynP family is
  // explicitly open to more): area = width · estimated duration.
  Saf,   ///< smallest area first
  Laf,   ///< largest area first
};

/// The three policies in the paper's fixed evaluation order (the CCS set).
inline constexpr std::array<PolicyKind, 3> kAllPolicies = {
    PolicyKind::Fcfs, PolicyKind::Sjf, PolicyKind::Ljf};

/// The extended family including the area-ordered policies.
inline constexpr std::array<PolicyKind, 5> kExtendedPolicies = {
    PolicyKind::Fcfs, PolicyKind::Sjf, PolicyKind::Ljf, PolicyKind::Saf,
    PolicyKind::Laf};

const char* policyName(PolicyKind policy);

/// Validated u8 → PolicyKind conversion (the journal serializes policies as
/// one byte). Returns false on an out-of-range value.
bool policyFromIndex(std::uint8_t index, PolicyKind& policy);

/// Strict-weak-order comparator for the policy. Ties break by submit time,
/// then job id, so orderings are deterministic.
bool policyLess(PolicyKind policy, const Job& a, const Job& b);

/// Returns `jobs` sorted according to the policy.
std::vector<Job> sortByPolicy(PolicyKind policy, std::vector<Job> jobs);

}  // namespace dynsched::core
