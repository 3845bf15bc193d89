#include "dynsched/core/policies.hpp"

#include <algorithm>
#include <tuple>

namespace dynsched::core {

const char* policyName(PolicyKind policy) {
  switch (policy) {
    case PolicyKind::Fcfs: return "FCFS";
    case PolicyKind::Sjf: return "SJF";
    case PolicyKind::Ljf: return "LJF";
    case PolicyKind::Saf: return "SAF";
    case PolicyKind::Laf: return "LAF";
  }
  return "?";
}

bool policyFromIndex(std::uint8_t index, PolicyKind& policy) {
  if (index >= kExtendedPolicies.size()) return false;
  policy = static_cast<PolicyKind>(index);
  return true;
}

bool policyLess(PolicyKind policy, const Job& a, const Job& b) {
  switch (policy) {
    case PolicyKind::Fcfs:
      return std::tie(a.submit, a.id) < std::tie(b.submit, b.id);
    case PolicyKind::Sjf:
      return std::tie(a.estimate, a.submit, a.id) <
             std::tie(b.estimate, b.submit, b.id);
    case PolicyKind::Ljf: {
      if (a.estimate != b.estimate) return a.estimate > b.estimate;
      return std::tie(a.submit, a.id) < std::tie(b.submit, b.id);
    }
    case PolicyKind::Saf: {
      if (a.area() != b.area()) return a.area() < b.area();
      return std::tie(a.submit, a.id) < std::tie(b.submit, b.id);
    }
    case PolicyKind::Laf: {
      if (a.area() != b.area()) return a.area() > b.area();
      return std::tie(a.submit, a.id) < std::tie(b.submit, b.id);
    }
  }
  return false;
}

std::vector<Job> sortByPolicy(PolicyKind policy, std::vector<Job> jobs) {
  std::sort(jobs.begin(), jobs.end(), [policy](const Job& a, const Job& b) {
    return policyLess(policy, a, b);
  });
  return jobs;
}

}  // namespace dynsched::core
