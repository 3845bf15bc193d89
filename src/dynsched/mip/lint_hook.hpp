// Dependency-inverted model-lint seam for the MIP solver.
//
// solveMip lints its model before solving via DYNSCHED_MIP_LINT_MODEL.
// mip only *declares* the hook; the analysis library defines it in
// model_lint.cpp (enforceLint over lintModel), so no mip TU includes
// analysis headers — same include-level inversion as core/audit_hook.hpp.
#pragma once

namespace dynsched::mip {

struct MipModel;

/// Lints `model` and enforces the report (errors throw analysis::AuditError
/// naming `site` while auditing is enabled). Defined in
/// analysis/model_lint.cpp.
void lintModelHook(const char* site, const MipModel& model);

}  // namespace dynsched::mip

// Solvers use the macro so audit-free builds carry no lint pass at all.
#if defined(DYNSCHED_AUDIT_ENABLED) && DYNSCHED_AUDIT_ENABLED
#define DYNSCHED_MIP_LINT_MODEL(site, model) \
  ::dynsched::mip::lintModelHook((site), (model))
#else
#define DYNSCHED_MIP_LINT_MODEL(site, model) ((void)0)
#endif
