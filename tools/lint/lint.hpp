// dynsched-lint — project-rule linter for the dynsched tree.
//
// A token-level scanner with a lightweight scope analysis (no libclang) that
// enforces the project rules the generic tools cannot express — which
// primitives are allowed where, and what the solver hot path may allocate.
// Generic analyzers know what a data race is; only the project knows that
// every mutex must be a capability-annotated util::Mutex, that threads are
// only spawned by util::ThreadPool, or that the per-node B&B code must not
// allocate per iteration. Each rule has a stable ID, a structured finding,
// and a suppression syntax:
//
//   // dynsched-lint: allow(DSL004) reason why this raw write is correct
//
// on the offending line or the line directly above. A suppression without a
// reason is itself a finding (DSL000) — "trust me" is not a reason.
//
// Structural rules (scoping paths are substring matches on /-normalized
// paths):
//   DSL000  malformed suppression (unknown rule ID or missing reason)
//   DSL001  raw std::mutex / condition_variable / lock types outside
//           util/mutex.hpp — use util::Mutex/MutexLock/CondVar so
//           -Wthread-safety sees the capability
//   DSL002  util::Mutex declared without any DYNSCHED_GUARDED_BY(<name>)
//           field in the same file — a capability that guards nothing
//   DSL003  std::thread / pthread_create outside util/thread_pool — all
//           parallelism goes through the pool (shutdown, draining, joining)
//   DSL004  raw file writes (std::ofstream / fopen) outside
//           util/journal.cpp and lp/mps_writer — route through
//           util::atomicWriteFile (crash-safe temp+rename)
//   DSL005  unchecked * or + between model-size expressions in tip/, lp/,
//           mip/ — route through util::checkedMul/checkedAdd (2^63
//           overflow on width·time·count products is UB); chains already
//           widened by a static_cast<size_t/int64_t/...> do not fire
//   DSL006  rand()/srand()/std:: random machinery outside util/rng —
//           benches must be bit-reproducible across standard libraries
//   DSL007  catch (...) whose handler neither rethrows nor captures the
//           exception (std::current_exception) — errors must not be
//           silently dropped
//   DSL008  raw socket syscalls (socket/accept/bind/listen/connect/recv/
//           send/recvfrom/sendto) outside src/dynsched/serve/net_* — all
//           network I/O goes through the serve::net RAII wrappers (EINTR
//           handling, poll-bounded reads, fault injection, fd lifetime)
//
// Performance rules (hot path only: files under lp/, mip/, tip/ — the code
// that runs per simplex iteration / per B&B node; see DESIGN.md §8):
//   DSL100  new / make_unique / make_shared inside a loop
//   DSL101  container or heavy model object (ResourceProfile, Schedule,
//           LpModel, ...) constructed inside a loop — hoist and reuse
//   DSL102  push_back/emplace_back in a loop with no reserve()/resize()
//           for that container anywhere in the file
//   DSL103  non-trivial parameter passed by value in a function definition
//           (exempt when the body std::move()s it into place — sink params)
//   DSL104  repeated map operator[]/at() lookups with the same key inside
//           one function — hoist a reference
//   DSL105  std::endl anywhere, or stream flush inside a loop
//   DSL106  shared_ptr copies (by-value param / per-iteration copy)
//   DSL107  heavy container returned by value from a per-node B&B helper
//           (name contains node/child/candidate/branch/dfs/separate/...)
//
// Module-graph rules (include-graph pass over the whole scanned tree; the
// layer DAG lives in tools/lint/layers.txt, see DESIGN.md §9):
//   DSL200  include crossing module layers in a direction layers.txt does
//           not declare (upward or undeclared cross-layer dependency)
//   DSL201  include cycle (module- or file-level), reported with the full
//           cycle path
//   DSL202  private header (a module's detail/ or internal header) included
//           from another module
//   DSL203  module-qualified symbol used without a direct include of any
//           header from that module (include-what-you-use-lite; a .cpp is
//           covered by its primary header's direct includes)
//   DSL204  non-inline function/variable definition at namespace scope in a
//           header (ODR violation once two TUs include it)
//   DSL205  missing or duplicated #pragma once in a header
//   DSL206  using namespace at header scope (leaks into every includer)
//   DSL207  header include whose defined types appear only as pointers or
//           references — forward-declare instead and move the include into
//           the consuming .cpp
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dynsched::lint {

struct Finding {
  std::string file;
  std::size_t line = 0;    ///< 1-based
  std::size_t column = 0;  ///< 1-based
  std::string rule;        ///< "DSL001" ... "DSL207", "DSL000"
  std::string message;
  std::string snippet;     ///< the offending source line, whitespace-trimmed
};

struct RuleInfo {
  const char* id;
  const char* summary;
  /// Where the rule applies ("all files", "hot path (lp/, mip/, tip/)",
  /// "headers", "tree (include graph)") — mirrored by the DESIGN.md tables.
  const char* scope;
  /// Catalog generation that introduced the rule: 1 = DSL00x structural,
  /// 2 = DSL10x hot-path perf, 3 = DSL20x module graph, 4 = serving-layer
  /// structural additions (DSL008).
  int since;
};

/// Stable rule catalog (for --list-rules and the docs).
const std::vector<RuleInfo>& ruleCatalog();

/// Lints one in-memory file. `path` selects which rules apply (scoping is
/// substring-based on the /-normalized path) and labels the findings.
std::vector<Finding> lintFile(const std::string& path,
                              std::string_view contents);

struct LintResult {
  std::vector<Finding> findings;
  std::size_t filesScanned = 0;
  /// I/O problems (unreadable file, missing path) — distinct from findings;
  /// any entry here makes the run fail with exit 2, not 1.
  std::vector<std::string> errors;
};

// ---------------------------------------------------------------------------
// Include-graph pass (DSL200..DSL203, DSL207) and the module graph it
// resolves. Files are mapped to modules by path (the component after
// "dynsched/", or "tools"); quote includes resolve includer-relative first,
// then against the scan roots ("src/", "tools/"); angle includes resolve
// against the roots only; unresolved includes are external and ignored.

/// An in-memory file handed to analyzeIncludeGraph (tests build fixture
/// trees without touching the filesystem).
struct SourceFile {
  std::string path;  ///< /-normalized; selects the module
  std::string contents;
};

struct ModuleEdge {
  std::string from;
  std::string to;
  std::size_t includeCount = 0;  ///< #include directives behind the edge
  bool declared = false;         ///< allowed by layers.txt
};

/// The resolved module-level include graph (for --graph-json/--graph-dot).
struct ModuleGraph {
  /// layers.txt order first, then undeclared modules alphabetically.
  std::vector<std::string> modules;
  std::map<std::string, std::vector<std::string>> moduleFiles;
  /// Declared allowed dependencies per module, from layers.txt.
  std::map<std::string, std::vector<std::string>> declaredDeps;
  std::vector<ModuleEdge> edges;  ///< actual cross-module edges, sorted
};

struct IncludeGraphResult {
  std::vector<Finding> findings;
  ModuleGraph graph;
  /// Malformed layers.txt (bad syntax, unknown dep, cyclic declaration) —
  /// gate errors, not findings: the run exits 2.
  std::vector<std::string> errors;
};

/// Cross-file analysis over a whole tree. `layersText` holds the layers.txt
/// contents; when empty the DSL200 layer gate is off (graph resolution,
/// cycles, and the other rules still run).
IncludeGraphResult analyzeIncludeGraph(const std::vector<SourceFile>& files,
                                       std::string_view layersText);

/// {modules: [{name, files, declaredDeps}], edges: [{from, to, includes,
/// declared}]} — the architecture artifact CI archives.
std::string renderGraphJson(const ModuleGraph& graph);

/// Graphviz digraph: solid = declared+used, red = undeclared (violation),
/// dashed = declared but currently unused.
std::string renderGraphDot(const ModuleGraph& graph);

struct LintPathsOptions {
  /// layers.txt contents ("" = no layer gate).
  std::string layersText;
  /// When non-null, receives the resolved module graph.
  ModuleGraph* graphOut = nullptr;
};

/// Lints files and directories (recursively; *.cpp/*.cc/*.hpp/*.h, hidden
/// and build*/ directories skipped), including the cross-file include-graph
/// pass. Findings are sorted by file/line.
LintResult lintPaths(const std::vector<std::string>& paths);
LintResult lintPaths(const std::vector<std::string>& paths,
                     const LintPathsOptions& options);

/// "file:line:col: RULE: message" lines plus a summary tail.
std::string renderText(const LintResult& result);

/// Machine-readable report: {tool, version, filesScanned, findings: [{file,
/// line, column, rule, message, snippet}], counts: {RULE: n}, total}.
std::string renderJson(const LintResult& result);

/// Serializes the findings as a baseline file: a header line followed by
/// one sorted "rule<TAB>file<TAB>snippet" line per finding. Line numbers
/// are deliberately absent so the record survives unrelated edits.
std::string renderBaseline(const LintResult& result);

struct BaselineResult {
  std::size_t suppressed = 0;      ///< findings matched (and removed)
  std::vector<std::string> stale;  ///< recorded entries that no longer fire
  std::string error;               ///< non-empty: baseline unusable (exit 2)
};

/// Filters result.findings in place against a recorded baseline: findings
/// present in the record (multiset match on rule+file+snippet) are dropped,
/// only new ones remain. Stale entries — recorded findings that no longer
/// fire — are reported so the baseline can be re-recorded smaller.
BaselineResult applyBaseline(LintResult& result,
                             std::string_view baselineText);

}  // namespace dynsched::lint
