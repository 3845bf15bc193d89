// dynsched-lint CLI. Scans the given files/directories against the project
// rule catalog (see tools/lint/lint.hpp) and reports findings as
// "file:line:col: RULE: message" text or as JSON.
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O errors — so CI can
// distinguish "the tree is dirty" from "the gate itself did not run".
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace {

int usage(std::ostream& os, int exitCode) {
  os << "usage: dynsched_lint [options] <path>...\n"
        "\n"
        "Scans *.cpp/*.cc/*.hpp/*.h under the given paths against the\n"
        "dynsched project rules (DSL001..DSL007 structural, DSL100..DSL107\n"
        "hot-path performance, DSL200..DSL207 module graph / layering).\n"
        "\n"
        "options:\n"
        "  --json                  emit the JSON report on stdout\n"
        "  --json-out <file>       also write the JSON report to <file>\n"
        "  --layers <file>         layer contract (tools/lint/layers.txt);\n"
        "                          enables the DSL200 layer gate\n"
        "  --graph-json <file>     write the resolved module graph as JSON\n"
        "  --graph-dot <file>      write the module graph as Graphviz dot\n"
        "  --baseline <file>       report only findings NOT recorded in\n"
        "                          <file>; recorded ones are suppressed,\n"
        "                          stale record entries are warned about\n"
        "  --write-baseline <file> record the current findings to <file>\n"
        "                          and exit 0 (the flag-day escape hatch:\n"
        "                          land a new rule family gating only new\n"
        "                          code, then burn the recorded debt down)\n"
        "  --list-rules            print the rule catalog as JSON and exit\n"
        "  -h, --help              this help\n"
        "\n"
        "Baselines record rule+file+snippet (never line numbers), so they\n"
        "survive unrelated edits; re-record after fixing to shrink them.\n"
        "\n"
        "Suppress a finding with a reasoned comment on the same line or the\n"
        "line above:\n"
        "  // dynsched-lint: allow(DSL004) writes a temp file it owns\n"
        "\n"
        "exit: 0 clean, 1 findings, 2 usage/errors\n";
  return exitCode;
}

std::string jsonQuote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

int listRules() {
  std::cout << "{\n  \"tool\": \"dynsched-lint\",\n  \"rules\": [";
  bool first = true;
  for (const auto& rule : dynsched::lint::ruleCatalog()) {
    std::cout << (first ? "" : ",") << "\n    {\"id\": " << jsonQuote(rule.id)
              << ", \"summary\": " << jsonQuote(rule.summary)
              << ", \"scope\": " << jsonQuote(rule.scope)
              << ", \"since\": " << rule.since << "}";
    first = false;
  }
  std::cout << "\n  ]\n}\n";
  return 0;
}

bool writeFileOrComplain(const std::string& path, const std::string& text) {
  // Advisory report/baseline output, not crash-safe state, and this tool
  // must stay dependency-free of the dynsched libraries it lints.
  // dynsched-lint: allow(DSL004) standalone tool; report files are advisory output
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "dynsched-lint: cannot write " << path << "\n";
    return false;
  }
  out << text;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool jsonStdout = false;
  std::string jsonOut;
  std::string baselinePath;
  std::string writeBaselinePath;
  std::string layersPath;
  std::string graphJsonOut;
  std::string graphDotOut;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") return usage(std::cout, 0);
    if (arg == "--list-rules") return listRules();
    if (arg == "--json") {
      jsonStdout = true;
      continue;
    }
    if (arg == "--json-out" || arg == "--baseline" ||
        arg == "--write-baseline" || arg == "--layers" ||
        arg == "--graph-json" || arg == "--graph-dot") {
      if (i + 1 >= argc) {
        std::cerr << "dynsched-lint: " << arg << " needs a file argument\n";
        return 2;
      }
      std::string& slot = arg == "--json-out"       ? jsonOut
                          : arg == "--baseline"     ? baselinePath
                          : arg == "--write-baseline" ? writeBaselinePath
                          : arg == "--layers"       ? layersPath
                          : arg == "--graph-json"   ? graphJsonOut
                                                    : graphDotOut;
      slot = argv[++i];
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "dynsched-lint: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
    paths.push_back(arg);
  }
  if (paths.empty()) {
    std::cerr << "dynsched-lint: no paths given\n";
    return usage(std::cerr, 2);
  }
  if (!baselinePath.empty() && !writeBaselinePath.empty()) {
    std::cerr << "dynsched-lint: --baseline and --write-baseline are "
                 "mutually exclusive\n";
    return 2;
  }

  dynsched::lint::LintPathsOptions options;
  if (!layersPath.empty()) {
    std::ifstream in(layersPath, std::ios::binary);
    if (!in) {
      std::cerr << "dynsched-lint: cannot read layers file " << layersPath
                << "\n";
      return 2;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    options.layersText = contents.str();
    if (options.layersText.empty()) {
      std::cerr << "dynsched-lint: layers file " << layersPath
                << " is empty\n";
      return 2;
    }
  }
  dynsched::lint::ModuleGraph graph;
  options.graphOut = &graph;

  dynsched::lint::LintResult result = dynsched::lint::lintPaths(paths, options);

  if (!graphJsonOut.empty() &&
      !writeFileOrComplain(graphJsonOut,
                           dynsched::lint::renderGraphJson(graph))) {
    return 2;
  }
  if (!graphDotOut.empty() &&
      !writeFileOrComplain(graphDotOut,
                           dynsched::lint::renderGraphDot(graph))) {
    return 2;
  }

  if (!writeBaselinePath.empty()) {
    if (!writeFileOrComplain(writeBaselinePath,
                             dynsched::lint::renderBaseline(result))) {
      return 2;
    }
    std::cout << "dynsched-lint: recorded " << result.findings.size()
              << " finding" << (result.findings.size() == 1 ? "" : "s")
              << " to " << writeBaselinePath << "\n";
    return result.errors.empty() ? 0 : 2;
  }

  if (!baselinePath.empty()) {
    std::ifstream in(baselinePath, std::ios::binary);
    if (!in) {
      std::cerr << "dynsched-lint: cannot read baseline " << baselinePath
                << "\n";
      return 2;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    const dynsched::lint::BaselineResult applied =
        dynsched::lint::applyBaseline(result, contents.str());
    if (!applied.error.empty()) {
      std::cerr << "dynsched-lint: " << baselinePath << ": " << applied.error
                << "\n";
      return 2;
    }
    for (const std::string& stale : applied.stale) {
      std::cerr << "dynsched-lint: stale baseline entry (no longer fires): "
                << stale << "\n";
    }
    if (applied.suppressed > 0) {
      std::cerr << "dynsched-lint: " << applied.suppressed
                << " recorded finding"
                << (applied.suppressed == 1 ? "" : "s")
                << " suppressed by baseline " << baselinePath << "\n";
    }
  }

  if (!jsonOut.empty() &&
      !writeFileOrComplain(jsonOut, dynsched::lint::renderJson(result))) {
    return 2;
  }
  std::cout << (jsonStdout ? dynsched::lint::renderJson(result)
                           : dynsched::lint::renderText(result));
  if (!result.errors.empty()) {
    for (const std::string& error : result.errors) {
      std::cerr << "dynsched-lint: error: " << error << "\n";
    }
    return 2;
  }
  return result.findings.empty() ? 0 : 1;
}
