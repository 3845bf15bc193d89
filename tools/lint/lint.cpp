#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lint/internal.hpp"

namespace dynsched::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule catalog & path scoping

constexpr const char* kScopeAll = "all files";
constexpr const char* kScopeHot = "hot path (lp/, mip/, tip/)";
constexpr const char* kScopeHeaders = "headers";
constexpr const char* kScopeTree = "tree (include graph)";

const std::vector<RuleInfo> kRules = {
    {"DSL000", "malformed dynsched-lint suppression (unknown rule ID or "
               "missing reason)", kScopeAll, 1},
    {"DSL001", "raw std:: mutex/condition_variable/lock outside util/mutex.hpp"
               " — use the capability-annotated util::Mutex family",
     kScopeAll, 1},
    {"DSL002", "util::Mutex member without a DYNSCHED_GUARDED_BY(<name>) "
               "field in the same file", kScopeAll, 1},
    {"DSL003", "std::thread / pthread_create outside util/thread_pool — all "
               "parallelism goes through util::ThreadPool", kScopeAll, 1},
    {"DSL004", "raw file write (std::ofstream / fopen) outside util/journal "
               "and lp/mps_writer — use util::atomicWriteFile", kScopeAll, 1},
    {"DSL005", "unchecked * or + on model-size expressions in tip//lp//mip/ "
               "— use util::checkedMul / util::checkedAdd", kScopeHot, 1},
    {"DSL006", "rand()/std:: random machinery outside util/rng — streams "
               "must be bit-reproducible", kScopeAll, 1},
    {"DSL007", "catch (...) whose handler never rethrows — the error is "
               "silently dropped", kScopeAll, 1},
    {"DSL008", "raw socket syscall (socket/accept/bind/listen/connect/"
               "recv/send/...) outside src/dynsched/serve/net_* — all "
               "network I/O goes through the serve::net RAII wrappers",
     kScopeAll, 4},
    {"DSL100", "heap allocation inside a loop in a hot-path file (new / "
               "make_unique / make_shared) — hoist or pool the allocation",
     kScopeHot, 2},
    {"DSL101", "container or heavy model object constructed inside a loop in "
               "a hot-path file — hoist the buffer and reuse its capacity",
     kScopeHot, 2},
    {"DSL102", "push_back/emplace_back in a loop with no reserve()/resize() "
               "for that container anywhere in the file", kScopeHot, 2},
    {"DSL103", "non-trivial parameter (vector/string/model struct) passed by "
               "value in a hot-path function definition — take const& (or "
               "move the sink param into place)", kScopeHot, 2},
    {"DSL104", "repeated map operator[]/at() lookups with the same key in "
               "one function — hoist a reference to the mapped value",
     kScopeHot, 2},
    {"DSL105", "std::endl / per-iteration stream flush in a hot-path file — "
               "use '\\n' and flush once at the end", kScopeHot, 2},
    {"DSL106", "shared_ptr copied where a reference suffices (by-value "
               "param or per-iteration copy) — pass const& / use the raw "
               "object", kScopeHot, 2},
    {"DSL107", "heavy container returned by value from a per-node B&B "
               "helper — write into a caller-owned buffer instead",
     kScopeHot, 2},
    {"DSL200", "include crossing module layers in a direction not declared "
               "in tools/lint/layers.txt", kScopeTree, 3},
    {"DSL201", "include cycle (module- or file-level), reported with the "
               "full cycle path", kScopeTree, 3},
    {"DSL202", "private header (detail/ or internal header) included from "
               "another module", kScopeTree, 3},
    {"DSL203", "module-qualified symbol used without a direct include of "
               "any header from that module (include-what-you-use-lite)",
     kScopeTree, 3},
    {"DSL204", "non-inline function/variable definition at namespace scope "
               "in a header — ODR violation once two TUs include it",
     kScopeHeaders, 3},
    {"DSL205", "missing or duplicated #pragma once in a header",
     kScopeHeaders, 3},
    {"DSL206", "using namespace at header scope — leaks into every "
               "includer", kScopeHeaders, 3},
    {"DSL207", "header include whose defined types appear only as "
               "pointers/references — forward-declare and include in the "
               ".cpp instead", kScopeTree, 3},
};

bool knownRule(const std::string& id) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return id == r.id; });
}

std::string normalizePath(const std::string& path) {
  std::string out = path;
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

}  // namespace

namespace internal {

bool pathHas(const std::string& normalized, std::string_view piece) {
  return normalized.find(piece) != std::string::npos;
}

std::string trimCopy(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

std::string lowered(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

}  // namespace internal

namespace {

using internal::FileLint;
using internal::SourceView;
using internal::Suppression;
using internal::Token;
using internal::isStdQualified;
using internal::lowered;
using internal::pathHas;
using internal::trimCopy;

// ---------------------------------------------------------------------------
// Source preprocessing: blank comments and literals out of the "code view"
// (preserving offsets) while harvesting suppression directives from the
// comment text.

/// Parses an allow(RULE-ID[, RULE-ID]) reason directive out of a comment.
void parseDirective(std::string_view comment, std::size_t line,
                    SourceView& view) {
  const std::string_view marker = "dynsched-lint:";
  const std::size_t at = comment.find(marker);
  if (at == std::string_view::npos) return;
  Suppression sup;
  std::string_view rest = comment.substr(at + marker.size());
  const std::string directive = trimCopy(rest);
  const std::string_view allow = "allow(";
  if (directive.compare(0, allow.size(), allow) != 0) {
    sup.problem = "expected 'allow(RULE-ID[, RULE-ID]) reason' after "
                  "'dynsched-lint:'";
    view.suppressions.emplace(line, std::move(sup));
    return;
  }
  const std::size_t close = directive.find(')');
  if (close == std::string::npos) {
    sup.problem = "unterminated allow(...) rule list";
    view.suppressions.emplace(line, std::move(sup));
    return;
  }
  std::stringstream ids(directive.substr(allow.size(), close - allow.size()));
  std::string id;
  while (std::getline(ids, id, ',')) {
    id = trimCopy(id);
    if (!knownRule(id) || id == "DSL000") {
      sup.problem = "unknown rule ID '" + id + "' in allow(...)";
      view.suppressions.emplace(line, std::move(sup));
      return;
    }
    sup.rules.insert(id);
  }
  const std::string reason = trimCopy(directive.substr(close + 1));
  if (sup.rules.empty()) {
    sup.problem = "empty allow(...) rule list";
  } else if (reason.empty()) {
    sup.problem = "missing reason after allow(" +
                  *sup.rules.begin() + (sup.rules.size() > 1 ? ", ..." : "") +
                  ") — say why the rule does not apply";
  } else {
    sup.valid = true;
  }
  view.suppressions.emplace(line, std::move(sup));
}

bool identByte(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// The encoding prefixes that turn a '"' into a raw string literal.
bool rawStringPrefix(std::string_view ident) {
  return ident == "R" || ident == "LR" || ident == "uR" || ident == "UR" ||
         ident == "u8R";
}

bool hspace(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Strips line/block comments from a directive tail and trims it; used to
/// decide whether an `#if` expression is literally `0` (a dead branch).
std::string directiveTail(std::string_view text, std::size_t at) {
  std::string out;
  while (at < text.size() && text[at] != '\n') {
    if (text[at] == '/' && at + 1 < text.size() &&
        (text[at + 1] == '/' || text[at + 1] == '*')) {
      break;  // good enough for a one-line directive expression
    }
    out.push_back(text[at]);
    ++at;
  }
  return trimCopy(out);
}

}  // namespace

namespace internal {

SourceView preprocess(std::string_view text) {
  SourceView view;
  {
    // Raw lines, kept verbatim for finding snippets.
    std::size_t start = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\n') {
        view.lines.emplace_back(text.substr(start, i - start));
        start = i + 1;
      }
    }
    if (start < text.size()) view.lines.emplace_back(text.substr(start));
  }
  view.code.assign(text.size(), ' ');
  enum class State { Code, LineComment, BlockComment, String, Char };
  State state = State::Code;
  std::size_t line = 1;
  std::size_t lineStart = 0;  // offset of the current line's first byte
  std::size_t commentStartLine = 0;
  std::string comment;
  char prevCode = '\0';  // last non-space code byte (digit-separator check)
  const auto newline = [&](std::size_t at) {
    view.code[at] = '\n';  // newlines survive blanking so token lines hold
    ++line;
    lineStart = at + 1;
  };
  // Preprocessor-conditional nesting; a region is dead when any level is
  // (only a literal `#if 0` makes one — everything else is conservatively
  // live, since the lexer cannot evaluate macros).
  struct Cond {
    bool dead = false;
  };
  std::vector<Cond> conds;
  const auto inDeadRegion = [&]() {
    return std::any_of(conds.begin(), conds.end(),
                       [](const Cond& c) { return c.dead; });
  };
  // Peeks a preprocessor directive starting at text[hash] == '#'. Only
  // called when everything before the '#' on this line is blank (comments
  // are already spaces in the code view, so `/* */ #include` still counts
  // while a '#' inside code or a comment never reaches here). The main
  // state machine keeps running over the same bytes afterwards, so string
  // blanking and offsets stay exact.
  const auto peekDirective = [&](std::size_t hash) {
    std::size_t p = hash + 1;
    while (p < text.size() && hspace(text[p])) ++p;
    std::size_t wordEnd = p;
    while (wordEnd < text.size() && identByte(text[wordEnd])) ++wordEnd;
    const std::string_view word = text.substr(p, wordEnd - p);
    p = wordEnd;
    while (p < text.size() && hspace(text[p])) ++p;
    if (word == "if") {
      conds.push_back({directiveTail(text, p) == "0"});
    } else if (word == "ifdef" || word == "ifndef") {
      conds.push_back({false});
    } else if (word == "elif") {
      if (!conds.empty()) conds.back().dead = directiveTail(text, p) == "0";
    } else if (word == "else") {
      if (!conds.empty()) conds.back().dead = false;
    } else if (word == "endif") {
      if (!conds.empty()) conds.pop_back();
    } else if (word == "pragma") {
      std::size_t onceEnd = p;
      while (onceEnd < text.size() && identByte(text[onceEnd])) ++onceEnd;
      if (text.substr(p, onceEnd - p) == "once" && !inDeadRegion()) {
        view.pragmaOnceLines.push_back(line);
      }
    } else if (word == "include" && p < text.size() && !inDeadRegion()) {
      const char open = text[p];
      const char close = open == '<' ? '>' : '"';
      if (open == '<' || open == '"') {
        const std::size_t end = text.find(close, p + 1);
        if (end != std::string_view::npos &&
            text.find('\n', p + 1) > end) {  // delimiter closes on this line
          IncludeDirective inc;
          inc.path = std::string(text.substr(p + 1, end - p - 1));
          inc.angled = open == '<';
          inc.conditional = !conds.empty();
          inc.line = line;
          view.includes.push_back(std::move(inc));
        }
      }
    }
  };
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '#') {
          bool blankSoFar = true;
          for (std::size_t at = lineStart; at < i; ++at) {
            if (!hspace(view.code[at])) {
              blankSoFar = false;
              break;
            }
          }
          if (blankSoFar) peekDirective(i);
        }
        if (c == '/' && next == '/') {
          state = State::LineComment;
          commentStartLine = line;
          comment.clear();
          i += 2;
          continue;
        }
        if (c == '/' && next == '*') {
          state = State::BlockComment;
          commentStartLine = line;
          comment.clear();
          i += 2;
          continue;
        }
        if (c == '"') {
          // Raw string literal? The identifier immediately before the quote
          // must be exactly an encoding prefix (R, LR, uR, UR, u8R) — a
          // longer identifier (`FOOR"x"`) is macro-pasted code, not raw.
          std::size_t prefixBegin = i;
          while (prefixBegin > 0 && identByte(text[prefixBegin - 1])) {
            --prefixBegin;
          }
          if (rawStringPrefix(text.substr(prefixBegin, i - prefixBegin))) {
            // R"delim( ... )delim" — find the ')delim"' terminator; no
            // escape processing happens inside, and literal newlines are
            // legal (they must survive blanking so line numbers hold).
            std::size_t d = i + 1;
            std::string delim;
            while (d < text.size() && text[d] != '(' && text[d] != '\n' &&
                   text[d] != ')' && text[d] != '\\' && !hspace(text[d]) &&
                   delim.size() <= 16) {
              delim.push_back(text[d]);
              ++d;
            }
            if (d < text.size() && text[d] == '(') {
              const std::string terminator = ")" + delim + "\"";
              const std::size_t at = text.find(terminator, d + 1);
              const std::size_t end = at == std::string_view::npos
                                          ? text.size()
                                          : at + terminator.size();
              for (std::size_t k = prefixBegin; k < end; ++k) {
                if (text[k] == '\n') {
                  newline(k);
                } else {
                  view.code[k] = ' ';  // also blanks the already-copied prefix
                }
              }
              prevCode = '"';
              i = end;
              continue;
            }
            // No '(' after the prefix: not a raw literal after all; fall
            // through and treat the quote as an ordinary string start.
          }
          state = State::String;
          ++i;
          continue;
        }
        if (c == '\'' && !identByte(prevCode)) {
          // A quote after an identifier/digit byte is a digit separator
          // (20'000), not a character literal.
          state = State::Char;
          ++i;
          continue;
        }
        if (c == '\n') {
          newline(i);
        } else {
          view.code[i] = c;
          if (std::isspace(static_cast<unsigned char>(c)) == 0) prevCode = c;
        }
        ++i;
        continue;
      case State::LineComment:
        if (c == '\n') {
          parseDirective(comment, commentStartLine, view);
          state = State::Code;
          prevCode = '\0';
          newline(i);
        } else {
          comment.push_back(c);
        }
        ++i;
        continue;
      case State::BlockComment:
        if (c == '*' && next == '/') {
          parseDirective(comment, commentStartLine, view);
          state = State::Code;
          i += 2;
          continue;
        }
        if (c == '\n') newline(i);
        comment.push_back(c);
        ++i;
        continue;
      case State::String:
        if (c == '\\') {
          if (next == '\n') newline(i + 1);  // line continuation in a string
          i += 2;
          continue;
        }
        if (c == '"') {
          state = State::Code;
          prevCode = '"';
        } else if (c == '\n') {
          newline(i);  // unterminated string: keep line numbers sane
        }
        ++i;
        continue;
      case State::Char:
        if (c == '\\') {
          i += 2;
          continue;
        }
        if (c == '\'') {
          state = State::Code;
          prevCode = '\'';
        } else if (c == '\n') {
          newline(i);
        }
        ++i;
        continue;
    }
  }
  if (state == State::LineComment || state == State::BlockComment) {
    parseDirective(comment, commentStartLine, view);
  }
  return view;
}

// ---------------------------------------------------------------------------
// Tokenizer over the code view

namespace {

bool identStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool identChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> tokens;
  std::size_t line = 1;
  std::size_t lineStart = 0;
  for (std::size_t i = 0; i < code.size();) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      lineStart = i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    const std::size_t column = i - lineStart + 1;
    if (identStart(c)) {
      std::size_t j = i + 1;
      while (j < code.size() && identChar(code[j])) ++j;
      tokens.push_back(
          {Token::Kind::Ident, code.substr(i, j - i), line, column});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i + 1;
      while (j < code.size() &&
             (identChar(code[j]) || code[j] == '\'' || code[j] == '.')) {
        ++j;
      }
      tokens.push_back(
          {Token::Kind::Number, code.substr(i, j - i), line, column});
      i = j;
      continue;
    }
    // Multi-character operators that matter here: keep compound assignment
    // and increment forms distinct so plain binary '*'/'+' can be matched.
    static const char* kPairs[] = {"::", "->", "...", "++", "--", "+=", "-=",
                                   "*=", "/=", "<<", ">>", "&&", "||", "=="};
    std::string punct(1, c);
    for (const char* pair : kPairs) {
      const std::size_t len = std::char_traits<char>::length(pair);
      if (code.compare(i, len, pair) == 0) {
        punct = pair;
        break;
      }
    }
    tokens.push_back({Token::Kind::Punct, punct, line, column});
    i += punct.size();
  }
  return tokens;
}

bool isStdQualified(const std::vector<Token>& tokens, std::size_t identIndex) {
  return identIndex >= 2 && tokens[identIndex - 1].text == "::" &&
         tokens[identIndex - 2].text == "std";
}

}  // namespace internal

namespace {

// ---------------------------------------------------------------------------
// Structural rules (DSL00x)

// DSL000 — malformed suppressions are findings in their own right.
void checkSuppressions(const FileLint& lint) {
  for (const auto& [line, sup] : lint.view.suppressions) {
    if (!sup.valid) {
      Finding finding;
      finding.file = lint.path;
      finding.line = line;
      finding.column = 1;
      finding.rule = "DSL000";
      finding.message = "malformed dynsched-lint suppression: " + sup.problem;
      if (line >= 1 && line <= lint.view.lines.size()) {
        finding.snippet = trimCopy(lint.view.lines[line - 1]);
      }
      lint.findings.push_back(std::move(finding));
    }
  }
}

// DSL001 — only the annotated wrappers may touch raw standard sync types.
void checkRawSyncTypes(const FileLint& lint) {
  if (pathHas(lint.path, "util/mutex.hpp") ||
      pathHas(lint.path, "util/thread_annotations.hpp")) {
    return;
  }
  static const std::set<std::string> kTypes = {
      "mutex",          "timed_mutex",    "recursive_mutex",
      "shared_mutex",   "shared_timed_mutex",
      "condition_variable", "condition_variable_any",
      "lock_guard",     "unique_lock",    "scoped_lock", "shared_lock"};
  for (std::size_t i = 0; i < lint.tokens.size(); ++i) {
    const Token& token = lint.tokens[i];
    if (token.kind != Token::Kind::Ident || kTypes.count(token.text) == 0) {
      continue;
    }
    if (!isStdQualified(lint.tokens, i)) continue;
    lint.report("DSL001", token.line, token.column,
                "raw std::" + token.text +
                    "; use the capability-annotated util::Mutex / "
                    "util::MutexLock / util::CondVar (util/mutex.hpp) so "
                    "-Wthread-safety can check the locking discipline");
  }
}

// DSL002 — a declared Mutex must guard something in the same file.
void checkUnguardedMutex(const FileLint& lint) {
  if (pathHas(lint.path, "util/mutex.hpp")) return;
  std::set<std::string> guarded;
  const std::vector<Token>& tokens = lint.tokens;
  for (std::size_t i = 0; i + 3 < tokens.size(); ++i) {
    if (tokens[i].text == "DYNSCHED_GUARDED_BY" && tokens[i + 1].text == "(" &&
        tokens[i + 2].kind == Token::Kind::Ident &&
        tokens[i + 3].text == ")") {
      guarded.insert(tokens[i + 2].text);
    }
  }
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].text != "Mutex" || tokens[i].kind != Token::Kind::Ident) {
      continue;
    }
    // Declaration shape "Mutex name;" — references, parameters, and the
    // class definition itself all fail this filter.
    if (tokens[i + 1].kind != Token::Kind::Ident ||
        tokens[i + 2].text != ";") {
      continue;
    }
    if (i > 0 && (tokens[i - 1].text == "class" ||
                  tokens[i - 1].text == "struct")) {
      continue;
    }
    const std::string& name = tokens[i + 1].text;
    if (guarded.count(name) > 0) continue;
    lint.report("DSL002", tokens[i].line, tokens[i].column,
                "Mutex '" + name +
                    "' has no DYNSCHED_GUARDED_BY(" + name +
                    ") field in this file; annotate what it guards so "
                    "-Wthread-safety has something to check");
  }
}

// DSL003 — threads are only spawned by the pool.
void checkRawThreads(const FileLint& lint) {
  if (pathHas(lint.path, "util/thread_pool.")) return;
  for (std::size_t i = 0; i < lint.tokens.size(); ++i) {
    const Token& token = lint.tokens[i];
    if (token.kind != Token::Kind::Ident) continue;
    const bool stdThread =
        (token.text == "thread" || token.text == "jthread") &&
        isStdQualified(lint.tokens, i) &&
        // std::thread::hardware_concurrency() is a capability query, not a
        // spawn; std::this_thread is namespace-adjacent but harmless.
        !(i + 2 < lint.tokens.size() && lint.tokens[i + 1].text == "::" &&
          lint.tokens[i + 2].text == "hardware_concurrency");
    const bool pthread = token.text == "pthread_create";
    if (!stdThread && !pthread) continue;
    lint.report("DSL003", token.line, token.column,
                "raw " + std::string(pthread ? "pthread_create" : "std::") +
                    (pthread ? "" : token.text) +
                    " outside util/thread_pool; route parallelism through "
                    "util::ThreadPool (owned shutdown, queue draining, "
                    "joined workers)");
  }
}

// DSL004 — file writes go through the atomic temp+rename path.
void checkRawFileWrites(const FileLint& lint) {
  if (pathHas(lint.path, "util/journal.") ||
      pathHas(lint.path, "lp/mps_writer.")) {
    return;
  }
  for (std::size_t i = 0; i < lint.tokens.size(); ++i) {
    const Token& token = lint.tokens[i];
    if (token.kind != Token::Kind::Ident) continue;
    const bool isOfstream =
        token.text == "ofstream";  // qualified or not — both are raw writes
    const bool isCFile = (token.text == "fopen" || token.text == "freopen") &&
                         i + 1 < lint.tokens.size() &&
                         lint.tokens[i + 1].text == "(";
    if (!isOfstream && !isCFile) continue;
    lint.report("DSL004", token.line, token.column,
                "raw file write via " + token.text +
                    "; route through util::atomicWriteFile (crash-safe "
                    "temp+rename — readers must never see a torn file)");
  }
}

// DSL005 — size products/sums in the model layers must be overflow-checked.
const std::set<std::string>& sizeNames() {
  static const std::set<std::string> kNames = {
      "slots",      "numslots",     "slotcount",  "rows",       "numrows",
      "lprows",     "cols",         "numcols",    "columns",    "numcolumns",
      "lpcolumns",  "vars",         "numvars",    "variables",  "numvariables",
      "entries",    "numentries",   "nnz",        "nonzeros",   "size",
      "count",      "horizon",      "makespan",   "accruntime", "timescale",
      "jobs",       "numjobs",      "estimate",   "width"};
  return kNames;
}

/// Walks a postfix chain backwards from `index` (exclusive) and returns the
/// last-named identifier: `grid.slots()` -> "slots", `a.size()` -> "size",
/// plain `jobs` -> "jobs". Returns "" if the shape is not a value chain.
std::string leftOperandName(const std::vector<Token>& tokens,
                            std::size_t opIndex) {
  if (opIndex == 0) return "";
  std::size_t i = opIndex - 1;
  if (tokens[i].text == ")") {
    int depth = 1;
    while (i > 0 && depth > 0) {
      --i;
      if (tokens[i].text == ")") ++depth;
      if (tokens[i].text == "(") --depth;
    }
    if (depth != 0 || i == 0) return "";
    --i;  // token before '('
  }
  if (tokens[i].kind != Token::Kind::Ident) return "";
  return tokens[i].text;
}

std::string rightOperandName(const std::vector<Token>& tokens,
                             std::size_t opIndex) {
  std::size_t i = opIndex + 1;
  if (i >= tokens.size() || tokens[i].kind != Token::Kind::Ident) return "";
  std::string name = tokens[i].text;
  // Follow a member/scope chain to its last identifier: job.estimate,
  // grid.slots(), lp::numVariables().
  while (i + 2 < tokens.size() &&
         (tokens[i + 1].text == "." || tokens[i + 1].text == "->" ||
          tokens[i + 1].text == "::") &&
         tokens[i + 2].kind == Token::Kind::Ident) {
    i += 2;
    name = tokens[i].text;
  }
  return name;
}

/// True when `closeParen` ends a static_cast<W>(...) group whose target W is
/// a 64-bit-wide (or wider) integer — the widening casts DSL005 asks for.
bool wideningCastEndsAt(const std::vector<Token>& tokens,
                        std::size_t closeParen, std::size_t& castBegin) {
  // Match ')' back to its '('.
  int depth = 1;
  std::size_t open = closeParen;
  while (open > 0 && depth > 0) {
    --open;
    if (tokens[open].text == ")") ++depth;
    if (tokens[open].text == "(") --depth;
  }
  if (depth != 0 || open == 0) return false;
  if (tokens[open - 1].text != ">") return false;
  // Match '>' back to its '<' (tokenizer never merges '>>' here: the cast
  // target is a plain type, and nested templates inside static_cast<> do
  // not appear in size arithmetic).
  int angle = 1;
  std::size_t lt = open - 1;
  while (lt > 0 && angle > 0) {
    --lt;
    if (tokens[lt].text == ">") ++angle;
    if (tokens[lt].text == "<") --angle;
  }
  if (angle != 0 || lt == 0) return false;
  if (tokens[lt - 1].text != "static_cast") return false;
  static const std::set<std::string> kWide = {
      "size_t",   "int64_t",  "uint64_t", "intmax_t", "uintmax_t",
      "ptrdiff_t", "long",    "Time"};
  // Last identifier of the target type ("std :: size_t" -> size_t).
  std::string target;
  for (std::size_t q = lt + 1; q < open - 1; ++q) {
    if (tokens[q].kind == Token::Kind::Ident) target = tokens[q].text;
  }
  if (kWide.count(target) == 0) return false;
  castBegin = lt - 1;
  return true;
}

/// True when the *-/+ chain to the left of `opIndex` (same paren depth)
/// starts with a widening static_cast: in
///   static_cast<std::size_t>(slots) * width + count
/// the '+' must not fire — the whole chain is already evaluated at the
/// cast's width. Walks operand-by-operand leftwards over '*', '+', '-'.
bool leftChainWidened(const std::vector<Token>& tokens, std::size_t opIndex) {
  std::size_t op = opIndex;
  while (op > 0) {
    // Find the start of the operand directly left of tokens[op].
    std::size_t last = op - 1;  // last token of the operand
    std::size_t first = last;
    if (tokens[last].text == ")") {
      std::size_t castBegin = 0;
      if (wideningCastEndsAt(tokens, last, castBegin)) return true;
      int depth = 1;
      while (first > 0 && depth > 0) {
        --first;
        if (tokens[first].text == ")") ++depth;
        if (tokens[first].text == "(") --depth;
      }
      if (depth != 0) return false;
      // Pull in the callee chain: grid.slots() — operand starts at 'grid'.
      while (first > 0) {
        const Token& prev = tokens[first - 1];
        if (prev.kind == Token::Kind::Ident || prev.text == "." ||
            prev.text == "->" || prev.text == "::") {
          --first;
        } else {
          break;
        }
      }
    } else if (tokens[last].kind == Token::Kind::Ident ||
               tokens[last].kind == Token::Kind::Number) {
      while (first > 0) {
        const Token& prev = tokens[first - 1];
        if (prev.kind == Token::Kind::Ident || prev.text == "." ||
            prev.text == "->" || prev.text == "::") {
          --first;
        } else {
          break;
        }
      }
    } else {
      return false;  // not a value operand (unary op, bracket, ...)
    }
    if (first == 0) return false;
    const std::string& before = tokens[first - 1].text;
    if (before == "*" || before == "+" || before == "-") {
      op = first - 1;  // keep walking the chain leftwards
      continue;
    }
    return false;
  }
  return false;
}

void checkUncheckedSizeArith(const FileLint& lint) {
  if (!internal::hotPath(lint.path)) return;
  const std::vector<Token>& tokens = lint.tokens;
  for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::Punct ||
        (tokens[i].text != "*" && tokens[i].text != "+")) {
      continue;
    }
    const std::string left = lowered(leftOperandName(tokens, i));
    const std::string right = lowered(rightOperandName(tokens, i));
    if (left.empty() || right.empty()) continue;
    if (sizeNames().count(left) == 0 || sizeNames().count(right) == 0) {
      continue;
    }
    // An operand chain already hoisted to 64-bit width by a static_cast is
    // checked arithmetic's moral equivalent for the narrow-operand case:
    //   static_cast<std::size_t>(slots) * width + count
    // evaluates left-to-right at size_t width — do not fire on the '+'.
    if (leftChainWidened(tokens, i)) continue;
    // Escape hatches the token scan can verify: the expression already
    // routes through checked arithmetic, or is explicitly floating-point.
    const std::size_t line = tokens[i].line;
    bool escaped = false;
    for (std::size_t at = line > 1 ? line - 2 : 0;
         at < line + 1 && at < lint.view.lines.size(); ++at) {
      const std::string& raw = lint.view.lines[at];
      if (raw.find("checkedMul") != std::string::npos ||
          raw.find("checkedAdd") != std::string::npos ||
          raw.find("static_cast<double>") != std::string::npos ||
          raw.find("double") != std::string::npos) {
        escaped = true;
        break;
      }
    }
    if (escaped) continue;
    lint.report("DSL005", tokens[i].line, tokens[i].column,
                "unchecked '" + tokens[i].text + "' between model-size "
                    "expressions ('" + left + "' " + tokens[i].text + " '" +
                    right + "'); integer width*time*count products overflow "
                    "2^63 on large traces — use util::checkedMul / "
                    "util::checkedAdd (util/checked.hpp)");
  }
}

// DSL006 — all randomness flows through the deterministic util::Rng.
void checkRawRandomness(const FileLint& lint) {
  if (pathHas(lint.path, "util/rng.")) return;
  static const std::set<std::string> kStdRandom = {
      "random_device",       "mt19937",
      "mt19937_64",          "default_random_engine",
      "minstd_rand",         "uniform_int_distribution",
      "uniform_real_distribution", "normal_distribution",
      "bernoulli_distribution"};
  for (std::size_t i = 0; i < lint.tokens.size(); ++i) {
    const Token& token = lint.tokens[i];
    if (token.kind != Token::Kind::Ident) continue;
    const bool cRand = (token.text == "rand" || token.text == "srand") &&
                       i + 1 < lint.tokens.size() &&
                       lint.tokens[i + 1].text == "(" &&
                       !(i > 0 && (lint.tokens[i - 1].text == "." ||
                                   lint.tokens[i - 1].text == "->" ||
                                   lint.tokens[i - 1].text == "::"));
    const bool stdRandom =
        kStdRandom.count(token.text) > 0 && isStdQualified(lint.tokens, i);
    if (!cRand && !stdRandom) continue;
    lint.report("DSL006", token.line, token.column,
                "raw randomness (" + token.text +
                    ") outside util/rng; use util::Rng — std:: distribution "
                    "output is implementation-defined, and benches must be "
                    "bit-reproducible everywhere");
  }
}

// DSL008 — network syscalls stay behind the serve::net RAII wrappers.
void checkRawSockets(const FileLint& lint) {
  if (pathHas(lint.path, "serve/net_")) return;
  static const std::set<std::string> kSocketCalls = {
      "socket", "accept", "accept4", "bind",     "listen",
      "connect", "recv",  "send",    "recvfrom", "sendto"};
  for (std::size_t i = 0; i < lint.tokens.size(); ++i) {
    const Token& token = lint.tokens[i];
    if (token.kind != Token::Kind::Ident) continue;
    if (kSocketCalls.count(token.text) == 0) continue;
    // Call position only, and never a member/qualified call — obj.connect()
    // or std::bind() are unrelated; the syscalls are called unqualified.
    if (i + 1 >= lint.tokens.size() || lint.tokens[i + 1].text != "(") {
      continue;
    }
    if (i > 0 && (lint.tokens[i - 1].text == "." ||
                  lint.tokens[i - 1].text == "->")) {
      continue;
    }
    // `ns::connect(` is some wrapper's function; bare `::connect(` is the
    // global-scope syscall itself and must not slip through.
    if (i > 0 && lint.tokens[i - 1].text == "::" &&
        (i >= 2 && lint.tokens[i - 2].kind == Token::Kind::Ident)) {
      continue;
    }
    lint.report("DSL008", token.line, token.column,
                "raw socket syscall (" + token.text +
                    ") outside src/dynsched/serve/net_*; use the serve::net "
                    "RAII wrappers — they own EINTR handling, poll-bounded "
                    "reads, fault injection, and fd lifetime");
  }
}

// DSL007 — a catch-all that never rethrows swallows the error.
void checkCatchAllDrops(const FileLint& lint) {
  const std::vector<Token>& tokens = lint.tokens;
  for (std::size_t i = 0; i + 4 < tokens.size(); ++i) {
    if (tokens[i].text != "catch" || tokens[i + 1].text != "(" ||
        tokens[i + 2].text != "..." || tokens[i + 3].text != ")" ||
        tokens[i + 4].text != "{") {
      continue;
    }
    std::size_t j = i + 5;
    int depth = 1;
    bool rethrows = false;
    for (; j < tokens.size() && depth > 0; ++j) {
      if (tokens[j].text == "{") ++depth;
      if (tokens[j].text == "}") --depth;
      // `throw;` rethrows in place; capturing via std::current_exception()
      // preserves the error for a deferred std::rethrow_exception — both
      // keep the failure alive, which is all this rule demands.
      if (tokens[j].kind == Token::Kind::Ident &&
          (tokens[j].text == "throw" ||
           tokens[j].text == "current_exception" ||
           tokens[j].text == "rethrow_exception")) {
        rethrows = true;
      }
    }
    if (rethrows) continue;
    lint.report("DSL007", tokens[i].line, tokens[i].column,
                "catch (...) whose handler never rethrows — the error is "
                "silently dropped; rethrow after cleanup, or catch a "
                "concrete type and surface a structured failure");
  }
}

}  // namespace

const std::vector<RuleInfo>& ruleCatalog() { return kRules; }

std::vector<Finding> lintFile(const std::string& path,
                              std::string_view contents) {
  const std::string normalized = normalizePath(path);
  const SourceView view = internal::preprocess(contents);
  const std::vector<Token> tokens = internal::tokenize(view.code);
  std::vector<Finding> findings;
  const FileLint lint{normalized, view, tokens, findings};
  checkSuppressions(lint);
  checkRawSyncTypes(lint);
  checkUnguardedMutex(lint);
  checkRawThreads(lint);
  checkRawFileWrites(lint);
  checkUncheckedSizeArith(lint);
  checkRawRandomness(lint);
  checkCatchAllDrops(lint);
  checkRawSockets(lint);
  const internal::ScopeInfo scopes = internal::analyzeScopes(tokens);
  internal::checkPerfRules(lint, scopes);
  internal::checkHeaderRules(lint, scopes);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              if (a.column != b.column) return a.column < b.column;
              return a.rule < b.rule;
            });
  return findings;
}

namespace {

bool lintableFile(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

void collectFiles(const std::filesystem::path& root,
                  std::vector<std::filesystem::path>& files,
                  std::vector<std::string>& errors) {
  std::error_code ec;
  if (std::filesystem::is_regular_file(root, ec)) {
    files.push_back(root);
    return;
  }
  if (!std::filesystem::is_directory(root, ec)) {
    errors.push_back("no such file or directory: " + root.string());
    return;
  }
  auto it = std::filesystem::recursive_directory_iterator(
      root, std::filesystem::directory_options::skip_permission_denied, ec);
  if (ec) {
    errors.push_back("cannot walk " + root.string() + ": " + ec.message());
    return;
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() &&
        (name.rfind("build", 0) == 0 || (!name.empty() && name[0] == '.'))) {
      it.disable_recursion_pending();
      continue;
    }
    if (entry.is_regular_file() && lintableFile(entry.path())) {
      files.push_back(entry.path());
    }
  }
}

}  // namespace

LintResult lintPaths(const std::vector<std::string>& paths) {
  return lintPaths(paths, LintPathsOptions{});
}

LintResult lintPaths(const std::vector<std::string>& paths,
                     const LintPathsOptions& options) {
  LintResult result;
  std::vector<std::filesystem::path> files;
  for (const std::string& path : paths) {
    collectFiles(path, files, result.errors);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      result.errors.push_back("cannot read " + file.string());
      continue;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    ++result.filesScanned;
    sources.push_back({file.generic_string(), contents.str()});
  }
  for (const SourceFile& source : sources) {
    std::vector<Finding> findings = lintFile(source.path, source.contents);
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(findings.begin()),
                           std::make_move_iterator(findings.end()));
  }
  IncludeGraphResult graph = analyzeIncludeGraph(sources, options.layersText);
  result.findings.insert(result.findings.end(),
                         std::make_move_iterator(graph.findings.begin()),
                         std::make_move_iterator(graph.findings.end()));
  result.errors.insert(result.errors.end(),
                       std::make_move_iterator(graph.errors.begin()),
                       std::make_move_iterator(graph.errors.end()));
  if (options.graphOut != nullptr) *options.graphOut = std::move(graph.graph);
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.column != b.column) return a.column < b.column;
              return a.rule < b.rule;
            });
  return result;
}

std::string renderText(const LintResult& result) {
  std::ostringstream os;
  for (const Finding& finding : result.findings) {
    os << finding.file << ':' << finding.line << ':' << finding.column << ": "
       << finding.rule << ": " << finding.message << '\n';
    if (!finding.snippet.empty()) {
      os << "    | " << finding.snippet << '\n';
    }
  }
  for (const std::string& error : result.errors) {
    os << "dynsched-lint: error: " << error << '\n';
  }
  os << "dynsched-lint: " << result.findings.size() << " finding"
     << (result.findings.size() == 1 ? "" : "s") << " in "
     << result.filesScanned << " file"
     << (result.filesScanned == 1 ? "" : "s") << " scanned\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Baseline: a recorded multiset of findings, keyed by rule + file + snippet
// (never the line number — the baseline must survive unrelated edits above
// the finding). Used to land new rule families incrementally: record, then
// report only findings that are not in the record.

namespace {

constexpr std::string_view kBaselineHeader = "# dynsched-lint baseline v1";

std::string baselineKey(const Finding& finding) {
  return finding.rule + "\t" + finding.file + "\t" + finding.snippet;
}

}  // namespace

std::string renderBaseline(const LintResult& result) {
  std::vector<std::string> keys;
  keys.reserve(result.findings.size());
  for (const Finding& finding : result.findings) {
    keys.push_back(baselineKey(finding));
  }
  std::sort(keys.begin(), keys.end());
  std::ostringstream os;
  os << kBaselineHeader << '\n';
  for (const std::string& key : keys) os << key << '\n';
  return os.str();
}

BaselineResult applyBaseline(LintResult& result,
                             std::string_view baselineText) {
  BaselineResult outcome;
  std::map<std::string, std::size_t> allowed;
  std::size_t lineNo = 0;
  std::size_t start = 0;
  bool sawHeader = false;
  while (start <= baselineText.size()) {
    const std::size_t end = baselineText.find('\n', start);
    const std::string_view line = baselineText.substr(
        start, end == std::string_view::npos ? std::string_view::npos
                                             : end - start);
    start = end == std::string_view::npos ? baselineText.size() + 1 : end + 1;
    ++lineNo;
    if (lineNo == 1) {
      if (line != kBaselineHeader) {
        outcome.error = "baseline does not start with '" +
                        std::string(kBaselineHeader) +
                        "' — not a dynsched-lint baseline file";
        return outcome;
      }
      sawHeader = true;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    if (std::count(line.begin(), line.end(), '\t') != 2) {
      outcome.error = "baseline line " + std::to_string(lineNo) +
                      " is not 'rule<TAB>file<TAB>snippet'";
      return outcome;
    }
    ++allowed[std::string(line)];
  }
  if (!sawHeader) {
    outcome.error = "empty baseline file";
    return outcome;
  }
  std::vector<Finding> fresh;
  for (Finding& finding : result.findings) {
    const auto it = allowed.find(baselineKey(finding));
    if (it != allowed.end() && it->second > 0) {
      --it->second;
      ++outcome.suppressed;
    } else {
      fresh.push_back(std::move(finding));
    }
  }
  result.findings = std::move(fresh);
  for (const auto& [key, count] : allowed) {
    for (std::size_t i = 0; i < count; ++i) outcome.stale.push_back(key);
  }
  return outcome;
}

namespace internal {

std::string jsonEscape(const std::string& text) {
  std::ostringstream os;
  for (const char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  return os.str();
}

}  // namespace internal

namespace {
using internal::jsonEscape;
}  // namespace

std::string renderJson(const LintResult& result) {
  std::map<std::string, std::size_t> counts;
  for (const Finding& finding : result.findings) ++counts[finding.rule];
  std::ostringstream os;
  os << "{\n  \"tool\": \"dynsched-lint\",\n  \"version\": 1,\n"
     << "  \"filesScanned\": " << result.filesScanned << ",\n"
     << "  \"findings\": [";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& finding = result.findings[i];
    os << (i > 0 ? "," : "") << "\n    {\"file\": \""
       << jsonEscape(finding.file) << "\", \"line\": " << finding.line
       << ", \"column\": " << finding.column << ", \"rule\": \""
       << finding.rule << "\", \"message\": \"" << jsonEscape(finding.message)
       << "\", \"snippet\": \"" << jsonEscape(finding.snippet) << "\"}";
  }
  os << (result.findings.empty() ? "" : "\n  ") << "],\n  \"counts\": {";
  std::size_t i = 0;
  for (const auto& [rule, count] : counts) {
    os << (i++ > 0 ? ", " : "") << '"' << rule << "\": " << count;
  }
  os << "},\n  \"errors\": [";
  for (std::size_t j = 0; j < result.errors.size(); ++j) {
    os << (j > 0 ? ", " : "") << '"' << jsonEscape(result.errors[j]) << '"';
  }
  os << "],\n  \"total\": " << result.findings.size() << "\n}\n";
  return os.str();
}

}  // namespace dynsched::lint
