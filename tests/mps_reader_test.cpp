// MPS reader and writer tests: semantics of each section, round-trip
// through the writer (the fuzz oracle's invariant), rejection of malformed
// input, and the writer's sections and generated names.
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "dynsched/lp/mps_reader.hpp"
#include "dynsched/lp/mps_writer.hpp"
#include "dynsched/util/error.hpp"

namespace dynsched::lp {
namespace {

std::string writeToString(const LpModel& model, const MpsOptions& options) {
  std::ostringstream out;
  writeMps(model, out, options);
  return out.str();
}

std::string normalize(const MpsProblem& problem) {
  MpsOptions options;
  options.problemName = problem.name.empty() ? "FUZZ" : problem.name;
  options.integerColumns = problem.integerColumns;
  return writeToString(problem.model, options);
}

TEST(MpsReader, ParsesRowsColumnsRhs) {
  const std::string text =
      "NAME  SAMPLE\n"
      "ROWS\n"
      " N  COST\n"
      " L  cap\n"
      " G  floor\n"
      " E  assign\n"
      "COLUMNS\n"
      "    x  COST  2\n"
      "    x  cap  5\n"
      "    x  floor  1\n"
      "    y  assign  1\n"
      "RHS\n"
      "    RHS  cap  10\n"
      "    RHS  floor  0.5\n"
      "    RHS  assign  1\n"
      "ENDATA\n";
  const MpsProblem p = readMps(text);
  EXPECT_EQ(p.name, "SAMPLE");
  ASSERT_EQ(p.model.numRows(), 3);
  ASSERT_EQ(p.model.numVariables(), 2);
  EXPECT_DOUBLE_EQ(p.model.objectiveCoef(0), 2.0);
  EXPECT_DOUBLE_EQ(p.model.rowLower(0), -kInf);  // L cap
  EXPECT_DOUBLE_EQ(p.model.rowUpper(0), 10.0);
  EXPECT_DOUBLE_EQ(p.model.rowLower(1), 0.5);  // G floor
  EXPECT_DOUBLE_EQ(p.model.rowUpper(1), kInf);
  EXPECT_DOUBLE_EQ(p.model.rowLower(2), 1.0);  // E assign
  EXPECT_DOUBLE_EQ(p.model.rowUpper(2), 1.0);
  // Default column bounds: [0, +inf).
  EXPECT_DOUBLE_EQ(p.model.columnLower(0), 0.0);
  EXPECT_DOUBLE_EQ(p.model.columnUpper(0), kInf);
}

TEST(MpsReader, RangesSemantics) {
  const std::string text =
      "NAME  R\n"
      "ROWS\n"
      " N  COST\n"
      " E  eq\n"
      " L  le\n"
      " G  ge\n"
      "COLUMNS\n"
      "    x  eq  1\n"
      "    x  le  1\n"
      "    x  ge  1\n"
      "RHS\n"
      "    RHS  eq  4\n"
      "    RHS  le  9\n"
      "    RHS  ge  2\n"
      "RANGES\n"
      "    RNG  eq  3\n"
      "    RNG  le  5\n"
      "    RNG  ge  6\n"
      "ENDATA\n";
  const MpsProblem p = readMps(text);
  EXPECT_DOUBLE_EQ(p.model.rowLower(0), 4.0);  // E, r >= 0: [rhs, rhs+r]
  EXPECT_DOUBLE_EQ(p.model.rowUpper(0), 7.0);
  EXPECT_DOUBLE_EQ(p.model.rowLower(1), 4.0);  // L: [rhs-|r|, rhs]
  EXPECT_DOUBLE_EQ(p.model.rowUpper(1), 9.0);
  EXPECT_DOUBLE_EQ(p.model.rowLower(2), 2.0);  // G: [rhs, rhs+|r|]
  EXPECT_DOUBLE_EQ(p.model.rowUpper(2), 8.0);
}

TEST(MpsReader, BoundsSemantics) {
  const std::string text =
      "NAME  B\n"
      "ROWS\n"
      " N  COST\n"
      " L  cap\n"
      "COLUMNS\n"
      "    a  cap  1\n"
      "    b  cap  1\n"
      "    c  cap  1\n"
      "    d  cap  1\n"
      "    e  cap  1\n"
      "RHS\n"
      "    RHS  cap  10\n"
      "BOUNDS\n"
      " FR BND  a\n"
      " FX BND  b  3\n"
      " MI BND  c\n"
      " UP BND  c  2\n"
      " LO BND  d  -1\n"
      " BV BND  e\n"
      "ENDATA\n";
  const MpsProblem p = readMps(text);
  EXPECT_DOUBLE_EQ(p.model.columnLower(0), -kInf);
  EXPECT_DOUBLE_EQ(p.model.columnUpper(0), kInf);
  EXPECT_DOUBLE_EQ(p.model.columnLower(1), 3.0);
  EXPECT_DOUBLE_EQ(p.model.columnUpper(1), 3.0);
  EXPECT_DOUBLE_EQ(p.model.columnLower(2), -kInf);
  EXPECT_DOUBLE_EQ(p.model.columnUpper(2), 2.0);
  EXPECT_DOUBLE_EQ(p.model.columnLower(3), -1.0);
  EXPECT_DOUBLE_EQ(p.model.columnUpper(3), kInf);
  EXPECT_DOUBLE_EQ(p.model.columnLower(4), 0.0);
  EXPECT_DOUBLE_EQ(p.model.columnUpper(4), 1.0);
  ASSERT_EQ(p.integerColumns.size(), 5u);
  EXPECT_TRUE(p.integerColumns[4]);  // BV marks the column integer
}

TEST(MpsReader, IntegerMarkersRoundTrip) {
  LpModel m;
  const int x = m.addVariable(0, 1, -10, "x1");
  const int y = m.addVariable(0, 4, 2.5, "y");
  m.addRow(-kInf, 10, {{x, 5.0}, {y, 1.5}}, "cap");
  MpsOptions options;
  options.problemName = "MIXED";
  options.integerColumns = {true, false};
  const std::string t1 = writeToString(m, options);
  const MpsProblem p = readMps(t1);
  ASSERT_EQ(p.integerColumns.size(), 2u);
  EXPECT_TRUE(p.integerColumns[0]);
  EXPECT_FALSE(p.integerColumns[1]);
  EXPECT_EQ(p.name, "MIXED");
  // Writer output must be a fixed point of parse→write.
  EXPECT_EQ(normalize(p), t1);
}

TEST(MpsReader, WriteParseWriteIsLossless) {
  LpModel m;
  const int x = m.addVariable(0.5, 4.0, 2.5, "x1");
  const int y = m.addVariable(-kInf, kInf, -1.0, "yfree");
  const int z = m.addVariable(2.0, 2.0, 0.0, "zfix");
  m.addRow(1.0, 1.0, {{x, 1.0}, {z, 1.0}}, "assign");
  m.addRow(1.0, 3.0, {{x, 2.0}, {y, 1.0}}, "range");
  m.addRow(0.25, kInf, {{z, 0.5}}, "floor");
  m.addRow(-kInf, kInf, {{y, 3.0}}, "freerow");
  // Awkward values: shortest-round-trip formatting must preserve them.
  const int w = m.addVariable(0.0, 0.1, 1.0 / 3.0, "w");
  m.addRow(-kInf, 1e30 / 3.0, {{w, 6.02214076e23}}, "sci");

  MpsOptions options;
  options.problemName = "LOSSLESS";
  const std::string t1 = writeToString(m, options);
  const MpsProblem p1 = readMps(t1);
  ASSERT_EQ(p1.model.numVariables(), m.numVariables());
  ASSERT_EQ(p1.model.numRows(), m.numRows());
  for (int j = 0; j < m.numVariables(); ++j) {
    EXPECT_DOUBLE_EQ(p1.model.columnLower(j), m.columnLower(j)) << j;
    EXPECT_DOUBLE_EQ(p1.model.columnUpper(j), m.columnUpper(j)) << j;
    EXPECT_DOUBLE_EQ(p1.model.objectiveCoef(j), m.objectiveCoef(j)) << j;
  }
  const std::string t2 = normalize(p1);
  EXPECT_EQ(t2, t1);
  const std::string t3 = normalize(readMps(t2));
  EXPECT_EQ(t3, t2);
}

TEST(MpsWriter, FileWriteIsAtomic) {
  // writeMpsFile publishes via temp-file + rename: replacing an existing
  // file either keeps the old content or installs the complete new one —
  // never a torn prefix — and a failed write leaves no target and no stray
  // temp file behind.
  LpModel m;
  const int x = m.addVariable(0, 4.0, 1.0, "x");
  m.addRow(-kInf, 2.0, {{x, 1.0}}, "cap");

  const std::string path = testing::TempDir() + "/atomic.mps";
  {
    std::ofstream prior(path, std::ios::trunc);
    prior << "stale content that must be fully replaced";
  }
  writeMpsFile(m, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text.rfind("ENDATA\n"), text.size() - 7);
  EXPECT_EQ(text.find("stale"), std::string::npos);
  // The round trip still parses.
  EXPECT_EQ(readMps(text).model.numVariables(), m.numVariables());
  std::remove(path.c_str());

  const std::string bad = testing::TempDir() + "/no-such-dir/x.mps";
  EXPECT_THROW(writeMpsFile(m, bad), CheckError);
  std::ifstream probe(bad);
  EXPECT_FALSE(probe.good());
}

TEST(MpsReader, BoundsMayIntroduceColumn) {
  // A BOUNDS entry for a name COLUMNS never mentioned declares a new,
  // zero-entry column — this keeps the writer's output parseable when a
  // column's only matrix entries were explicit zeros.
  const std::string text =
      "NAME  GHOST\n"
      "ROWS\n"
      " N  COST\n"
      " L  cap\n"
      "COLUMNS\n"
      "    x  cap  1\n"
      "RHS\n"
      "    RHS  cap  5\n"
      "BOUNDS\n"
      " UP BND  ghost  7\n"
      "ENDATA\n";
  const MpsProblem p = readMps(text);
  ASSERT_EQ(p.model.numVariables(), 2);
  EXPECT_DOUBLE_EQ(p.model.columnUpper(1), 7.0);
  EXPECT_TRUE(p.model.column(1).empty());
}

TEST(MpsReader, RejectsMalformedInput) {
  const char* const cases[] = {
      // Unknown section.
      "NAME  X\nROWSES\nENDATA\n",
      // Unknown row type.
      "NAME  X\nROWS\n Q  r\nENDATA\n",
      // Duplicate row name.
      "NAME  X\nROWS\n N  COST\n L  r\n L  r\nENDATA\n",
      // COST as a constraint row name is reserved for the objective.
      "NAME  X\nROWS\n N  COST\n L  COST\nENDATA\n",
      // Entry referencing an undeclared row.
      "NAME  X\nROWS\n N  COST\nCOLUMNS\n    x  nope  1\nENDATA\n",
      // RHS on an objective (N) row.
      "NAME  X\nROWS\n N  COST\nRHS\n    RHS  COST  1\nENDATA\n",
      // Non-numeric value.
      "NAME  X\nROWS\n N  COST\n L  r\nCOLUMNS\n    x  r  abc\nENDATA\n",
      // Unknown bound type.
      "NAME  X\nROWS\n N  COST\nBOUNDS\n XX BND  x  1\nENDATA\n",
      // Crossed bounds via FX then LO.
      "NAME  X\nROWS\n N  COST\nBOUNDS\n UP BND  x  1\n LO BND  x  5\n"
      "ENDATA\n",
      // Missing ENDATA.
      "NAME  X\nROWS\n N  COST\n",
      // Data before any section header.
      "    x  r  1\nENDATA\n",
  };
  for (const char* text : cases) {
    EXPECT_THROW(readMps(text), dynsched::CheckError) << text;
  }
}

TEST(MpsReader, AcceptsCarriageReturnsAndComments) {
  const std::string text =
      "* leading comment\r\n"
      "NAME  CRLF\r\n"
      "ROWS\r\n"
      " N  COST\r\n"
      " L  cap\r\n"
      "COLUMNS\r\n"
      "* interior comment\r\n"
      "    x  cap  2\r\n"
      "RHS\r\n"
      "    RHS  cap  4\r\n"
      "ENDATA\r\n";
  const MpsProblem p = readMps(text);
  EXPECT_EQ(p.model.numRows(), 1);
  EXPECT_DOUBLE_EQ(p.model.rowUpper(0), 4.0);
}

TEST(MpsReader, FiveFieldDataLines) {
  // Classic fixed-form archives put two (row, value) pairs per line.
  const std::string text =
      "NAME  PAIRS\n"
      "ROWS\n"
      " N  COST\n"
      " L  r1\n"
      " G  r2\n"
      "COLUMNS\n"
      "    x  r1  1  r2  2\n"
      "RHS\n"
      "    RHS  r1  5  r2  1\n"
      "ENDATA\n";
  const MpsProblem p = readMps(text);
  EXPECT_DOUBLE_EQ(p.model.rowUpper(0), 5.0);
  EXPECT_DOUBLE_EQ(p.model.rowLower(1), 1.0);
  ASSERT_EQ(p.model.column(0).size(), 2u);
}

TEST(MpsWriter, EmitsAllSections) {
  LpModel m;
  const int x = m.addVariable(0, 1, 2.5, "x1");
  const int y = m.addVariable(-kInf, kInf, -1.0, "yfree");
  const int z = m.addVariable(2, 2, 0.0, "zfix");
  m.addRow(-kInf, 4.0, {{x, 1.0}, {y, 2.0}}, "cap");
  m.addRow(1.0, 1.0, {{x, 1.0}, {z, 1.0}}, "assign");
  m.addRow(1.0, 3.0, {{y, 1.0}}, "range");
  std::ostringstream out;
  MpsOptions options;
  options.integerColumns = {true, false, false};
  writeMps(m, out, options);
  const std::string text = out.str();
  for (const char* needle :
       {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA",
        " L  cap", " E  assign", " L  range", "INTORG", "INTEND", "x1",
        "yfree", " FR BND  yfree", " FX BND  zfix  2"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing " << needle;
  }
}

TEST(MpsWriter, GeneratesNamesWhenAbsent) {
  LpModel m;
  const int x = m.addVariable(0, 1, 1.0);
  m.addRow(0, 1, {{x, 1.0}});
  std::ostringstream out;
  writeMps(m, out);
  EXPECT_NE(out.str().find("C000000"), std::string::npos);
  EXPECT_NE(out.str().find("R000000"), std::string::npos);
}

}  // namespace
}  // namespace dynsched::lp
