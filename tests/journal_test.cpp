// Crash-safe journal tests: CRC/framing round trips, atomic file writes,
// the corruption suite — truncated tail, flipped checksum byte, mid-record
// EOF, empty file, and future-version records must each either resume
// (dropping the bad tail) or fail with a structured error, never UB (this
// suite runs under ASan/UBSan in CI) — and the openRunJournal protocol that
// every journal owner resumes through.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "dynsched/util/budget.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/journal.hpp"
#include "dynsched/util/signals.hpp"

namespace dynsched::util {
namespace {

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(Crc32, MatchesKnownVector) {
  // The classic IEEE 802.3 check value for "123456789".
  const char data[] = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(data, 0), 0u);
}

TEST(Crc32, SeedChainsIncrementally) {
  const char data[] = "123456789";
  const std::uint32_t whole = crc32(data, 9);
  const std::uint32_t part = crc32(data, 4);
  EXPECT_EQ(crc32(data + 4, 5, part), whole);
}

TEST(Fnv1a64, DistinguishesInputs) {
  const char a[] = "abc";
  const char b[] = "abd";
  EXPECT_NE(fnv1a64(a, 3), fnv1a64(b, 3));
  EXPECT_EQ(fnv1a64(a, 3), fnv1a64(a, 3));
}

TEST(Payload, RoundTripsEveryType) {
  PayloadWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.str("provenance: rung=optimal");
  PayloadReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "provenance: rung=optimal");
  EXPECT_TRUE(r.atEnd());
}

TEST(Payload, UnderrunThrowsStructuredError) {
  PayloadWriter w;
  w.u16(7);
  PayloadReader r(w.bytes());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u32(), JournalError);
  // A string whose declared length exceeds the remaining bytes must throw,
  // not read out of bounds.
  PayloadWriter bad;
  bad.u32(1000);  // str length prefix with no payload behind it
  PayloadReader rs(bad.bytes());
  EXPECT_THROW(rs.str(), JournalError);
}

TEST(AtomicWrite, CreatesAndReplaces) {
  const std::string path = tempPath("atomic.txt");
  atomicWriteFile(path, "first");
  EXPECT_EQ(slurp(path), "first");
  atomicWriteFile(path, "second, longer than before");
  EXPECT_EQ(slurp(path), "second, longer than before");
  std::remove(path.c_str());
}

TEST(AtomicWrite, UnwritableDirectoryThrowsAndLeavesNothing) {
  const std::string path =
      tempPath("no-such-dir") + "/sub/target.mps";
  EXPECT_THROW(atomicWriteFile(path, "x"), JournalError);
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good());
}

TEST(Journal, WriteReadRoundTrip) {
  const std::string path = tempPath("roundtrip.jrnl");
  {
    JournalWriter w = JournalWriter::create(path);
    PayloadWriter p1;
    p1.u64(11);
    p1.str("row one");
    w.write(2, 1, p1);
    PayloadWriter p2;
    p2.u64(22);
    w.write(3, 1, p2);
    w.flush();
  }
  const JournalReadResult read = readJournal(path);
  EXPECT_FALSE(read.tailDropped);
  EXPECT_TRUE(read.tailWarning.empty());
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.records[0].type, 2);
  EXPECT_EQ(read.records[0].version, 1);
  PayloadReader r(read.records[0].payload);
  EXPECT_EQ(r.u64(), 11u);
  EXPECT_EQ(r.str(), "row one");
  EXPECT_EQ(read.records[1].type, 3);
  EXPECT_EQ(read.validBytes, slurp(path).size());
  std::remove(path.c_str());
}

TEST(Journal, AppendContinuesAfterRead) {
  const std::string path = tempPath("append.jrnl");
  {
    JournalWriter w = JournalWriter::create(path);
    PayloadWriter p;
    p.u64(1);
    w.write(2, 1, p);
  }
  {
    const JournalReadResult read = readJournal(path);
    JournalWriter w = JournalWriter::append(path, read);
    PayloadWriter p;
    p.u64(2);
    w.write(2, 1, p);
  }
  const JournalReadResult read = readJournal(path);
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_FALSE(read.tailDropped);
  std::remove(path.c_str());
}

TEST(JournalCorruption, EmptyFileThrows) {
  const std::string path = tempPath("empty.jrnl");
  spit(path, "");
  EXPECT_THROW(readJournal(path), JournalError);
  std::remove(path.c_str());
}

TEST(JournalCorruption, MissingFileThrows) {
  EXPECT_THROW(readJournal(tempPath("does-not-exist.jrnl")), JournalError);
}

TEST(JournalCorruption, BadMagicThrows) {
  const std::string path = tempPath("badmagic.jrnl");
  spit(path, "NOTAJRNL................");
  EXPECT_THROW(readJournal(path), JournalError);
  std::remove(path.c_str());
}

TEST(JournalCorruption, TruncatedHeaderThrows) {
  const std::string path = tempPath("shorthdr.jrnl");
  spit(path, "DSJRNL1\n\x01");  // magic + 1 of 8 header-tail bytes
  EXPECT_THROW(readJournal(path), JournalError);
  std::remove(path.c_str());
}

TEST(JournalCorruption, FutureFormatVersionThrowsStructured) {
  const std::string path = tempPath("futurever.jrnl");
  // Craft a version-2 header; the version gate fires before the header CRC
  // so the error names both versions (check.sh greps for this).
  std::string bytes = "DSJRNL1\n";
  bytes += '\x02';
  bytes.append(3, '\0');
  bytes.append(4, '\0');  // CRC field, irrelevant past the version gate
  spit(path, bytes);
  try {
    readJournal(path);
    FAIL() << "expected JournalError";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("incompatible format version"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(JournalCorruption, TruncatedTailIsDroppedNotFatal) {
  const std::string path = tempPath("torn.jrnl");
  {
    JournalWriter w = JournalWriter::create(path);
    for (int i = 0; i < 3; ++i) {
      PayloadWriter p;
      p.u64(static_cast<std::uint64_t>(i));
      p.str("payload payload payload");
      w.write(2, 1, p);
    }
  }
  const std::string full = slurp(path);
  // Cut mid-way through the last record (mid-record EOF / torn append).
  spit(path, full.substr(0, full.size() - 7));
  const JournalReadResult read = readJournal(path);
  EXPECT_TRUE(read.tailDropped);
  EXPECT_FALSE(read.tailWarning.empty());
  // The torn byte count is part of the result (recovery meta records and
  // Health reporting persist it), not just the stderr warning.
  EXPECT_EQ(read.droppedBytes, slurp(path).size() - read.validBytes);
  EXPECT_GT(read.droppedBytes, 0u);
  ASSERT_EQ(read.records.size(), 2u);
  // Appending after the torn read truncates the tail and keeps going.
  {
    JournalWriter w = JournalWriter::append(path, read);
    PayloadWriter p;
    p.u64(99);
    p.str("rewritten");
    w.write(2, 1, p);
  }
  const JournalReadResult again = readJournal(path);
  EXPECT_FALSE(again.tailDropped);
  EXPECT_EQ(again.droppedBytes, 0u);
  ASSERT_EQ(again.records.size(), 3u);
  PayloadReader r(again.records[2].payload);
  EXPECT_EQ(r.u64(), 99u);
  std::remove(path.c_str());
}

TEST(JournalCorruption, FlippedChecksumByteDropsTail) {
  const std::string path = tempPath("flipped.jrnl");
  {
    JournalWriter w = JournalWriter::create(path);
    for (int i = 0; i < 2; ++i) {
      PayloadWriter p;
      p.u64(static_cast<std::uint64_t>(i));
      w.write(2, 1, p);
    }
  }
  std::string bytes = slurp(path);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);  // corrupt record 2
  spit(path, bytes);
  const JournalReadResult read = readJournal(path);
  EXPECT_TRUE(read.tailDropped);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_NE(read.tailWarning.find("checksum"), std::string::npos)
      << read.tailWarning;
  std::remove(path.c_str());
}

TEST(JournalCorruption, ImplausibleLengthDropsTail) {
  const std::string path = tempPath("hugelen.jrnl");
  {
    JournalWriter w = JournalWriter::create(path);
    PayloadWriter p;
    p.u64(5);
    w.write(2, 1, p);
  }
  std::string bytes = slurp(path);
  // Append a frame whose payload length claims ~4 GiB.
  bytes += "\xFF\xFF\xFF\xFF";
  bytes += std::string(8, '\x01');
  spit(path, bytes);
  const JournalReadResult read = readJournal(path);
  EXPECT_TRUE(read.tailDropped);
  ASSERT_EQ(read.records.size(), 1u);
  std::remove(path.c_str());
}

TEST(JournalCorruption, MidFrameEofDropsTail) {
  const std::string path = tempPath("midframe.jrnl");
  {
    JournalWriter w = JournalWriter::create(path);
    PayloadWriter p;
    p.u64(5);
    w.write(2, 1, p);
  }
  std::string bytes = slurp(path);
  bytes += "\x08\x00";  // 2 bytes of a 12-byte frame header
  spit(path, bytes);
  const JournalReadResult read = readJournal(path);
  EXPECT_TRUE(read.tailDropped);
  ASSERT_EQ(read.records.size(), 1u);
  std::remove(path.c_str());
}

// ------------------------------------------------------- openRunJournal

constexpr std::uint16_t kTestMeta = 1;
constexpr std::uint16_t kTestRow = 2;

PayloadWriter testMeta(std::uint64_t fingerprint) {
  PayloadWriter meta;
  meta.u64(fingerprint);
  return meta;
}

OpenedJournal openTestJournal(const std::string& path, bool resume,
                              std::uint64_t fingerprint) {
  RunJournalOptions options;
  options.path = path;
  options.resume = resume;
  return openRunJournal(options, "test", kTestMeta, fingerprint,
                        testMeta(fingerprint),
                        {{kTestMeta, 1}, {kTestRow, 1}});
}

void writeRow(JournalWriter& writer, std::uint64_t value,
              std::uint16_t version = 1) {
  PayloadWriter row;
  row.u64(value);
  writer.write(kTestRow, version, row);
}

TEST(OpenRunJournal, FreshJournalStartsWithTheMetaRecord) {
  const std::string path = tempPath("open-fresh.jrnl");
  std::remove(path.c_str());
  {
    // `resume` with no file to resume falls back to a fresh journal.
    OpenedJournal opened = openTestJournal(path, true, 7);
    EXPECT_TRUE(opened.replay.records.empty());
    EXPECT_FALSE(opened.replay.tailDropped);
    writeRow(opened.writer, 1);
  }
  const JournalReadResult read = readJournal(path);
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.records[0].type, kTestMeta);
  EXPECT_EQ(read.records[0].version, 1);
  EXPECT_EQ(read.records[0].payload, testMeta(7).bytes());
  EXPECT_EQ(read.records[1].type, kTestRow);

  // Resuming hands back every record, meta first, and appends after them.
  {
    OpenedJournal opened = openTestJournal(path, true, 7);
    ASSERT_EQ(opened.replay.records.size(), 2u);
    EXPECT_EQ(opened.replay.records[0].type, kTestMeta);
    writeRow(opened.writer, 2);
  }
  EXPECT_EQ(readJournal(path).records.size(), 3u);
  std::remove(path.c_str());
}

TEST(OpenRunJournal, AnotherRunsFingerprintThrowsAndWithoutResumeIsReplaced) {
  const std::string path = tempPath("open-foreign.jrnl");
  {
    OpenedJournal opened = openTestJournal(path, false, 7);
    writeRow(opened.writer, 1);
  }
  EXPECT_THROW(openTestJournal(path, true, 8), JournalError);
  EXPECT_EQ(readJournal(path).records.size(), 2u);  // refused, untouched

  // Without `resume` the other run's journal is replaced, not mixed in.
  { OpenedJournal opened = openTestJournal(path, false, 8); }
  const JournalReadResult read = readJournal(path);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].payload, testMeta(8).bytes());
  std::remove(path.c_str());
}

TEST(OpenRunJournal, NewerListedVersionThrowsWhileUnlistedTypeIsSkipped) {
  const std::string path = tempPath("open-versions.jrnl");
  {
    OpenedJournal opened = openTestJournal(path, false, 7);
    PayloadWriter unknown;
    unknown.str("a record type this build never knew");
    opened.writer.write(9, 5, unknown);
  }
  {
    OpenedJournal opened = openTestJournal(path, true, 7);
    ASSERT_EQ(opened.replay.records.size(), 2u);
    EXPECT_EQ(opened.replay.records[1].type, 9);  // the owner's to skip
    writeRow(opened.writer, 1, /*version=*/2);
  }
  try {
    openTestJournal(path, true, 7);
    FAIL() << "expected JournalError";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("newer build"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(OpenRunJournal, FirstRecordThatIsNotMetaThrows) {
  const std::string path = tempPath("open-nometa.jrnl");
  {
    JournalWriter writer = JournalWriter::create(path);
    writeRow(writer, 1);
  }
  EXPECT_THROW(openTestJournal(path, true, 7), JournalError);
  std::remove(path.c_str());
}

TEST(OpenRunJournal, BareHeaderResumesFresh) {
  const std::string path = tempPath("open-bare.jrnl");
  JournalWriter::create(path);  // killed before the meta record
  {
    OpenedJournal opened = openTestJournal(path, true, 7);
    EXPECT_TRUE(opened.replay.records.empty());
    EXPECT_FALSE(opened.replay.tailDropped);
  }
  JournalReadResult read = readJournal(path);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].payload, testMeta(7).bytes());

  // A bare header plus a torn first record restarts too, and still reports
  // the tail it dropped.
  JournalWriter::create(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "XXXXX";
  }
  {
    OpenedJournal opened = openTestJournal(path, true, 7);
    EXPECT_TRUE(opened.replay.records.empty());
    EXPECT_TRUE(opened.replay.tailDropped);
    EXPECT_EQ(opened.replay.droppedBytes, 5u);
  }
  read = readJournal(path);
  EXPECT_FALSE(read.tailDropped);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].type, kTestMeta);
  std::remove(path.c_str());
}

TEST(OpenRunJournal, TornTailIsTruncatedBeforeTheFirstAppend) {
  const std::string path = tempPath("open-torn.jrnl");
  {
    OpenedJournal opened = openTestJournal(path, false, 7);
    writeRow(opened.writer, 1);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "XXXXX";
  }
  {
    OpenedJournal opened = openTestJournal(path, true, 7);
    EXPECT_TRUE(opened.replay.tailDropped);
    EXPECT_FALSE(opened.replay.tailWarning.empty());
    EXPECT_EQ(opened.replay.droppedBytes, 5u);
    EXPECT_EQ(opened.replay.records.size(), 2u);
    writeRow(opened.writer, 2);
  }
  const JournalReadResult read = readJournal(path);
  EXPECT_FALSE(read.tailDropped);
  ASSERT_EQ(read.records.size(), 3u);
  PayloadReader row(read.records[2].payload);
  EXPECT_EQ(row.u64(), 2u);
  std::remove(path.c_str());
}

TEST(FaultPlanKill, ParsesDescribesAndTriggers) {
  const FaultPlan plan = FaultPlan::parse("kill-at-step=3");
  EXPECT_TRUE(plan.any());
  EXPECT_EQ(plan.killAtStep, 3);
  EXPECT_TRUE(plan.killsAtStep(3));
  EXPECT_FALSE(plan.killsAtStep(2));
  EXPECT_FALSE(plan.failsStep(3));
  EXPECT_NE(plan.describe().find("kill-at-step=3"), std::string::npos)
      << plan.describe();
  // Composes with other kinds; describe() separates them.
  const FaultPlan both = FaultPlan::parse("fail-at-step=1,kill-at-step=2");
  EXPECT_TRUE(both.failsStep(1));
  EXPECT_TRUE(both.killsAtStep(2));
  EXPECT_NE(both.describe().find(","), std::string::npos);
  EXPECT_THROW(FaultPlan::parse("kill-at-step=x"), CheckError);
}

TEST(FaultPlanServe, ParsesServePathKinds) {
  const FaultPlan plan = FaultPlan::parse(
      "accept-fail=0,short-read=1,short-write=2,worker-stall=3,force-shed=4");
  EXPECT_TRUE(plan.any());
  EXPECT_EQ(plan.acceptFailAt, 0);
  EXPECT_EQ(plan.shortReadAt, 1);
  EXPECT_EQ(plan.shortWriteAt, 2);
  EXPECT_EQ(plan.workerStallAt, 3);
  EXPECT_EQ(plan.forceShedAt, 4);
  const std::string text = plan.describe();
  EXPECT_NE(text.find("accept-fail=0"), std::string::npos) << text;
  EXPECT_NE(text.find("force-shed=4"), std::string::npos) << text;
  // Every serve kind is counter-indexed; a bare kind is malformed.
  EXPECT_THROW(FaultPlan::parse("accept-fail"), CheckError);
  EXPECT_THROW(FaultPlan::parse("worker-stall=x"), CheckError);
}

TEST(SignalGuard, RestoresPriorDispositionAndClearsFlag) {
  // Install a custom SIGTERM handler, then let a guard replace it.
  struct sigaction custom {};
  custom.sa_handler = SIG_IGN;
  struct sigaction prior {};
  ASSERT_EQ(sigaction(SIGTERM, &custom, &prior), 0);
  {
    SignalGuard guard;
    // The dynsched handlers are live: a raise sets the cooperative flag
    // (and, because SIGTERM is no longer ignored, nothing terminates).
    clearInterrupt();
    ASSERT_EQ(raise(SIGTERM), 0);
    EXPECT_TRUE(interruptRequested());
  }
  // Guard gone: the custom disposition is back and the flag is cleared.
  EXPECT_FALSE(interruptRequested());
  struct sigaction now {};
  ASSERT_EQ(sigaction(SIGTERM, nullptr, &now), 0);
  EXPECT_EQ(now.sa_handler, SIG_IGN);
  ASSERT_EQ(sigaction(SIGTERM, &prior, nullptr), 0);
}

TEST(Interrupt, FlagReachesCancelToken) {
  clearInterrupt();
  EXPECT_FALSE(interruptRequested());
  requestInterrupt();
  EXPECT_TRUE(interruptRequested());
  CancelToken token;
  EXPECT_TRUE(token.poll());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::Interrupted);
  clearInterrupt();
  EXPECT_FALSE(interruptRequested());
  // A fresh token after the flag is cleared is unaffected.
  CancelToken clean;
  EXPECT_FALSE(clean.poll());
  EXPECT_EQ(clean.reason(), CancelReason::None);
}

TEST(Interrupt, RequestCancelMarksTokenInterrupted) {
  CancelToken token;
  token.requestCancel(CancelReason::Interrupted);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::Interrupted);
  EXPECT_EQ(std::string(cancelReasonName(CancelReason::Interrupted)),
            "interrupted");
}

TEST(Interrupt, CancelReasonIndexRoundTrips) {
  for (int i = 0; i < kCancelReasons; ++i) {
    CancelReason reason;
    ASSERT_TRUE(cancelReasonFromIndex(static_cast<std::uint8_t>(i), reason));
    EXPECT_EQ(static_cast<int>(reason), i);
  }
  CancelReason reason;
  EXPECT_FALSE(cancelReasonFromIndex(kCancelReasons, reason));
  EXPECT_FALSE(cancelReasonFromIndex(255, reason));
}

}  // namespace
}  // namespace dynsched::util
