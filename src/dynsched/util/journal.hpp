// Crash-safe run journal: append-only, checksummed, length-prefixed binary
// records with torn-tail tolerance.
//
// A long study or a server writes one record per unit of completed work (a
// Table 1 row, an answer) so that a crash, OOM-kill, or Ctrl-C loses at most
// the step that was in flight.
// The format is built for exact resume:
//
//   file   = header record*
//   header = magic "DSJRNL1\n" (8 bytes) | formatVersion u32 | crc32 u32
//   record = payloadLength u32 | type u16 | version u16 | crc32 u32 | payload
//
// All integers are little-endian. The record CRC covers type, version, and
// payload, so a flipped byte anywhere in a record is detected. A reader
// replays records until the first frame that does not fully verify — a
// truncated header, a length running past EOF, or a CRC mismatch — and
// reports everything from that offset on as a *torn tail*: the well-defined
// result of dying mid-append, recovered by truncating back to the last valid
// record and appending from there. Corruption therefore degrades a run to
// "re-solve the tail", never to undefined behaviour.
//
// Versioning policy (see DESIGN.md): the file-header formatVersion must
// match exactly — framing changes are not forward-readable, and a reader
// fails fast with a structured error naming both versions. Record `type`s
// are namespaced by the owning subsystem and may be added freely (readers
// skip unknown types); the per-record `version` bumps when a payload schema
// changes, and a reader that sees a known type with a newer version must
// refuse rather than misparse. openRunJournal() applies this policy for
// every journal owner.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dynsched::util {

/// Structured journal failure: missing/unopenable file, bad magic, an
/// incompatible format version, or (openRunJournal) a journal of another run
/// or of a newer build. (A torn tail is NOT an error — readJournal() reports
/// it in the result so the caller can resume.)
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), the checksum of zlib/PNG.
/// `seed` chains incremental updates: crc32(b, crc32(a)) == crc32(a+b).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// FNV-1a 64-bit over raw bytes — cheap config fingerprints that bind a
/// journal to the run that wrote it.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Writes `contents` to `path` atomically: the bytes go to a temporary file
/// in the same directory, are fsync'ed, and the temp file is rename(2)'d
/// over the target. A crash mid-write can leave a stale temp file but never
/// a torn `path` — readers see the old content or the new, nothing between.
/// Throws JournalError when the directory is unwritable or a write fails
/// (the target is left untouched and the temp file is removed).
void atomicWriteFile(const std::string& path, std::string_view contents);

/// Journaling knobs threaded through StudyOptions and ServiceOptions.
struct RunJournalOptions {
  /// Journal file path; empty disables journaling entirely.
  std::string path;
  /// Replay an existing journal at `path` before doing new work; a missing
  /// file falls back to a fresh run (so `--resume` is safe on first launch).
  bool resume = false;

  bool enabled() const { return !path.empty(); }
};

/// Little-endian serializer for record payloads. Explicit widths only — a
/// payload written on any host parses on any other.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  ///< IEEE-754 bit pattern, bit-exact round trip
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view v);  ///< u32 length + raw bytes

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

/// Cursor over a record payload; every read throws JournalError on underrun
/// (a syntactically valid record whose payload is shorter than its schema).
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool atEnd() const { return pos_ == data_.size(); }

 private:
  const unsigned char* take(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
};

inline constexpr std::uint32_t kJournalFormatVersion = 1;

struct JournalRecord {
  std::uint16_t type = 0;
  std::uint16_t version = 0;
  std::string payload;
};

/// Everything readJournal() recovered from a journal file.
struct JournalReadResult {
  std::vector<JournalRecord> records;  ///< records that verified, in order
  /// Bytes of the verified prefix (header + valid records); append() resumes
  /// writing from exactly here.
  std::uint64_t validBytes = 0;
  bool tailDropped = false;   ///< the file continued past validBytes
  std::string tailWarning;    ///< why the tail was dropped (offset + cause)
  /// Bytes past validBytes that were discarded (0 when no tail was torn).
  /// Recovery paths persist this into their meta record so "recovered N
  /// rows, dropped M torn bytes" survives into health/status reporting
  /// instead of living only in a stderr warning.
  std::uint64_t droppedBytes = 0;
};

/// Reads and verifies a whole journal. Torn/corrupt tails are tolerated and
/// reported; a missing file, short/garbled header, or incompatible format
/// version throws JournalError.
JournalReadResult readJournal(const std::string& path);

/// Appending writer. Each write() hands its whole record to the OS in one
/// write(2) call, so records reach the file in order and nothing is
/// buffered in-process; flush() fsyncs them to the disk, and the destructor
/// only closes the file. Move-only.
class JournalWriter {
 public:
  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Creates (or truncates) `path`, writes a fresh header and fsyncs it.
  static JournalWriter create(const std::string& path);

  /// Re-opens an existing journal for appending after readJournal():
  /// truncates the file to `read.validBytes` — dropping any torn tail — and
  /// positions at the end.
  static JournalWriter append(const std::string& path,
                              const JournalReadResult& read);

  void write(std::uint16_t type, std::uint16_t version,
             std::string_view payload);
  void write(std::uint16_t type, std::uint16_t version,
             const PayloadWriter& payload) {
    write(type, version, payload.bytes());
  }

  /// fsync(2)s everything written so far.
  void flush();

 private:
  JournalWriter(int fd, std::string path);

  int fd_ = -1;
  std::string path_;
};

/// A record type its owner parses, with the newest schema version it reads.
struct RecordVersion {
  std::uint16_t type = 0;
  std::uint16_t version = 0;
};

/// A run journal opened for appending, with what it replayed.
struct OpenedJournal {
  /// The resumed file's verified records (none for a fresh journal). The
  /// torn-tail fields are set even when the resumed file held no valid
  /// record and therefore started over.
  JournalReadResult replay;
  JournalWriter writer;
};

/// The one open/resume protocol of every journal owner (study, server); the
/// owner only parses its own payloads from `replay.records`.
///
/// With `options.resume` and an existing file: reads it once and logs a
/// torn tail. Throws JournalError, naming `owner`, when the first record is
/// not `metaType`, when a `metaType` record's leading u64 is not
/// `fingerprint` (a journal of another run), or when a record of a type in
/// `versions` has a newer version than listed there (unlisted types are
/// the owner's to skip). Otherwise truncates the torn tail and appends.
///
/// Without a file to resume — and when the resumed file holds no valid
/// record — creates `path`, writes `meta` as a `metaType` record (its
/// version is the one `versions` lists) and fsyncs it.
OpenedJournal openRunJournal(const RunJournalOptions& options,
                             std::string_view owner, std::uint16_t metaType,
                             std::uint64_t fingerprint,
                             const PayloadWriter& meta,
                             std::initializer_list<RecordVersion> versions);

}  // namespace dynsched::util
