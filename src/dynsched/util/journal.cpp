#include "dynsched/util/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "dynsched/util/error.hpp"
#include "dynsched/util/logging.hpp"

namespace dynsched::util {

namespace {

constexpr std::array<char, 8> kMagic = {'D', 'S', 'J', 'R', 'N', 'L', '1',
                                        '\n'};
constexpr std::size_t kHeaderBytes = kMagic.size() + 4 + 4;
constexpr std::size_t kFrameBytes = 4 + 2 + 2 + 4;  // len, type, version, crc
/// Sanity bound on one record; anything larger is treated as a corrupt
/// length field, not an allocation request.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

void putU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint16_t getU16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t getU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

[[noreturn]] void throwErrno(const std::string& what, const std::string& path) {
  throw JournalError(what + " '" + path + "': " + std::strerror(errno));
}

std::string headerBytes() {
  std::string header(kMagic.data(), kMagic.size());
  putU32(header, kJournalFormatVersion);
  putU32(header, crc32(header.data(), header.size()));
  return header;
}

void writeAll(int fd, const char* data, std::size_t size,
              const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throwErrno("cannot write journal", path);
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  std::uint64_t h = seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void atomicWriteFile(const std::string& path, std::string_view contents) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throwErrno("cannot create temp file for", path);
  try {
    writeAll(fd, contents.data(), contents.size(), tmp);
    if (::fsync(fd) != 0) throwErrno("cannot fsync temp file for", path);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throwErrno("cannot rename temp file onto", path);
  }
}

void PayloadWriter::u16(std::uint16_t v) { putU16(bytes_, v); }
void PayloadWriter::u32(std::uint32_t v) { putU32(bytes_, v); }

void PayloadWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void PayloadWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void PayloadWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  bytes_.append(v.data(), v.size());
}

const unsigned char* PayloadReader::take(std::size_t n) {
  if (data_.size() - pos_ < n) {
    throw JournalError("journal record payload underrun: need " +
                       std::to_string(n) + " bytes, have " +
                       std::to_string(data_.size() - pos_));
  }
  const auto* p =
      reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
  pos_ += n;
  return p;
}

std::uint8_t PayloadReader::u8() { return *take(1); }
std::uint16_t PayloadReader::u16() { return getU16(take(2)); }
std::uint32_t PayloadReader::u32() { return getU32(take(4)); }

std::uint64_t PayloadReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

double PayloadReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string PayloadReader::str() {
  const std::uint32_t n = u32();
  const unsigned char* p = take(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

JournalReadResult readJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw JournalError("cannot open journal '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  if (data.size() < kHeaderBytes) {
    throw JournalError("journal '" + path + "' is too short for a header (" +
                       std::to_string(data.size()) + " bytes): not a journal "
                       "or created by a crashed process before its header "
                       "was flushed");
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  if (std::memcmp(data.data(), kMagic.data(), kMagic.size()) != 0) {
    throw JournalError("journal '" + path + "' has a bad magic number (not a "
                       "dynsched run journal)");
  }
  // The version is diagnosed before the header CRC so that a journal written
  // by a newer build fails with "incompatible version", not "corrupt".
  const std::uint32_t version = getU32(bytes + kMagic.size());
  if (version != kJournalFormatVersion) {
    throw JournalError(
        "journal '" + path + "' has incompatible format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kJournalFormatVersion) +
        "); re-run without --resume to start a fresh journal");
  }
  const std::uint32_t wantHeaderCrc =
      crc32(data.data(), kMagic.size() + 4);
  if (getU32(bytes + kMagic.size() + 4) != wantHeaderCrc) {
    throw JournalError("journal '" + path + "' has a corrupt header "
                       "checksum");
  }

  JournalReadResult result;
  std::size_t pos = kHeaderBytes;
  const auto tornTail = [&](const std::string& why) {
    result.tailDropped = true;
    std::ostringstream os;
    os << "journal '" << path << "': dropping torn tail at byte " << pos
       << " of " << data.size() << " (" << why << "); the steps it covered "
       << "will be re-done";
    result.tailWarning = os.str();
  };

  while (pos < data.size()) {
    if (data.size() - pos < kFrameBytes) {
      tornTail("truncated record frame");
      break;
    }
    const std::uint32_t payloadLen = getU32(bytes + pos);
    const std::uint16_t type = getU16(bytes + pos + 4);
    const std::uint16_t recVersion = getU16(bytes + pos + 6);
    const std::uint32_t wantCrc = getU32(bytes + pos + 8);
    if (payloadLen > kMaxPayloadBytes) {
      tornTail("implausible record length " + std::to_string(payloadLen));
      break;
    }
    if (data.size() - pos - kFrameBytes < payloadLen) {
      tornTail("record runs past end of file");
      break;
    }
    // The CRC covers type+version+payload: the 8 framed bytes after the
    // length, then the payload itself.
    std::uint32_t crc = crc32(bytes + pos + 4, 4);
    crc = crc32(bytes + pos + kFrameBytes, payloadLen, crc);
    if (crc != wantCrc) {
      tornTail("record checksum mismatch");
      break;
    }
    JournalRecord record;
    record.type = type;
    record.version = recVersion;
    record.payload.assign(data.data() + pos + kFrameBytes, payloadLen);
    result.records.push_back(std::move(record));
    pos += kFrameBytes + payloadLen;
  }
  result.validBytes = result.tailDropped ? pos : data.size();
  result.droppedBytes = data.size() - result.validBytes;
  return result;
}

JournalWriter::JournalWriter(int fd, std::string path)
    : fd_(fd), path_(std::move(path)) {}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

JournalWriter JournalWriter::create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throwErrno("cannot create journal", path);
  JournalWriter writer(fd, path);
  const std::string header = headerBytes();
  writeAll(fd, header.data(), header.size(), path);
  writer.flush();
  return writer;
}

JournalWriter JournalWriter::append(const std::string& path,
                                    const JournalReadResult& read) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) throwErrno("cannot reopen journal", path);
  // Drop the torn tail (if any) before appending: everything after
  // validBytes failed verification and would shadow the records we are
  // about to write.
  if (::ftruncate(fd, static_cast<off_t>(read.validBytes)) != 0) {
    ::close(fd);
    throwErrno("cannot truncate torn tail of journal", path);
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    throwErrno("cannot seek in journal", path);
  }
  return JournalWriter(fd, path);
}

void JournalWriter::write(std::uint16_t type, std::uint16_t version,
                          std::string_view payload) {
  if (payload.size() > kMaxPayloadBytes) {
    throw JournalError("journal record payload too large: " +
                       std::to_string(payload.size()) + " bytes");
  }
  std::string frame;
  frame.reserve(kFrameBytes + payload.size());
  putU32(frame, static_cast<std::uint32_t>(payload.size()));
  putU16(frame, type);
  putU16(frame, version);
  std::uint32_t crc = crc32(frame.data() + 4, 4);
  crc = crc32(payload.data(), payload.size(), crc);
  putU32(frame, crc);
  frame.append(payload.data(), payload.size());
  writeAll(fd_, frame.data(), frame.size(), path_);
}

void JournalWriter::flush() {
  if (fd_ < 0) return;
  if (::fsync(fd_) != 0) throwErrno("cannot fsync journal", path_);
}

OpenedJournal openRunJournal(const RunJournalOptions& options,
                             std::string_view owner, std::uint16_t metaType,
                             std::uint64_t fingerprint,
                             const PayloadWriter& meta,
                             std::initializer_list<RecordVersion> versions) {
  const std::string& path = options.path;
  const std::string journal =
      std::string(owner) + " journal '" + path + "'";
  JournalReadResult replay;
  if (options.resume && std::ifstream(path).good()) {
    replay = readJournal(path);
    if (replay.tailDropped) DYNSCHED_LOG(Warn) << replay.tailWarning;
    if (!replay.records.empty() && replay.records.front().type != metaType) {
      throw JournalError(journal + " does not start with its meta record; "
                         "it was not written by the " + std::string(owner));
    }
    for (const JournalRecord& record : replay.records) {
      for (const RecordVersion& known : versions) {
        if (record.type == known.type && record.version > known.version) {
          throw JournalError(
              journal + " record type " + std::to_string(record.type) +
              " has version " + std::to_string(record.version) +
              "; this build reads up to " + std::to_string(known.version) +
              " — the journal was written by a newer build");
        }
      }
      if (record.type == metaType &&
          PayloadReader(record.payload).u64() != fingerprint) {
        throw JournalError(journal + " belongs to a different run "
                           "(fingerprint mismatch); refusing to mix runs — "
                           "start a fresh journal (without --resume)");
      }
    }
    if (!replay.records.empty()) {
      JournalWriter writer = JournalWriter::append(path, replay);
      return OpenedJournal{std::move(replay), std::move(writer)};
    }
  }
  // A fresh run, or a resumed file that died before its meta record was
  // written (a bare header, perhaps plus a torn tail): start over.
  const RecordVersion* metaVersion = nullptr;
  for (const RecordVersion& known : versions) {
    if (known.type == metaType) metaVersion = &known;
  }
  DYNSCHED_CHECK_MSG(metaVersion != nullptr,
                     owner << " journal: meta record type " << metaType
                           << " has no listed version");
  JournalWriter writer = JournalWriter::create(path);
  writer.write(metaType, metaVersion->version, meta);
  writer.flush();
  return OpenedJournal{std::move(replay), std::move(writer)};
}

}  // namespace dynsched::util
