#include "util/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace hignn {

namespace {

constexpr char kMagic[4] = {'H', 'G', 'N', 'N'};
constexpr char kFooterMagic[4] = {'H', 'G', 'N', 'C'};
constexpr uint32_t kFormatVersion = 2;

// Footer tail after the section entries: u32 count, u32 crc, magic.
constexpr size_t kFooterTailBytes = 4 + 4 + sizeof(kFooterMagic);
constexpr size_t kSectionEntryBytes = 8 + 4;  // u64 length + u32 crc
constexpr uint32_t kMaxSections = 1u << 20;

// fsyncs a path (file contents) so a following rename is durable.
Status SyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("open for fsync failed: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError("fsync failed: " + path);
  return Status::OK();
}

// fsyncs the directory containing `path` so the rename itself is durable.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IOError("open dir for fsync failed: " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError("fsync dir failed: " + dir);
  return Status::OK();
}

}  // namespace

BinaryWriter::BinaryWriter(const std::string& path)
    : final_path_(path),
      tmp_path_(StrFormat("%s.tmp.%d", path.c_str(),
                          static_cast<int>(::getpid()))),
      out_(tmp_path_, std::ios::binary | std::ios::trunc),
      section_crc_(kCrc32Init) {}

BinaryWriter::~BinaryWriter() {
  if (!closed_) {
    // Abandoned writer (caller bailed before Close): leave no debris.
    out_.close();
    std::remove(tmp_path_.c_str());
  }
}

void BinaryWriter::Append(const void* data, size_t count) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(count));
  section_crc_ = Crc32Extend(section_crc_, data, count);
  section_length_ += count;
}

void BinaryWriter::NextSection() {
  if (section_length_ == 0) return;
  sections_.push_back({section_length_, Crc32Finish(section_crc_)});
  section_length_ = 0;
  section_crc_ = kCrc32Init;
}

void BinaryWriter::WriteHeader(uint32_t tag) {
  Append(kMagic, sizeof(kMagic));
  WriteU32(kFormatVersion);
  WriteU32(tag);
  NextSection();
}

void BinaryWriter::WriteU32(uint32_t value) { Append(&value, sizeof(value)); }

void BinaryWriter::WriteU64(uint64_t value) { Append(&value, sizeof(value)); }

void BinaryWriter::WriteI32(int32_t value) { Append(&value, sizeof(value)); }

void BinaryWriter::WriteI64(int64_t value) { Append(&value, sizeof(value)); }

void BinaryWriter::WriteF32(float value) { Append(&value, sizeof(value)); }

void BinaryWriter::WriteF64(double value) { Append(&value, sizeof(value)); }

void BinaryWriter::WriteFloats(const float* data, size_t count) {
  WriteU64(count);
  Append(data, count * sizeof(float));
}

void BinaryWriter::WriteI32s(const int32_t* data, size_t count) {
  WriteU64(count);
  Append(data, count * sizeof(int32_t));
}

uint64_t BinaryWriter::payload_bytes() const {
  uint64_t total = section_length_;
  for (const Section& section : sections_) total += section.length;
  return total;
}

void BinaryWriter::AlignTo(size_t alignment) {
  static constexpr char kZeros[64] = {};
  while (payload_bytes() % alignment != 0) {
    const size_t pad = std::min<size_t>(
        sizeof(kZeros), alignment - payload_bytes() % alignment);
    Append(kZeros, pad);
  }
}

void BinaryWriter::WriteRawFloats(const float* data, size_t count) {
  Append(data, count * sizeof(float));
}

void BinaryWriter::WriteRawI32s(const int32_t* data, size_t count) {
  Append(data, count * sizeof(int32_t));
}

Status BinaryWriter::Close() {
  closed_ = true;
  NextSection();

  // Footer: section table, count, footer crc, footer magic. The footer
  // crc covers the table and the count so a flipped bit anywhere in the
  // trailer is caught even before section checks run.
  uint32_t footer_crc = kCrc32Init;
  for (const Section& section : sections_) {
    out_.write(reinterpret_cast<const char*>(&section.length),
               sizeof(section.length));
    footer_crc = Crc32Extend(footer_crc, &section.length,
                             sizeof(section.length));
    out_.write(reinterpret_cast<const char*>(&section.crc),
               sizeof(section.crc));
    footer_crc = Crc32Extend(footer_crc, &section.crc, sizeof(section.crc));
  }
  const uint32_t count = static_cast<uint32_t>(sections_.size());
  out_.write(reinterpret_cast<const char*>(&count), sizeof(count));
  footer_crc = Crc32Extend(footer_crc, &count, sizeof(count));
  const uint32_t footer_checksum = Crc32Finish(footer_crc);
  out_.write(reinterpret_cast<const char*>(&footer_checksum),
             sizeof(footer_checksum));
  out_.write(kFooterMagic, sizeof(kFooterMagic));

  out_.flush();
  if (!out_ || fault::ShouldFail("io.writer.close")) {
    out_.close();
    std::remove(tmp_path_.c_str());
    return Status::IOError("write failed: " + tmp_path_);
  }
  out_.close();

  // Durability + atomicity: contents to disk, then rename, then the
  // directory entry to disk. A crash before the rename leaves only the
  // tmp file; after it, the complete new artifact.
  if (Status status = SyncPath(tmp_path_); !status.ok()) {
    std::remove(tmp_path_.c_str());
    return status;
  }
  fault::MaybeCrash("io.writer.rename");
  if (fault::ShouldFail("io.writer.rename") ||
      std::rename(tmp_path_.c_str(), final_path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    return Status::IOError("rename failed: " + final_path_);
  }
  fault::MaybeCrash("io.writer.renamed");
  // Bytes are tallied once per artifact at the durable point (per-Append
  // counting would put an atomic RMW on every 4-byte scalar write).
  int64_t total_bytes = 0;
  for (const Section& section : sections_) {
    total_bytes += static_cast<int64_t>(section.length);
  }
  obs::CounterAdd("io.bytes_written", total_bytes);
  obs::CounterAdd("io.files_written");
  return SyncParentDir(final_path_);
}

Status AtomicWriteTextFile(const std::string& path,
                           const std::string& contents) {
  const std::string tmp_path =
      StrFormat("%s.tmp.%d", path.c_str(), static_cast<int>(::getpid()));
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp_path);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out || fault::ShouldFail("io.text.close")) {
      out.close();
      std::remove(tmp_path.c_str());
      return Status::IOError("write failed: " + tmp_path);
    }
  }
  if (Status status = SyncPath(tmp_path); !status.ok()) {
    std::remove(tmp_path.c_str());
    return status;
  }
  fault::MaybeCrash("io.text.rename");
  if (fault::ShouldFail("io.text.rename") ||
      std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("rename failed: " + path);
  }
  obs::CounterAdd("io.bytes_written",
                  static_cast<int64_t>(contents.size()));
  obs::CounterAdd("io.files_written");
  return SyncParentDir(path);
}

BinaryReader::BinaryReader(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return;
  const std::streamsize size = in.tellg();
  if (size < 0) return;
  in.seekg(0, std::ios::beg);
  size_ = static_cast<size_t>(size);
  buffer_ = std::make_unique_for_overwrite<char[]>(size_);
  if (size > 0) {
    in.read(buffer_.get(), size);
    if (!in) return;  // a short read leaves the reader !ok()
  }
  ok_ = true;
  obs::CounterAdd("io.bytes_read", static_cast<int64_t>(size_));
  obs::CounterAdd("io.files_read");
}

Status BinaryReader::VerifyContainer() {
  const size_t n = size_;
  if (n < kFooterTailBytes) {
    return Status::IOError("corrupt artifact: too small for footer");
  }
  if (std::memcmp(buffer_.get() + n - sizeof(kFooterMagic), kFooterMagic,
                  sizeof(kFooterMagic)) != 0) {
    return Status::IOError(
        "corrupt artifact: missing integrity footer (truncated file or "
        "pre-v2 format)");
  }
  uint32_t stored_footer_crc = 0;
  std::memcpy(&stored_footer_crc, buffer_.get() + n - 8, 4);
  uint32_t count = 0;
  std::memcpy(&count, buffer_.get() + n - 12, 4);
  if (count == 0 || count > kMaxSections) {
    return Status::IOError("corrupt artifact: bad section count");
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(count) * kSectionEntryBytes;
  if (table_bytes + kFooterTailBytes > n) {
    return Status::IOError("corrupt artifact: footer larger than file");
  }
  const size_t table_start = n - kFooterTailBytes - table_bytes;
  // Footer crc covers the table plus the count field (contiguous bytes).
  const uint32_t footer_crc =
      Crc32(buffer_.get() + table_start, table_bytes + 4);
  if (footer_crc != stored_footer_crc) {
    return Status::IOError("corrupt artifact: footer checksum mismatch");
  }

  uint64_t offset = 0;
  for (uint32_t s = 0; s < count; ++s) {
    uint64_t length = 0;
    uint32_t crc = 0;
    std::memcpy(&length, buffer_.get() + table_start + s * kSectionEntryBytes,
                8);
    std::memcpy(&crc,
                buffer_.get() + table_start + s * kSectionEntryBytes + 8, 4);
    if (length > table_start - offset) {
      return Status::IOError("corrupt artifact: section overruns payload");
    }
    if (Crc32(buffer_.get() + offset, length) != crc) {
      return Status::IOError(StrFormat(
          "corrupt artifact: checksum mismatch in section %u of %u", s,
          count));
    }
    offset += length;
  }
  if (offset != table_start) {
    return Status::IOError("corrupt artifact: payload/footer size mismatch");
  }
  payload_size_ = static_cast<size_t>(offset);
  verified_ = true;
  return Status::OK();
}

Status BinaryReader::ReadHeader(uint32_t expected_tag) {
  if (!ok_) return Status::IOError("cannot open file");
  if (!verified_) HIGNN_RETURN_IF_ERROR(VerifyContainer());
  char magic[4];
  HIGNN_RETURN_IF_ERROR(Pull(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("bad magic (not a HiGNN artifact)");
  }
  HIGNN_ASSIGN_OR_RETURN(uint32_t version, ReadU32());
  if (version != kFormatVersion) {
    return Status::IOError("unsupported format version");
  }
  HIGNN_ASSIGN_OR_RETURN(uint32_t tag, ReadU32());
  if (tag != expected_tag) {
    return Status::IOError("payload tag mismatch");
  }
  return Status::OK();
}

Status BinaryReader::Pull(void* dst, size_t count) {
  if (count > payload_size_ - pos_) {
    return Status::IOError("truncated input");
  }
  // An empty array's destination may be null, which memcpy forbids even
  // for zero bytes.
  if (count == 0) return Status::OK();
  std::memcpy(dst, buffer_.get() + pos_, count);
  pos_ += count;
  return Status::OK();
}

#define HIGNN_DEFINE_READ(Name, Type)               \
  Result<Type> BinaryReader::Name() {               \
    Type value;                                     \
    HIGNN_RETURN_IF_ERROR(Pull(&value, sizeof(value))); \
    return value;                                   \
  }

HIGNN_DEFINE_READ(ReadU32, uint32_t)
HIGNN_DEFINE_READ(ReadU64, uint64_t)
HIGNN_DEFINE_READ(ReadI32, int32_t)
HIGNN_DEFINE_READ(ReadI64, int64_t)
HIGNN_DEFINE_READ(ReadF32, float)
HIGNN_DEFINE_READ(ReadF64, double)

#undef HIGNN_DEFINE_READ

Status BinaryReader::ReadFloats(float* data, size_t count) {
  HIGNN_ASSIGN_OR_RETURN(uint64_t stored, ReadU64());
  if (stored != count) return Status::IOError("float array size mismatch");
  return Pull(data, count * sizeof(float));
}

Status BinaryReader::ReadI32s(int32_t* data, size_t count) {
  HIGNN_ASSIGN_OR_RETURN(uint64_t stored, ReadU64());
  if (stored != count) return Status::IOError("int array size mismatch");
  return Pull(data, count * sizeof(int32_t));
}

Status BinaryReader::AlignTo(size_t alignment) {
  const size_t rem = pos_ % alignment;
  if (rem == 0) return Status::OK();
  const size_t pad = alignment - rem;
  if (pad > payload_size_ - pos_) return Status::IOError("truncated input");
  pos_ += pad;
  return Status::OK();
}

namespace {

template <typename T>
Result<const T*> BorrowImpl(const char* buffer, size_t payload, size_t& pos,
                            size_t count) {
  if (count > (payload - pos) / sizeof(T)) {
    return Status::IOError("truncated input");
  }
  const size_t bytes = count * sizeof(T);
  const char* at = buffer + pos;
  if (reinterpret_cast<uintptr_t>(at) % alignof(T) != 0) {
    return Status::IOError("misaligned array (writer skipped AlignTo)");
  }
  pos += bytes;
  return reinterpret_cast<const T*>(at);
}

}  // namespace

Result<const float*> BinaryReader::BorrowFloats(size_t count) {
  return BorrowImpl<float>(buffer_.get(), payload_size_, pos_, count);
}

Result<const int32_t*> BinaryReader::BorrowI32s(size_t count) {
  return BorrowImpl<int32_t>(buffer_.get(), payload_size_, pos_, count);
}

}  // namespace hignn
