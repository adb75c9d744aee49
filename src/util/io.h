#ifndef HIGNN_UTIL_IO_H_
#define HIGNN_UTIL_IO_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace hignn {

/// \brief Little-endian binary serialization helpers with a tagged,
/// versioned, checksummed container format. Used by the model,
/// checkpoint and embedding-store Save/Load methods so trained artifacts
/// can be cached between runs and survive crashes.
///
/// Container layout (format version 2):
///
///   payload:  magic "HGNN", u32 version, u32 tag, then typed payload,
///             split into one or more *sections* (header is section 0;
///             writers insert boundaries with NextSection())
///   footer:   per-section (u64 length, u32 crc32), u32 section count,
///             u32 footer crc32, magic "HGNC"
///
/// Writers are atomic: bytes go to `<path>.tmp.<pid>`, and Close()
/// fsyncs, renames over the destination, and fsyncs the directory, so a
/// crash mid-write never leaves a partial artifact under the final name.
/// Readers verify the footer and every section checksum *before* any
/// payload is parsed, so truncated or bit-flipped files are rejected with
/// Status::IOError instead of being decoded into garbage.
class BinaryWriter {
 public:
  /// \brief Opens the temporary file for `path`; check ok() before use.
  /// Nothing appears at `path` itself until Close() succeeds.
  explicit BinaryWriter(const std::string& path);
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  bool ok() const { return static_cast<bool>(out_); }

  /// \brief Writes magic/version/tag and closes the header section.
  void WriteHeader(uint32_t tag);

  /// \brief Ends the current checksum section; subsequent bytes start a
  /// new one. Section granularity is the unit of corruption reporting —
  /// callers typically break at logical payload boundaries (per level,
  /// per tensor group).
  void NextSection();

  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI32(int32_t value);
  void WriteI64(int64_t value);
  void WriteF32(float value);
  void WriteF64(double value);
  void WriteFloats(const float* data, size_t count);
  void WriteI32s(const int32_t* data, size_t count);

  /// \brief Payload bytes emitted so far (header included, footer not).
  /// Equals the file offset the next write lands at, which is what
  /// AlignTo() and offset-indexed formats care about.
  uint64_t payload_bytes() const;

  /// \brief Zero-pads until payload_bytes() is a multiple of `alignment`
  /// (a power of two). Offset-indexed formats call this before raw arrays
  /// so readers can hand out properly aligned zero-copy pointers.
  void AlignTo(size_t alignment);

  /// \brief Raw arrays without the WriteFloats/WriteI32s count prefix —
  /// the caller owns the count and (via AlignTo) the placement. Used by
  /// the embedding store, whose readers alias rows in place.
  void WriteRawFloats(const float* data, size_t count);
  void WriteRawI32s(const int32_t* data, size_t count);

  /// \brief Writes the integrity footer, fsyncs, and atomically renames
  /// the temporary file over the destination. On any failure the
  /// temporary file is removed and the previous artifact (if any) is left
  /// untouched.
  Status Close();

 private:
  void Append(const void* data, size_t count);

  std::string final_path_;
  std::string tmp_path_;
  std::ofstream out_;
  bool closed_ = false;

  struct Section {
    uint64_t length;
    uint32_t crc;
  };
  std::vector<Section> sections_;
  uint64_t section_length_ = 0;
  uint32_t section_crc_ = 0;  // running state, kCrc32Init-based
};

/// \brief Reader counterpart. The whole file is loaded and its footer and
/// section checksums verified inside ReadHeader(); every subsequent read
/// is bounds-checked against the verified payload, so no method ever
/// returns bytes from a corrupt or truncated file.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  bool ok() const { return ok_; }

  /// \brief Verifies the integrity footer, every section checksum, the
  /// magic/version, and that the payload tag matches.
  Status ReadHeader(uint32_t expected_tag);
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<int64_t> ReadI64();
  Result<float> ReadF32();
  Result<double> ReadF64();
  Status ReadFloats(float* data, size_t count);
  Status ReadI32s(int32_t* data, size_t count);

  /// \brief Current read offset into the verified payload.
  size_t position() const { return pos_; }

  /// \brief Verified payload bytes not read yet. Payload readers bound
  /// every count a header declares by it before they allocate.
  size_t remaining() const { return payload_size_ - pos_; }

  /// \brief Skips the zero padding a writer-side AlignTo(alignment)
  /// emitted; fails on truncation like any other read.
  Status AlignTo(size_t alignment);

  /// \brief Zero-copy counterparts of ReadFloats/ReadI32s for
  /// WriteRawFloats/WriteRawI32s payloads: bounds-check `count` elements,
  /// return a pointer aliasing the verified in-memory payload, and
  /// advance. The pointer is valid for the reader's lifetime (the reader
  /// owns the buffer) and requires the offset to be element-aligned —
  /// writers guarantee that with AlignTo().
  Result<const float*> BorrowFloats(size_t count);
  Result<const int32_t*> BorrowI32s(size_t count);

 private:
  Status VerifyContainer();
  Status Pull(void* dst, size_t count);

  // The file image, read straight into storage that is never zero-filled
  // first (std::vector<char>::resize would memset every byte).
  std::unique_ptr<char[]> buffer_;
  size_t size_ = 0;
  size_t pos_ = 0;
  size_t payload_size_ = 0;
  bool ok_ = false;
  bool verified_ = false;
};

/// \brief Atomically replaces `path` with `contents` (text or bytes):
/// writes to `<path>.tmp.<pid>`, fsyncs, renames over the destination and
/// fsyncs the directory — the same crash-safety contract as BinaryWriter,
/// for artifacts whose format is line-oriented (TSV, CSV, JSON) rather
/// than the checksummed container. A crash mid-write never leaves a
/// partial file under the final name.
Status AtomicWriteTextFile(const std::string& path,
                           const std::string& contents);

/// Payload tags for the container header. Tag 1 holds one matrix; only
/// the IO test suites write it. Retired tags must never be reused, so an
/// old file fails its tag check instead of being misparsed: 2 was the
/// binary graph container (graph input is TSV), 3 models and 4
/// checkpoints that stored graphs. Models (7) and checkpoints (8) hold
/// none: a level keeps only its graph's shape.
inline constexpr uint32_t kTagMatrix = 1;
inline constexpr uint32_t kTagManifest = 5;
inline constexpr uint32_t kTagEmbeddingStore = 6;
inline constexpr uint32_t kTagHignnModel = 7;
inline constexpr uint32_t kTagCheckpoint = 8;

}  // namespace hignn

#endif  // HIGNN_UTIL_IO_H_
