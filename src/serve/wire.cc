#include "serve/wire.h"

#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

#include <sys/socket.h>
#include <sys/types.h>

#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {

namespace {

constexpr const char* kTimeoutMarker = "recv timeout";
constexpr const char* kClosedMarker = "peer closed";

// Reply trace: the echoed u64 request ID, then one i64 per phase.
constexpr uint64_t kTraceBytes = 8 + 8 * obs::kNumPhases;

uint64_t LoadLittleEndian(const char* data, int bytes) {
  uint64_t value = 0;
  for (int b = 0; b < bytes; ++b) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(data[b]))
             << (8 * b);
  }
  return value;
}

// The u32 right after the leading verb / status byte: the count or
// string length that sizes every variable-length body. 0 when the
// payload is too short to hold it (its length check then fails).
uint64_t LeadingU32(const std::vector<char>& payload) {
  return payload.size() >= 5 ? LoadLittleEndian(payload.data() + 1, 4) : 0;
}

Status CheckLength(WireVerb verb, const char* what, uint64_t expected,
                   size_t received) {
  if (expected == received) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("%s %s: expected %llu bytes, received %zu", VerbName(verb),
                what, static_cast<unsigned long long>(expected), received));
}

// Append-only payload builder (all little-endian).
class WireWriter {
 public:
  void PutU8(uint8_t value) { bytes_.push_back(static_cast<char>(value)); }
  void PutU32(uint32_t value) { PutLittleEndian(value, 4); }
  void PutU64(uint64_t value) { PutLittleEndian(value, 8); }
  void PutI32(int32_t value) { PutU32(static_cast<uint32_t>(value)); }
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  void PutF32(float value) {
    uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    PutU32(bits);
  }
  // u32 length prefix + raw bytes.
  void PutString(const std::string& value) {
    PutU32(static_cast<uint32_t>(value.size()));
    bytes_.insert(bytes_.end(), value.begin(), value.end());
  }

  std::vector<char> Take() { return std::move(bytes_); }

 private:
  void PutLittleEndian(uint64_t value, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      bytes_.push_back(static_cast<char>((value >> (8 * b)) & 0xffu));
    }
  }

  std::vector<char> bytes_;
};

// Payload parser for frames whose exact length was checked first, so a
// read past the end is a codec bug, not bad input.
class WireReader {
 public:
  explicit WireReader(const std::vector<char>& payload)
      : data_(payload.data()), size_(payload.size()) {}

  uint8_t TakeU8() { return static_cast<uint8_t>(*Take(1)); }
  uint32_t TakeU32() { return static_cast<uint32_t>(LoadLittleEndian(Take(4), 4)); }
  uint64_t TakeU64() { return LoadLittleEndian(Take(8), 8); }
  int32_t TakeI32() { return static_cast<int32_t>(TakeU32()); }
  int64_t TakeI64() { return static_cast<int64_t>(TakeU64()); }
  float TakeF32() {
    const uint32_t bits = TakeU32();
    float value = 0.0f;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }
  std::string TakeString() {
    const uint32_t length = TakeU32();
    return std::string(Take(length), length);
  }

 private:
  const char* Take(size_t count) {
    HIGNN_CHECK_LE(count, size_ - pos_);
    const char* at = data_ + pos_;
    pos_ += count;
    return at;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

const char* VerbName(WireVerb verb) {
  static constexpr const char* kNames[] = {"score",  "topk",    "health",
                                           "stats",  "reload",  "metrics",
                                           "trace_dump"};
  static_assert(std::size(kNames) == kNumWireVerbs &&
                static_cast<int32_t>(WireVerb::kTraceDump) == kNumWireVerbs);
  return kNames[static_cast<size_t>(verb) - 1];
}

std::vector<char> EncodeRequest(const WireRequest& request) {
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(request.verb));
  switch (request.verb) {
    case WireVerb::kScore:
      writer.PutU32(static_cast<uint32_t>(request.pairs.size()));
      for (const ScoreRequest& pair : request.pairs) {
        writer.PutI32(pair.user);
        writer.PutI32(pair.item);
      }
      break;
    case WireVerb::kTopK:
      writer.PutI32(request.user);
      writer.PutI32(request.k);
      writer.PutI32(request.beam);
      break;
    case WireVerb::kReload:
      writer.PutString(request.store_path);
      break;
    default:
      break;
  }
  writer.PutU64(request.request_id);
  return writer.Take();
}

Result<WireRequest> DecodeRequest(const std::vector<char>& payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("empty request frame");
  }
  const uint8_t verb = static_cast<uint8_t>(payload[0]);
  if (verb < 1 || verb > kNumWireVerbs) {
    return Status::InvalidArgument(StrFormat("unknown verb %u", verb));
  }
  WireRequest request;
  request.verb = static_cast<WireVerb>(verb);
  const uint64_t lead = LeadingU32(payload);
  uint64_t expected = 1 + 8;  // verb + request ID
  switch (request.verb) {
    case WireVerb::kScore:
      if (lead > kMaxRequestRows) {
        return Status::InvalidArgument(
            StrFormat("score request: %llu rows exceed the limit %u",
                      static_cast<unsigned long long>(lead),
                      kMaxRequestRows));
      }
      expected += 4 + 8 * lead;
      break;
    case WireVerb::kTopK:
      expected += 12;
      break;
    case WireVerb::kReload:
      expected += 4 + lead;
      break;
    default:
      break;
  }
  HIGNN_RETURN_IF_ERROR(
      CheckLength(request.verb, "request", expected, payload.size()));

  WireReader reader(payload);
  reader.TakeU8();  // verb
  switch (request.verb) {
    case WireVerb::kScore:
      request.pairs.resize(reader.TakeU32());
      for (ScoreRequest& pair : request.pairs) {
        pair.user = reader.TakeI32();
        pair.item = reader.TakeI32();
      }
      break;
    case WireVerb::kTopK:
      request.user = reader.TakeI32();
      request.k = reader.TakeI32();
      request.beam = reader.TakeI32();
      break;
    case WireVerb::kReload:
      request.store_path = reader.TakeString();
      break;
    default:
      break;
  }
  request.request_id = reader.TakeU64();
  return request;
}

std::vector<char> EncodeReply(const WireRequest& request,
                              const WireReply& reply) {
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(reply.status));
  if (reply.status != WireStatus::kOk) {
    writer.PutString(reply.text);
    return writer.Take();
  }
  switch (request.verb) {
    case WireVerb::kScore:
      writer.PutU32(static_cast<uint32_t>(reply.scores.size()));
      for (float score : reply.scores) writer.PutF32(score);
      break;
    case WireVerb::kTopK:
      writer.PutU32(static_cast<uint32_t>(reply.top.size()));
      for (const Recommendation& rec : reply.top) {
        writer.PutI32(rec.item);
        writer.PutF32(rec.score);
      }
      break;
    case WireVerb::kHealth:
      writer.PutU8(1);
      writer.PutU32(reply.generation);
      break;
    case WireVerb::kReload:
      writer.PutU32(reply.generation);
      break;
    default:
      writer.PutString(reply.text);
      break;
  }
  if (request.request_id != 0) {
    writer.PutU64(request.request_id);
    for (int64_t stamp : reply.trace.stamps) writer.PutI64(stamp);
  }
  return writer.Take();
}

Result<WireReply> DecodeReply(const WireRequest& request,
                              const std::vector<char>& payload) {
  if (payload.empty()) return Status::InvalidArgument("empty reply frame");
  const uint8_t status = static_cast<uint8_t>(payload[0]);
  if (status > static_cast<uint8_t>(WireStatus::kInternal)) {
    return Status::InvalidArgument(
        StrFormat("unknown reply status %u", status));
  }
  WireReply reply;
  reply.status = static_cast<WireStatus>(status);
  const bool ok = reply.status == WireStatus::kOk;
  const uint64_t lead = LeadingU32(payload);
  uint64_t expected = 1 + (ok && request.request_id != 0 ? kTraceBytes : 0);
  if (!ok) {
    expected += 4 + lead;  // error message
  } else if (request.verb == WireVerb::kScore) {
    expected += 4 + 4 * lead;
  } else if (request.verb == WireVerb::kTopK) {
    expected += 4 + 8 * lead;
  } else if (request.verb == WireVerb::kHealth) {
    expected += 1 + 4;
  } else if (request.verb == WireVerb::kReload) {
    expected += 4;
  } else {
    expected += 4 + lead;  // stats / metrics / trace-dump text
  }
  HIGNN_RETURN_IF_ERROR(
      CheckLength(request.verb, "reply", expected, payload.size()));

  WireReader reader(payload);
  reader.TakeU8();  // status
  if (!ok) {
    reply.text = reader.TakeString();
    return reply;
  }
  switch (request.verb) {
    case WireVerb::kScore:
      if (lead != request.pairs.size()) {
        return Status::InvalidArgument(
            StrFormat("score reply: %llu scores for %zu pairs",
                      static_cast<unsigned long long>(lead),
                      request.pairs.size()));
      }
      reply.scores.resize(reader.TakeU32());
      for (float& score : reply.scores) score = reader.TakeF32();
      break;
    case WireVerb::kTopK:
      reply.top.resize(reader.TakeU32());
      for (Recommendation& rec : reply.top) {
        rec.item = reader.TakeI32();
        rec.score = reader.TakeF32();
      }
      break;
    case WireVerb::kHealth:
      if (reader.TakeU8() != 1) {
        return Status::InvalidArgument("health reply: server not alive");
      }
      reply.generation = reader.TakeU32();
      break;
    case WireVerb::kReload:
      reply.generation = reader.TakeU32();
      break;
    default:
      reply.text = reader.TakeString();
      break;
  }
  if (request.request_id != 0) {
    reply.trace.request_id = reader.TakeU64();
    if (reply.trace.request_id != request.request_id) {
      return Status::InvalidArgument(
          StrFormat("%s reply: trace echoes request %016llx, sent %016llx",
                    VerbName(request.verb),
                    static_cast<unsigned long long>(reply.trace.request_id),
                    static_cast<unsigned long long>(request.request_id)));
    }
    reply.trace.verb = static_cast<uint8_t>(request.verb);
    for (int64_t& stamp : reply.trace.stamps) stamp = reader.TakeI64();
  }
  return reply;
}

namespace {

// Peer resets are a fact of life for a server whose stores hot-swap
// under live traffic: the remote died, restarted, or shed us. They get
// their own retryable category so the client's backoff policy can tell
// "the transport failed under me" from "I spoke the protocol wrong".
bool IsPeerReset(int err) {
  return err == ECONNRESET || err == EPIPE || err == ETIMEDOUT ||
         err == ECONNABORTED;
}

// The serve wire layer is the audited home of raw socket IO (the lint
// raw-write rule scopes its socket-syscall checks out of src/serve/);
// everything above this file speaks Status and frames, never fds.
Status SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsPeerReset(errno)) {
        return Status::Unavailable(
            StrFormat("peer reset during send: %s", std::strerror(errno)));
      }
      return Status::IOError(
          StrFormat("send failed: %s", std::strerror(errno)));
    }
    // A zero-byte send on a blocking stream socket means the connection
    // stopped accepting bytes (short write after close) — retryable.
    if (n == 0) return Status::Unavailable("send made no progress");
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

// `allow_eof`: a clean close is only legal before the first byte of a
// frame; mid-frame EOF means the peer died under the frame.
Status RecvAll(int fd, char* data, size_t size, bool allow_eof) {
  size_t received = 0;
  while (received < size) {
    const ssize_t n = ::recv(fd, data + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::FailedPrecondition(kTimeoutMarker);
      }
      if (IsPeerReset(errno)) {
        return Status::Unavailable(
            StrFormat("peer reset during recv: %s", std::strerror(errno)));
      }
      return Status::IOError(
          StrFormat("recv failed: %s", std::strerror(errno)));
    }
    if (n == 0) {
      if (allow_eof && received == 0) {
        return Status::NotFound(kClosedMarker);
      }
      return Status::Unavailable("connection closed mid-frame");
    }
    received += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status SendFrame(int fd, const std::vector<char>& payload) {
  if (fault::ShouldFail("serve.frame.send")) {
    return Status::Unavailable("injected frame send fault");
  }
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(payload.size()));
  const std::vector<char> prefix = writer.Take();
  HIGNN_RETURN_IF_ERROR(SendAll(fd, prefix.data(), prefix.size()));
  if (!payload.empty()) {
    HIGNN_RETURN_IF_ERROR(SendAll(fd, payload.data(), payload.size()));
  }
  return Status::OK();
}

Result<std::vector<char>> RecvFrame(int fd, uint32_t max_bytes) {
  if (fault::ShouldFail("serve.frame.recv")) {
    return Status::Unavailable("injected frame recv fault");
  }
  char prefix[4];
  HIGNN_RETURN_IF_ERROR(RecvAll(fd, prefix, sizeof(prefix),
                                /*allow_eof=*/true));
  const uint32_t length =
      static_cast<uint32_t>(LoadLittleEndian(prefix, sizeof(prefix)));
  if (length > max_bytes) {
    return Status::IOError(
        StrFormat("frame length %u exceeds limit %u", length, max_bytes));
  }
  std::vector<char> payload(length);
  if (length > 0) {
    HIGNN_RETURN_IF_ERROR(RecvAll(fd, payload.data(), payload.size(),
                                  /*allow_eof=*/false));
  }
  return payload;
}

bool IsRecvTimeout(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message() == kTimeoutMarker;
}

bool IsRecvClosed(const Status& status) {
  return status.code() == StatusCode::kNotFound &&
         status.message() == kClosedMarker;
}

bool IsRetryableTransport(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         IsRecvClosed(status) || IsRecvTimeout(status);
}

}  // namespace hignn
