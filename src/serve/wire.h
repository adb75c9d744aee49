#ifndef HIGNN_SERVE_WIRE_H_
#define HIGNN_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "predict/recommender.h"
#include "serve/engine.h"
#include "util/status.h"

namespace hignn {

/// \brief The scoring server's wire protocol: little-endian,
/// length-prefixed frames over TCP, every layout fixed per verb.
///
///   frame    := u32 payload_length, payload bytes
///   request  := u8 verb, verb body, u64 request_id
///   reply    := u8 status, then on kOk the verb's reply body [+ trace],
///               else a u32-prefixed error message
///
/// Verb bodies (request / kOk reply):
///   kScore     u32 n, n x (i32 user, i32 item)
///              u32 n, n x f32 probability (request order)
///   kTopK      i32 user, i32 k, i32 beam
///              u32 n, n x (i32 item, f32 score), ranked
///              beam 0 = the server's configured default (--topk-beam);
///              < 0 = exact linear scan; > 0 = beam-search descent of the
///              store's cluster-tree index with that width.
///   kHealth    empty / u8 1, u32 store generation
///   kStats     empty / u32-prefixed JSON string: the daemon's fields and
///              its MetricsRegistry::DumpJson() (DESIGN.md §17)
///   kReload    u32-prefixed store path ("" = re-open the path the
///              current generation was loaded from) / u32 new store
///              generation. A reload that fails validation answers
///              kInternal and the previous generation keeps serving.
///   kMetrics   empty / u32-prefixed Prometheus text exposition of the
///              daemon's MetricsRegistry (DESIGN.md §17)
///   kTraceDump empty / u32-prefixed JSONL dump of the daemon's event log
///
/// request_id 0 means untraced. A kOk reply to a request with a non-zero
/// request_id appends the trace: `u64 request_id, 8 x i64 phase stamps`
/// (obs::EventPhase order, -1 = phase not reached; reply_flushed is
/// always -1 because the reply is not yet flushed while being built).
/// No other reply carries it, so its presence depends on the request
/// alone.
///
/// Decoding is strict: a frame must have exactly the length its layout
/// requires, or it is rejected as kBadRequest. The request ID goes last
/// so every body's leading count, user or string length sits at the
/// same offset as in every earlier layout; no earlier frame can then have
/// the length its current layout requires, and all of them are rejected.
///
/// Floats travel as their IEEE-754 bit pattern in a u32, so a score is
/// bit-exact across the wire — the parity tests compare for equality,
/// not approximate closeness.
enum class WireVerb : uint8_t {
  kScore = 1,
  kTopK = 2,
  kHealth = 3,
  kStats = 4,
  kReload = 5,
  kMetrics = 6,
  kTraceDump = 7,
};

/// \brief Known verb bytes run from 1 to kNumWireVerbs.
inline constexpr int32_t kNumWireVerbs = 7;

/// \brief Lowercase verb name ("score", "topk", ...), used in the codec's
/// error messages and the `serve.{requests,errors}.<name>` counters.
const char* VerbName(WireVerb verb);

/// \brief Response status on the wire.
enum class WireStatus : uint8_t {
  kOk = 0,
  kBadRequest = 1,   ///< malformed frame or invalid ids — caller's fault
  kOverloaded = 2,   ///< shed by the micro-batcher; retry with backoff
  kInternal = 3,     ///< server-side failure
};

/// \brief Upper bound on a frame payload; a length prefix above this is
/// treated as a protocol violation, not an allocation request.
inline constexpr uint32_t kMaxFrameBytes = 1u << 24;  // 16 MiB

/// \brief Per-frame kScore row bound: protocol sanity, distinct from the
/// batcher's queue bound (which governs overload, not parsing).
inline constexpr uint32_t kMaxRequestRows = 1u << 20;

/// \brief One request; only the fields of `verb`'s body are encoded.
struct WireRequest {
  explicit WireRequest(WireVerb v = WireVerb::kHealth) : verb(v) {}

  WireVerb verb;
  std::vector<ScoreRequest> pairs;  ///< kScore
  int32_t user = 0;                 ///< kTopK
  int32_t k = 0;                    ///< kTopK
  int32_t beam = 0;                 ///< kTopK
  std::string store_path;           ///< kReload
  uint64_t request_id = 0;          ///< 0 = untraced
};

/// \brief One reply to a WireRequest; only the fields of the request
/// verb's reply body are encoded.
struct WireReply {
  WireStatus status = WireStatus::kOk;
  std::vector<float> scores;        ///< kScore
  std::vector<Recommendation> top;  ///< kTopK
  uint32_t generation = 0;          ///< kHealth, kReload
  /// kStats / kMetrics / kTraceDump body, or the error message of a
  /// non-kOk reply.
  std::string text;
  /// The server's phase stamps; on the wire only for a kOk reply to a
  /// traced request.
  obs::Event trace;
};

/// \brief Request payload (without the frame's length prefix).
std::vector<char> EncodeRequest(const WireRequest& request);

/// \brief Parses a request payload. InvalidArgument when the verb is
/// unknown, a kScore count exceeds kMaxRequestRows, or the payload is
/// not exactly the verb's length (the message names the verb and the
/// expected vs received byte count).
Result<WireRequest> DecodeRequest(const std::vector<char>& payload);

/// \brief Reply payload to `request`: its verb picks the body layout and
/// its request_id whether a kOk reply carries `reply.trace`.
std::vector<char> EncodeReply(const WireRequest& request,
                              const WireReply& reply);

/// \brief Parses the reply to `request`. InvalidArgument for an unknown
/// status, a length other than the layout's, a kScore reply whose count
/// differs from the request's, a health byte other than 1, or a trace
/// that does not echo the request ID.
Result<WireReply> DecodeReply(const WireRequest& request,
                              const std::vector<char>& payload);

/// \brief Writes one length-prefixed frame to a connected socket,
/// looping over partial sends. Peer resets (ECONNRESET / EPIPE / a send
/// that stops making progress after the peer closed) are Unavailable —
/// transient transport failures a retry policy may reconnect through;
/// every other socket failure is IOError.
Status SendFrame(int fd, const std::vector<char>& payload);

/// \brief Reads one length-prefixed frame. Distinguishes the interesting
/// failures: clean EOF before any byte (NotFound — the peer closed),
/// receive timeout (FailedPrecondition), peer reset / mid-frame EOF
/// (Unavailable — the transport died under the frame, retryable on a
/// fresh connection), and everything else (IOError). A length prefix
/// above `max_bytes` is an IOError — a protocol violation, never
/// retryable.
Result<std::vector<char>> RecvFrame(int fd,
                                    uint32_t max_bytes = kMaxFrameBytes);

/// \brief True when the status came from RecvFrame hitting the socket
/// receive timeout (SO_RCVTIMEO) rather than a real error.
bool IsRecvTimeout(const Status& status);

/// \brief True when RecvFrame saw a clean close before any frame byte.
bool IsRecvClosed(const Status& status);

/// \brief Retry taxonomy: true for failures a client may safely retry on
/// a fresh connection — peer resets (Unavailable), clean closes between
/// frames (NotFound), and receive timeouts. Protocol violations
/// (IOError) and server-reported request errors are excluded: retrying
/// those repeats a bug, not a transient.
bool IsRetryableTransport(const Status& status);

}  // namespace hignn

#endif  // HIGNN_SERVE_WIRE_H_
