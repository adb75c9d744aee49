#ifndef HIGNN_SERVE_CLIENT_H_
#define HIGNN_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "predict/recommender.h"
#include "serve/engine.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "util/status.h"

namespace hignn {

/// \brief Client-side retry policy: capped exponential backoff with
/// deterministic (seeded) jitter and a total-sleep budget.
///
/// Only failures that are safe to repeat are retried: transient
/// transport errors (Unavailable peer resets, clean closes between
/// frames, receive timeouts — see IsRetryableTransport) and the server's
/// kOverloaded shed response. Request bugs (kBadRequest), server
/// internals (kInternal), and protocol violations (IOError) fail
/// immediately: retrying those repeats a bug, not a transient.
///
/// Backoff for attempt n (1-based retries) sleeps
///   min(initial_backoff_ms * 2^(n-1), max_backoff_ms) * jitter,
/// jitter uniform in [0.5, 1.0] from an Rng seeded with `jitter_seed` —
/// the schedule is a pure function of the seed, so tests and replay runs
/// see identical timing decisions. Retrying stops when attempts or the
/// accumulated *intended* sleep (the budget is tracked by summing the
/// chosen backoffs, never by reading a clock) would exceed the limits.
struct RetryPolicy {
  /// Total attempts including the first; 1 = fail fast, never retry.
  int32_t max_attempts = 1;

  int32_t initial_backoff_ms = 10;
  int32_t max_backoff_ms = 500;

  /// Upper bound on the sum of backoff sleeps across one logical call.
  int32_t retry_budget_ms = 2000;

  /// Seed for the jitter stream (deterministic; fork per client).
  uint64_t jitter_seed = 0x5e5e5e5eULL;
};

/// \brief Connection knobs for the scoring client.
struct ClientConfig {
  /// Bound on the non-blocking connect + poll handshake. <= 0 falls back
  /// to the OS default (a blocking connect).
  int32_t connect_timeout_ms = 2000;

  /// SO_SNDTIMEO / SO_RCVTIMEO on the connected socket; <= 0 = no bound.
  int32_t send_timeout_ms = 2000;
  int32_t recv_timeout_ms = 2000;

  /// Non-zero enables request tracing (DESIGN.md §17): every logical
  /// call, whatever its verb, carries the next request ID drawn
  /// deterministically from this seed (DeriveRequestId(seed, 0),
  /// DeriveRequestId(seed, 1), ...) and the trace of each kOk reply is
  /// parsed into last_trace(). Zero (the default) sends request ID 0:
  /// untraced.
  uint64_t request_id_seed = 0;

  RetryPolicy retry;
};

/// \brief Blocking TCP client for the scoring server — one connection,
/// one request in flight. Used by the tests, the load generator, and the
/// `hignn_serve` request mode; it is also the reference implementation
/// for anyone speaking the wire.h protocol from another language.
///
/// Server-reported failures come back as the matching Status category:
/// kBadRequest → InvalidArgument, kOverloaded → FailedPrecondition,
/// kInternal → Internal. Transient transport failures are Unavailable;
/// protocol violations are IOError.
///
/// With `config.retry.max_attempts > 1` the client is resilient: a
/// retryable failure (overload shed, peer reset, mid-frame EOF, receive
/// timeout) reconnects and retries under the RetryPolicy's backoff
/// schedule, so a request that lands during a server hiccup succeeds on
/// a later attempt instead of surfacing the transient to the caller.
class ScoringClient {
 public:
  /// \brief Connects to `host:port` (numeric IPv4 host). The default
  /// config has bounded timeouts and no retries (fail fast). The connect
  /// itself honors `config.retry` too: a refused or timed-out dial backs
  /// off and redials until attempts or budget run out.
  static Result<ScoringClient> Connect(
      const std::string& host, int32_t port,
      const ClientConfig& config = ClientConfig());

  ScoringClient(ScoringClient&& other) noexcept;
  ScoringClient& operator=(ScoringClient&& other) = delete;
  ScoringClient(const ScoringClient&) = delete;
  ScoringClient& operator=(const ScoringClient&) = delete;
  ~ScoringClient();

  /// \brief Scores (user, item) pairs; result aligns with `requests`.
  Result<std::vector<float>> Score(const std::vector<ScoreRequest>& requests);

  /// \brief Top-k recommendations for `user`, ranked like the offline
  /// recommender (score descending, ties by ascending item id). `beam`
  /// (wire.h): 0 defers to the server's --topk-beam, negative forces the
  /// exact linear scan, positive forces that beam width on the
  /// cluster-tree index.
  Result<std::vector<Recommendation>> TopK(int32_t user, int32_t k,
                                           int32_t beam = 0);

  /// \brief Liveness probe.
  Status Health();

  /// \brief Liveness probe that also returns the store generation the
  /// server is currently publishing.
  Result<int64_t> HealthGeneration();

  /// \brief Server stats JSON: `{"daemon": {...}, "registry": {...}}`,
  /// the registry part being MetricsRegistry::DumpJson().
  Result<std::string> Stats();

  /// \brief Server metrics in Prometheus text exposition format
  /// (cumulative `le` buckets; see MetricsRegistry::DumpPrometheus).
  Result<std::string> Metrics();

  /// \brief The server's per-request event log as JSONL — one line per
  /// recent request, slow exemplars retained past ring eviction.
  Result<std::string> TraceDump();

  /// \brief Asks the server to hot-swap its store ("" = re-open the
  /// current generation's path). Returns the new generation number; on
  /// failure the server keeps serving the old generation. Reload is NOT
  /// idempotent across generations, so it is never retried on transport
  /// errors that leave the outcome unknown.
  Result<int64_t> Reload(const std::string& store_path = "");

  /// \brief Retries performed over this client's lifetime (reconnects
  /// and re-sends, not first attempts).
  int64_t retries_attempted() const { return retries_attempted_; }

  /// \brief Server-side phase stamps echoed in the most recent traced
  /// kOk reply (request_id == 0 until a traced call succeeds; the
  /// reply-flushed stamp is always -1 — the server cannot know the flush
  /// time before flushing).
  const obs::Event& last_trace() const { return last_trace_; }

 private:
  ScoringClient(int fd, const std::string& host, int32_t port,
                const ClientConfig& config);

  /// \brief One low-level dial (non-blocking connect + poll when a
  /// connect timeout is set). Returns the connected fd.
  static Result<int> Dial(const std::string& host, int32_t port,
                          const ClientConfig& config);

  /// \brief One logical call: draws the request ID (when tracing), then
  /// sends the request and decodes its reply, mapping a non-kOk status to
  /// a Status. When `retryable` is true, transient failures reconnect and
  /// re-send the same bytes per the policy, so client and server logs
  /// join on one ID however many attempts it took.
  Result<WireReply> RoundTrip(WireRequest request, bool retryable = true);

  /// \brief A single send/recv/decode exchange with no retry logic. A
  /// malformed reply is an IOError (a protocol violation, never retried).
  Result<WireReply> RoundTripOnce(const WireRequest& request,
                                  const std::vector<char>& frame);

  int fd_ = -1;
  std::string host_;
  int32_t port_ = 0;
  ClientConfig config_;
  Rng jitter_;
  uint64_t next_request_n_ = 0;  ///< n of the next DeriveRequestId
  obs::Event last_trace_;
  int64_t retries_attempted_ = 0;
  /// Set by RoundTripOnce when the server answered kOverloaded — the one
  /// server-reported error that is retryable (the connection stays
  /// healthy; the shed was a momentary queue-full).
  bool last_overloaded_ = false;
};

}  // namespace hignn

#endif  // HIGNN_SERVE_CLIENT_H_
