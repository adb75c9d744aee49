#ifndef HIGNN_SERVE_SERVER_H_
#define HIGNN_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "serve/batcher.h"
#include "serve/index/cluster_tree.h"
#include "serve/serve_metrics.h"
#include "serve/store_manager.h"
#include "serve/wire.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hignn {

/// \brief TCP scoring server knobs.
struct ServerConfig {
  std::string host = "127.0.0.1";
  int32_t port = 0;  ///< 0 = ephemeral; read the bound port via port()

  /// Connection-handler threads = max concurrently served connections;
  /// further accepted connections wait in a queue.
  int32_t num_threads = 2;

  /// Socket receive timeout — the cadence at which idle handlers notice
  /// shutdown; also bounds how long a half-written frame can stall a
  /// handler.
  int32_t recv_timeout_ms = 200;

  /// Default beam width for kTopK requests that don't override it
  /// (wire beam field 0): beam-search descent of the store's
  /// cluster-tree index. <= 0 serves every such request with the exact
  /// linear scan instead.
  int32_t topk_beam = kDefaultTopKBeam;

  /// Requests whose end-to-end duration reaches this are always captured
  /// as slow exemplars in the event log (DESIGN.md §17); <= 0 disables
  /// exemplar capture.
  int64_t slow_threshold_us = obs::EventLog::kDefaultSlowThresholdUs;

  /// Event log the server records per-request events into; nullptr means
  /// obs::EventLog::Global() (tests pass a private log for isolation).
  obs::EventLog* event_log = nullptr;

  BatcherConfig batcher;
};

/// \brief The online scoring endpoint: speaks the wire.h protocol,
/// funnels kScore requests through the MicroBatcher, answers kTopK from
/// the current store generation, and serves health/stats probes. Scores
/// returned over the wire are bit-exact copies of the engine's floats.
///
/// The server reads through a StoreManager, so a kReload request (or a
/// SIGHUP in `hignn_serve`) hot-swaps the store underneath it without
/// dropping a connection: requests already in flight finish on the
/// generation they acquired; new requests score against the new one.
class ScoringServer {
 public:
  /// \brief Binds, listens, and spins up the accept + handler threads.
  /// `stores` and `metrics` are borrowed and must outlive the server.
  static Result<std::unique_ptr<ScoringServer>> Start(
      StoreManager* stores, ServeMetrics* metrics,
      const ServerConfig& config);

  ~ScoringServer();

  ScoringServer(const ScoringServer&) = delete;
  ScoringServer& operator=(const ScoringServer&) = delete;

  /// \brief The actually-bound port (resolves port 0 to the kernel's
  /// ephemeral choice).
  int32_t port() const { return port_; }

  /// \brief Graceful shutdown: stop accepting, let in-flight requests
  /// finish, drain the batcher, join every thread. Idempotent; also run
  /// by the destructor.
  void Stop();

 private:
  ScoringServer(StoreManager* stores, ServeMetrics* metrics,
                const ServerConfig& config);

  void AcceptLoop();
  void HandlerLoop();
  void ServeConnection(int fd);

  /// \brief Decodes one request frame and builds the response payload.
  /// `event` carries the request's trace state: the verb / request ID /
  /// parse-to-forward stamps are filled here (and by the layers below),
  /// the reply-flushed stamp by ServeConnection after the frame is sent.
  std::vector<char> HandleRequest(const std::vector<char>& payload,
                                  obs::Event* event);

  /// \brief Runs one decoded request and returns its reply.
  WireReply Execute(const WireRequest& request, obs::Event* event);

  StoreManager* const stores_;
  ServeMetrics* const metrics_;
  const ServerConfig config_;
  // hignn-lint: allow(guard-annotation) immutable after Start(): ordered by thread spawn/join
  obs::EventLog* event_log_ = nullptr;
  // hignn-lint: allow(guard-annotation) immutable after Start(): ordered by thread spawn/join
  int64_t start_us_ = 0;  ///< obs::NowMicros() at Start
  // hignn-lint: allow(guard-annotation) immutable after Start(): ordered by thread spawn/join
  int64_t start_generation_ = 0;  ///< store generation at Start

  // Written once during Start() before any thread is spawned, then
  // immutable until Stop() (which runs after every thread has joined) —
  // the spawn/join edges order them without a lock.
  // hignn-lint: allow(guard-annotation) immutable after Start(): ordered by thread spawn/join
  std::unique_ptr<MicroBatcher> batcher_;
  // hignn-lint: allow(guard-annotation) immutable after Start(): ordered by thread spawn/join
  int listen_fd_ = -1;
  // hignn-lint: allow(guard-annotation) immutable after Start(): ordered by thread spawn/join
  int32_t port_ = 0;

  std::atomic<bool> stopping_{false};

  Mutex mu_;
  CondVar fd_ready_;
  std::deque<int> pending_fds_ HIGNN_GUARDED_BY(mu_);

  // Accept and handler threads spend their lives blocked in poll()/
  // recv()/cv waits; GlobalThreadPool workers must stay available for
  // the engine's row-assembly kernels, so the server owns its threads.
  // hignn-lint: allow(naked-thread) long-blocking accept thread
  std::thread accept_thread_;
  // hignn-lint: allow(naked-thread) long-blocking connection handlers
  std::vector<std::thread> handlers_;
};

}  // namespace hignn

#endif  // HIGNN_SERVE_SERVER_H_
