#include "serve/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/wire.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {

namespace {

// How often the accept loop wakes to check the stop flag.
constexpr int kAcceptPollMs = 50;

WireReply ErrorReply(const Status& status) {
  WireReply reply;
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      reply.status = WireStatus::kBadRequest;
      break;
    case StatusCode::kFailedPrecondition:
      reply.status = WireStatus::kOverloaded;
      break;
    default:
      reply.status = WireStatus::kInternal;
      break;
  }
  reply.text = status.message();
  return reply;
}

}  // namespace

Result<std::unique_ptr<ScoringServer>> ScoringServer::Start(
    StoreManager* stores, ServeMetrics* metrics,
    const ServerConfig& config) {
  if (stores == nullptr || metrics == nullptr) {
    return Status::InvalidArgument("stores and metrics must not be null");
  }
  if (config.num_threads <= 0) {
    return Status::InvalidArgument("num_threads must be positive");
  }
  if (config.port < 0 || config.port > 65535) {
    return Status::InvalidArgument("port out of range");
  }

  std::unique_ptr<ScoringServer> server(
      new ScoringServer(stores, metrics, config));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  server->listen_fd_ = fd;
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config.port));
  if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("invalid host address '%s'", config.host.c_str()));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError(StrFormat("bind to %s:%d failed: %s",
                                     config.host.c_str(), config.port,
                                     std::strerror(errno)));
  }
  if (::listen(fd, 128) < 0) {
    return Status::IOError(
        StrFormat("listen failed: %s", std::strerror(errno)));
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    return Status::IOError(
        StrFormat("getsockname failed: %s", std::strerror(errno)));
  }
  server->port_ = static_cast<int32_t>(ntohs(bound.sin_port));

  server->event_log_ = config.event_log != nullptr
                           ? config.event_log
                           : &obs::EventLog::Global();
  server->event_log_->set_slow_threshold_us(config.slow_threshold_us);
  server->start_us_ = obs::NowMicros();
  server->start_generation_ = stores->generation();
  server->batcher_ = std::make_unique<MicroBatcher>(stores, metrics,
                                                    config.batcher);
  // hignn-lint: allow(naked-thread) long-blocking accept thread (server.h)
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  for (int32_t t = 0; t < config.num_threads; ++t) {
    // hignn-lint: allow(naked-thread) long-blocking handlers (server.h)
    server->handlers_.emplace_back([s = server.get()] { s->HandlerLoop(); });
  }
  return server;
}

ScoringServer::ScoringServer(StoreManager* stores, ServeMetrics* metrics,
                             const ServerConfig& config)
    : stores_(stores), metrics_(metrics), config_(config) {}

ScoringServer::~ScoringServer() { Stop(); }

void ScoringServer::Stop() {
  if (stopping_.exchange(true)) {
    // Another caller already ran (or is running) shutdown; joins below
    // must only happen once.
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  fd_ready_.NotifyAll();
  // hignn-lint: allow(naked-thread) joining the handler threads
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  {
    MutexLock lock(mu_);
    for (int fd : pending_fds_) ::close(fd);
    pending_fds_.clear();
  }
  if (batcher_) batcher_->Stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ScoringServer::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;  // timeout or EINTR — recheck the flag
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // Chaos site: an accepted connection dropped before service — the
    // client sees a peer reset and must retry onto a fresh connection.
    if (fault::ShouldFail("serve.handler.accept")) {
      ::close(conn);
      continue;
    }
    timeval timeout{};
    timeout.tv_sec = config_.recv_timeout_ms / 1000;
    timeout.tv_usec = (config_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    const int nodelay = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    {
      MutexLock lock(mu_);
      pending_fds_.push_back(conn);
    }
    fd_ready_.NotifyOne();
  }
}

void ScoringServer::HandlerLoop() {
  while (true) {
    int fd = -1;
    {
      MutexLock lock(mu_);
      // One bounded wait, then recheck: the outer loop re-enters every
      // kAcceptPollMs anyway, so a timed single Wait is equivalent to the
      // predicate form and keeps every guarded read in this function's
      // analysis scope.
      if (pending_fds_.empty() && !stopping_.load()) {
        fd_ready_.WaitFor(lock, std::chrono::milliseconds(kAcceptPollMs));
      }
      if (!pending_fds_.empty()) {
        fd = pending_fds_.front();
        pending_fds_.pop_front();
      } else if (stopping_.load()) {
        return;
      }
    }
    if (fd >= 0) ServeConnection(fd);
  }
}

void ScoringServer::ServeConnection(int fd) {
  while (true) {
    Result<std::vector<char>> frame = RecvFrame(fd);
    if (!frame.ok()) {
      if (IsRecvTimeout(frame.status()) && !stopping_.load()) continue;
      break;  // closed, corrupt, or shutting down
    }
    obs::Event event;
    obs::Stamp(&event, obs::kPhaseAccept);
    const std::vector<char> response = HandleRequest(frame.value(), &event);
    const bool sent = SendFrame(fd, response).ok();
    if (sent) obs::Stamp(&event, obs::kPhaseReplyFlushed);
    // Full-lifecycle accounting happens only now that the reply has been
    // flushed (or failed): per-phase histograms plus the structured event
    // record, slow exemplars retained by the log itself.
    metrics_->RecordPhases(event);
    event_log_->Record(event);
    if (!sent) break;
  }
  ::close(fd);
}

std::vector<char> ScoringServer::HandleRequest(
    const std::vector<char>& payload, obs::Event* event) {
  obs::Stopwatch timer;
  if (!payload.empty()) event->verb = static_cast<uint8_t>(payload[0]);
  Result<WireRequest> request = DecodeRequest(payload);
  WireReply reply;
  if (request.ok()) {
    event->request_id = request.value().request_id;
    obs::Stamp(event, obs::kPhaseParse);
    reply = Execute(request.value(), event);
  } else {
    reply = ErrorReply(request.status());
  }
  event->ok = reply.status == WireStatus::kOk;
  // Unknown verbs and empty frames have no counter.
  if (event->verb >= 1 && event->verb <= kNumWireVerbs) {
    metrics_->RecordRequest(static_cast<WireVerb>(event->verb),
                            timer.Seconds() * 1e6, event->ok);
  }
  if (!request.ok()) return EncodeReply(WireRequest(), reply);
  reply.trace = *event;
  return EncodeReply(request.value(), reply);
}

WireReply ScoringServer::Execute(const WireRequest& request,
                                 obs::Event* event) {
  WireReply reply;
  switch (request.verb) {
    case WireVerb::kScore: {
      Result<std::vector<float>> scores =
          batcher_->Score(request.pairs, event);
      if (!scores.ok()) return ErrorReply(scores.status());
      reply.scores = std::move(scores).value();
      break;
    }
    case WireVerb::kTopK: {
      const int32_t beam =
          request.beam == 0 ? config_.topk_beam : request.beam;
      // Hold one generation for the whole ranking pass; a concurrent
      // reload cannot swap the store out from under it — the index is
      // part of the generation's store, so beamed descent and leaf
      // brute-force see one consistent hierarchy.
      const std::shared_ptr<const StoreGeneration> generation =
          stores_->Current();
      ClusterTreeIndex::SearchStats search_stats;
      Result<std::vector<Recommendation>> top =
          generation->engine->RecommendTopK(request.user, request.k, beam,
                                            &search_stats, event);
      if (!top.ok()) return ErrorReply(top.status());
      metrics_->RecordIndexSearch(search_stats.nodes_scored,
                                  search_stats.leaves_selected, beam,
                                  /*exact=*/search_stats.levels_descended ==
                                      0);
      reply.top = std::move(top).value();
      break;
    }
    case WireVerb::kHealth:
      reply.generation = static_cast<uint32_t>(stores_->generation());
      break;
    case WireVerb::kStats:
      // The daemon's own fields, then the registry's JSON unchanged.
      reply.text = StrFormat(
          "{\"daemon\": {\"start_generation\": %lld, \"uptime_us\": %lld, "
          "\"slow_threshold_us\": %lld, \"events_recorded\": %lld, "
          "\"slow_events\": %lld},\n\"registry\": ",
          static_cast<long long>(start_generation_),
          static_cast<long long>(obs::NowMicros() - start_us_),
          static_cast<long long>(event_log_->slow_threshold_us()),
          static_cast<long long>(event_log_->recorded()),
          static_cast<long long>(event_log_->slow_recorded()));
      reply.text += metrics_->registry().DumpJson();  // ends with "}\n"
      reply.text += "}\n";
      break;
    case WireVerb::kReload: {
      Result<int64_t> generation = stores_->Reload(request.store_path);
      if (!generation.ok()) {
        // The failed swap is a no-op for traffic: report the error but
        // keep serving the previous generation.
        return ErrorReply(Status::Internal(generation.status().message()));
      }
      reply.generation = static_cast<uint32_t>(generation.value());
      break;
    }
    case WireVerb::kMetrics:
      reply.text = metrics_->registry().DumpPrometheus();
      break;
    case WireVerb::kTraceDump:
      reply.text = event_log_->DumpJsonl();
      break;
  }
  return reply;
}

}  // namespace hignn
