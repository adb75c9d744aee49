#include "serve/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/request_id.h"
#include "serve/wire.h"
#include "util/string_util.h"

namespace hignn {

namespace {

// Backoff for the n-th retry (1-based): capped exponential scaled by a
// deterministic jitter draw in [0.5, 1.0). Never returns less than 1 ms
// so the budget accounting below always makes progress.
int64_t BackoffMs(const RetryPolicy& policy, int32_t retry, Rng& jitter) {
  double backoff = static_cast<double>(std::max(policy.initial_backoff_ms, 1));
  const double cap = static_cast<double>(std::max(policy.max_backoff_ms, 1));
  for (int32_t i = 1; i < retry; ++i) {
    backoff = std::min(backoff * 2.0, cap);
  }
  backoff = std::min(backoff, cap) * jitter.Uniform(0.5, 1.0);
  return std::max<int64_t>(1, std::llround(backoff));
}

void SetSocketTimeout(int fd, int optname, int32_t timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, optname, &timeout, sizeof(timeout));
}

}  // namespace

Result<int> ScoringClient::Dial(const std::string& host, int32_t port,
                                const ClientConfig& config) {
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("port out of range");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("invalid host address '%s'", host.c_str()));
  }

  if (config.connect_timeout_ms > 0) {
    // Non-blocking connect + poll: a blocking connect can stall for the
    // kernel's SYN-retry schedule (minutes); the poll bounds the dial to
    // the configured deadline.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc < 0 && errno != EINPROGRESS) {
      const std::string error = std::strerror(errno);
      ::close(fd);
      return Status::Unavailable(StrFormat("connect to %s:%d failed: %s",
                                           host.c_str(), port, error.c_str()));
    }
    if (rc < 0) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      const int ready = ::poll(&pfd, 1, config.connect_timeout_ms);
      if (ready == 0) {
        ::close(fd);
        return Status::Unavailable(
            StrFormat("connect to %s:%d timed out after %d ms", host.c_str(),
                      port, config.connect_timeout_ms));
      }
      if (ready < 0) {
        const std::string error = std::strerror(errno);
        ::close(fd);
        return Status::IOError(
            StrFormat("poll during connect failed: %s", error.c_str()));
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
      if (so_error != 0) {
        ::close(fd);
        return Status::Unavailable(
            StrFormat("connect to %s:%d failed: %s", host.c_str(), port,
                      std::strerror(so_error)));
      }
    }
    ::fcntl(fd, F_SETFL, flags);  // restore blocking mode for send/recv
  } else if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable(StrFormat("connect to %s:%d failed: %s",
                                         host.c_str(), port, error.c_str()));
  }

  SetSocketTimeout(fd, SO_SNDTIMEO, config.send_timeout_ms);
  SetSocketTimeout(fd, SO_RCVTIMEO, config.recv_timeout_ms);
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return fd;
}

Result<ScoringClient> ScoringClient::Connect(const std::string& host,
                                             int32_t port,
                                             const ClientConfig& config) {
  Rng jitter(config.retry.jitter_seed);
  int64_t slept_ms = 0;
  for (int32_t attempt = 1;; ++attempt) {
    Result<int> fd = Dial(host, port, config);
    if (fd.ok()) {
      ScoringClient client(fd.value(), host, port, config);
      // Hand the dial loop's jitter stream position to the client so the
      // whole session consumes one deterministic sequence.
      client.jitter_ = jitter;
      return client;
    }
    if (fd.status().code() != StatusCode::kUnavailable ||
        attempt >= config.retry.max_attempts) {
      return fd.status();
    }
    const int64_t backoff = BackoffMs(config.retry, attempt, jitter);
    if (slept_ms + backoff > config.retry.retry_budget_ms) {
      return fd.status();
    }
    slept_ms += backoff;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

ScoringClient::ScoringClient(int fd, const std::string& host, int32_t port,
                             const ClientConfig& config)
    : fd_(fd), host_(host), port_(port), config_(config),
      jitter_(config.retry.jitter_seed) {}

ScoringClient::ScoringClient(ScoringClient&& other) noexcept
    : fd_(other.fd_),
      host_(std::move(other.host_)),
      port_(other.port_),
      config_(other.config_),
      jitter_(other.jitter_),
      next_request_n_(other.next_request_n_),
      last_trace_(other.last_trace_),
      retries_attempted_(other.retries_attempted_) {
  other.fd_ = -1;
}

ScoringClient::~ScoringClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<WireReply> ScoringClient::RoundTripOnce(
    const WireRequest& request, const std::vector<char>& frame) {
  if (fd_ < 0) return Status::FailedPrecondition("client is disconnected");
  HIGNN_RETURN_IF_ERROR(SendFrame(fd_, frame));
  HIGNN_ASSIGN_OR_RETURN(const std::vector<char> response, RecvFrame(fd_));
  Result<WireReply> reply = DecodeReply(request, response);
  if (!reply.ok()) return Status::IOError(reply.status().message());
  const std::string& message = reply.value().text;
  switch (reply.value().status) {
    case WireStatus::kOk:
      return reply;
    case WireStatus::kBadRequest:
      return Status::InvalidArgument(message);
    case WireStatus::kOverloaded:
      last_overloaded_ = true;
      return Status::FailedPrecondition(message);
    default:
      return Status::Internal(message);
  }
}

Result<WireReply> ScoringClient::RoundTrip(WireRequest request,
                                           bool retryable) {
  if (config_.request_id_seed != 0) {
    request.request_id =
        DeriveRequestId(config_.request_id_seed, next_request_n_++);
  }
  const std::vector<char> frame = EncodeRequest(request);
  const RetryPolicy& policy = config_.retry;
  int64_t slept_ms = 0;
  for (int32_t attempt = 1;; ++attempt) {
    Status status = Status::OK();
    last_overloaded_ = false;
    if (fd_ < 0) {
      // A previous attempt tore the connection down; re-dial before the
      // retry so it lands on a fresh transport.
      Result<int> fd = Dial(host_, port_, config_);
      if (fd.ok()) {
        fd_ = fd.value();
      } else {
        status = fd.status();
      }
    }
    if (status.ok()) {
      Result<WireReply> reply = RoundTripOnce(request, frame);
      if (reply.ok()) {
        if (request.request_id != 0) last_trace_ = reply.value().trace;
        return reply;
      }
      status = reply.status();
    }
    const bool transport = IsRetryableTransport(status) ||
                           status.code() == StatusCode::kIOError;
    if (transport && fd_ >= 0) {
      // The connection is in an unknown state (a frame may be half-read
      // or half-written); never reuse it.
      ::close(fd_);
      fd_ = -1;
    }
    const bool may_retry =
        IsRetryableTransport(status) || last_overloaded_;
    if (!retryable || !may_retry || attempt >= policy.max_attempts) {
      return status;
    }
    const int64_t backoff = BackoffMs(policy, attempt, jitter_);
    if (slept_ms + backoff > policy.retry_budget_ms) {
      return status;
    }
    slept_ms += backoff;
    ++retries_attempted_;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

Result<std::vector<float>> ScoringClient::Score(
    const std::vector<ScoreRequest>& requests) {
  WireRequest request{WireVerb::kScore};
  request.pairs = requests;
  HIGNN_ASSIGN_OR_RETURN(WireReply reply, RoundTrip(std::move(request)));
  return std::move(reply.scores);
}

Result<std::vector<Recommendation>> ScoringClient::TopK(int32_t user,
                                                        int32_t k,
                                                        int32_t beam) {
  WireRequest request{WireVerb::kTopK};
  request.user = user;
  request.k = k;
  request.beam = beam;
  HIGNN_ASSIGN_OR_RETURN(WireReply reply, RoundTrip(std::move(request)));
  return std::move(reply.top);
}

Status ScoringClient::Health() { return HealthGeneration().status(); }

Result<int64_t> ScoringClient::HealthGeneration() {
  HIGNN_ASSIGN_OR_RETURN(const WireReply reply,
                         RoundTrip(WireRequest{WireVerb::kHealth}));
  return static_cast<int64_t>(reply.generation);
}

Result<std::string> ScoringClient::Stats() {
  HIGNN_ASSIGN_OR_RETURN(WireReply reply,
                         RoundTrip(WireRequest{WireVerb::kStats}));
  return std::move(reply.text);
}

Result<std::string> ScoringClient::Metrics() {
  HIGNN_ASSIGN_OR_RETURN(WireReply reply,
                         RoundTrip(WireRequest{WireVerb::kMetrics}));
  return std::move(reply.text);
}

Result<std::string> ScoringClient::TraceDump() {
  HIGNN_ASSIGN_OR_RETURN(WireReply reply,
                         RoundTrip(WireRequest{WireVerb::kTraceDump}));
  return std::move(reply.text);
}

Result<int64_t> ScoringClient::Reload(const std::string& store_path) {
  WireRequest request{WireVerb::kReload};
  request.store_path = store_path;
  // retryable=false: a reload that dies mid-flight may or may not have
  // published; blindly retrying could swap twice.
  HIGNN_ASSIGN_OR_RETURN(const WireReply reply,
                         RoundTrip(std::move(request), /*retryable=*/false));
  return static_cast<int64_t>(reply.generation);
}

}  // namespace hignn
