// hignn_serve — the online scoring daemon and its command-line client.
//
// Serve mode loads an embedding store (built by `hignn export-store`)
// and answers score/topk/health/stats/reload requests over the wire.h
// TCP protocol until SIGINT/SIGTERM, then shuts down gracefully and
// dumps the metrics registry as JSON (the `hignn fit --metrics-out`
// shape):
//
//   hignn export-store --preset tiny --out /tmp/tiny.hgnnstore
//   hignn_serve serve --store /tmp/tiny.hgnnstore --port 0
//       --port-file /tmp/port --metrics-out /tmp/serve_metrics.json
//
// The store can be hot-swapped with zero downtime: a SIGHUP re-opens
// the current store path, and the `reload` client verb swaps to an
// arbitrary path. In-flight requests finish on the generation they
// started with; a reload that fails validation leaves the old store
// serving untouched.
//
// The remaining verbs are one-shot clients (also the CI smoke test):
//
//   hignn_serve score  --port $(cat /tmp/port) --user 3 --item 7
//   hignn_serve topk   --port $(cat /tmp/port) --user 3 --k 5
//   hignn_serve health --port $(cat /tmp/port)
//   hignn_serve stats  --port $(cat /tmp/port)
//   hignn_serve metrics --port $(cat /tmp/port)        # Prometheus text
//   hignn_serve trace-dump --port $(cat /tmp/port)     # event-log JSONL
//   hignn_serve reload --port $(cat /tmp/port) [--store NEW.hgnnstore]
//
// Client verbs take retry flags (--retries N --backoff-ms B
// --retry-budget-ms T --connect-timeout-ms C --io-timeout-ms I) so
// scripts can ride through a reload or a transient without hand-rolled
// sleep loops.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/serve_metrics.h"
#include "serve/server.h"
#include "serve/store_manager.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/string_util.h"

namespace hignn {
namespace {

// Signal handlers may only set flags of this type (see the signal-safety
// lint rule): the main loop polls them and does the real work — logging,
// allocation, and the reload itself are all async-signal-unsafe.
volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_reload_requested = 0;

void HandleStopSignal(int /*signum*/) { g_stop_requested = 1; }

void HandleReloadSignal(int /*signum*/) { g_reload_requested = 1; }

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr, R"(usage: hignn_serve <command> [flags]

commands:
  serve    run the TCP scoring server until SIGINT/SIGTERM; SIGHUP
           hot-swaps the store (re-opens the current path)
           --store STORE.hgnnstore
           [--host 127.0.0.1] [--port 0]  (0 = ephemeral)
           [--port-file FILE]     (write the bound port, for scripts)
           [--threads 2]          (connection handler threads)
           [--max-batch 64] [--max-delay-us 1000] [--max-queue 4096]
           [--recv-timeout-ms 200]
           [--topk-beam 32]       (default retrieval beam for topk;
                                   <= 0 serves the exact linear scan)
           [--metrics-out FILE]   (dump the metrics registry as JSON
                                   on shutdown)
           [--trace-out FILE]     (dump Chrome trace_event JSON on
                                   shutdown; open in chrome://tracing)
           [--events-out FILE]    (dump the per-request event log as
                                   JSONL on shutdown; feed to hignn_obs)
           [--slow-us 50000]      (requests at least this slow are always
                                   kept as exemplars; <= 0 disables)
           [--obs-off]            (disable telemetry collection;
                                   scores are identical either way)
  score    score one (user, item) pair
           --port P [--host 127.0.0.1] --user U --item I
  topk     top-k recommendations for a user
           --port P [--host 127.0.0.1] --user U [--k 10] [--beam 0]
           (--beam: 0 = server default, < 0 = exact scan, > 0 = that
            cluster-tree beam width)
  health   liveness probe (prints the live store generation)
           --port P [--host 127.0.0.1]
  stats    print the server's JSON: {"daemon": {...}, "registry": {...}}
           --port P [--host 127.0.0.1]
  metrics  print the server's metrics in Prometheus text format
           --port P [--host 127.0.0.1]
  trace-dump  print the server's per-request event log as JSONL
           --port P [--host 127.0.0.1]
  reload   hot-swap the serving store with zero downtime
           --port P [--host 127.0.0.1] [--store NEW.hgnnstore]
           (no --store = re-open the path the server is serving from)

client retry flags (score/topk/health/stats/reload):
  [--retries 1]            total attempts; >1 retries transients with
                           capped exponential backoff + seeded jitter
  [--backoff-ms 10]        initial backoff (doubles per retry, cap 500)
  [--retry-budget-ms 2000] total backoff sleep budget per call
  [--connect-timeout-ms 2000]  non-blocking connect deadline
  [--io-timeout-ms 2000]       per-call socket send/recv timeout
  [--request-id-seed 0]        non-zero sends deterministic request IDs;
                               score/topk print the server's echoed
                               phase stamps to stderr
)");
  return 2;
}

int RunServe(const CommandLine& cl) {
  const std::string store_path = cl.GetString("store");
  if (store_path.empty()) return Usage();
  auto port = cl.GetInt("port", 0);
  auto threads = cl.GetInt("threads", 2);
  auto max_batch = cl.GetInt("max-batch", 64);
  auto max_delay_us = cl.GetInt("max-delay-us", 1000);
  auto max_queue = cl.GetInt("max-queue", 4096);
  auto recv_timeout_ms = cl.GetInt("recv-timeout-ms", 200);
  auto topk_beam = cl.GetInt("topk-beam", kDefaultTopKBeam);
  auto slow_us = cl.GetInt("slow-us", obs::EventLog::kDefaultSlowThresholdUs);
  for (const Status& status :
       {port.status(), threads.status(), max_batch.status(),
        max_delay_us.status(), max_queue.status(),
        recv_timeout_ms.status(), topk_beam.status(), slow_us.status()}) {
    if (!status.ok()) return Fail(status);
  }

  if (cl.GetBool("obs-off")) obs::SetEnabled(false);

  // The daemon reports into the process-wide registry, so `stats`
  // responses, --metrics-out dumps and any other instrumentation in
  // this process share one set of `serve.*` metrics.
  ServeMetrics metrics(&obs::MetricsRegistry::Global());
  auto stores = StoreManager::Open(store_path, &metrics);
  if (!stores.ok()) return Fail(stores.status());

  ServerConfig config;
  config.host = cl.GetString("host", "127.0.0.1");
  config.port = static_cast<int32_t>(port.value());
  config.num_threads = static_cast<int32_t>(threads.value());
  config.recv_timeout_ms = static_cast<int32_t>(recv_timeout_ms.value());
  config.topk_beam = static_cast<int32_t>(topk_beam.value());
  config.slow_threshold_us = slow_us.value();
  config.batcher.max_batch = static_cast<int32_t>(max_batch.value());
  config.batcher.max_delay_us = static_cast<int32_t>(max_delay_us.value());
  config.batcher.max_queue_rows = static_cast<int32_t>(max_queue.value());

  // Install the handlers before the port becomes visible so a script
  // that reads --port-file can never signal us through a default
  // (process-killing) disposition.
  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  struct sigaction reload_action = {};
  reload_action.sa_handler = HandleReloadSignal;
  sigaction(SIGHUP, &reload_action, nullptr);

  auto server = ScoringServer::Start(stores.value().get(), &metrics, config);
  if (!server.ok()) return Fail(server.status());

  const std::string port_file = cl.GetString("port-file");
  if (!port_file.empty()) {
    if (Status status = AtomicWriteTextFile(
            port_file, StrFormat("%d\n", server.value()->port()));
        !status.ok()) {
      return Fail(status);
    }
  }
  {
    const auto generation = stores.value()->Current();
    std::printf(
        "serving %s on %s:%d (%d users x %d items, %d handlers, "
        "generation %lld)\n",
        store_path.c_str(), config.host.c_str(), server.value()->port(),
        generation->store().num_users(), generation->store().num_items(),
        config.num_threads, static_cast<long long>(generation->number));
  }
  std::fflush(stdout);

  while (g_stop_requested == 0) {
    if (g_reload_requested != 0) {
      g_reload_requested = 0;
      // "" = re-open the current generation's path: the SIGHUP contract
      // is "pick up whatever export-store just rewrote in place".
      auto generation = stores.value()->Reload();
      if (generation.ok()) {
        std::printf("reloaded store (generation %lld)\n",
                    static_cast<long long>(generation.value()));
      } else {
        std::fprintf(stderr, "reload failed, old store keeps serving: %s\n",
                     generation.status().ToString().c_str());
      }
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("shutting down\n");
  server.value()->Stop();
  const std::string metrics_out = cl.GetString("metrics-out");
  if (!metrics_out.empty()) {
    if (Status status = metrics.registry().DumpJsonToFile(metrics_out);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  const std::string trace_out = cl.GetString("trace-out");
  if (!trace_out.empty()) {
    if (Status status = obs::WriteTraceJson(trace_out); !status.ok()) {
      return Fail(status);
    }
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  const std::string events_out = cl.GetString("events-out");
  if (!events_out.empty()) {
    if (Status status = obs::EventLog::Global().WriteJsonl(events_out);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("events written to %s\n", events_out.c_str());
  }
  return 0;
}

Result<ScoringClient> ConnectFlag(const CommandLine& cl) {
  auto port = cl.GetInt("port", 0);
  if (!port.ok()) return port.status();
  if (port.value() <= 0) {
    return Status::InvalidArgument("--port is required");
  }
  auto retries = cl.GetInt("retries", 1);
  auto backoff_ms = cl.GetInt("backoff-ms", 10);
  auto retry_budget_ms = cl.GetInt("retry-budget-ms", 2000);
  auto connect_timeout_ms = cl.GetInt("connect-timeout-ms", 2000);
  auto io_timeout_ms = cl.GetInt("io-timeout-ms", 2000);
  auto request_id_seed = cl.GetInt("request-id-seed", 0);
  for (const Status& status :
       {retries.status(), backoff_ms.status(), retry_budget_ms.status(),
        connect_timeout_ms.status(), io_timeout_ms.status(),
        request_id_seed.status()}) {
    if (!status.ok()) return status;
  }
  ClientConfig config;
  config.request_id_seed = static_cast<uint64_t>(request_id_seed.value());
  config.connect_timeout_ms = static_cast<int32_t>(connect_timeout_ms.value());
  config.send_timeout_ms = static_cast<int32_t>(io_timeout_ms.value());
  config.recv_timeout_ms = static_cast<int32_t>(io_timeout_ms.value());
  config.retry.max_attempts = static_cast<int32_t>(retries.value());
  config.retry.initial_backoff_ms = static_cast<int32_t>(backoff_ms.value());
  config.retry.retry_budget_ms =
      static_cast<int32_t>(retry_budget_ms.value());
  return ScoringClient::Connect(cl.GetString("host", "127.0.0.1"),
                                static_cast<int32_t>(port.value()), config);
}

// When the caller opted into tracing (--request-id-seed), prints the
// server's echoed phase stamps to stderr so the tab-separated stdout
// stays machine-parsable. The reply-flushed stamp is left out: the server
// cannot know it before flushing.
void PrintTrace(const ScoringClient& client) {
  const obs::Event& trace = client.last_trace();
  if (trace.request_id == 0) return;
  std::string line = StrFormat(
      "trace %016llx", static_cast<unsigned long long>(trace.request_id));
  for (size_t phase = 0; phase < obs::kPhaseReplyFlushed; ++phase) {
    const std::string name = obs::Event::PhaseName(phase);  // "<name>_us"
    line += StrFormat(" %s=%lld", name.substr(0, name.size() - 3).c_str(),
                      static_cast<long long>(trace.stamps[phase]));
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

int RunScore(const CommandLine& cl) {
  auto user = cl.GetInt("user", -1);
  auto item = cl.GetInt("item", -1);
  if (!user.ok()) return Fail(user.status());
  if (!item.ok()) return Fail(item.status());
  if (user.value() < 0 || item.value() < 0) return Usage();
  auto client = ConnectFlag(cl);
  if (!client.ok()) return Fail(client.status());
  ScoreRequest request;
  request.user = static_cast<int32_t>(user.value());
  request.item = static_cast<int32_t>(item.value());
  auto scores = client.value().Score({request});
  if (!scores.ok()) return Fail(scores.status());
  std::printf("%d\t%d\t%.9g\n", request.user, request.item,
              scores.value().front());
  PrintTrace(client.value());
  return 0;
}

int RunTopK(const CommandLine& cl) {
  auto user = cl.GetInt("user", -1);
  auto k = cl.GetInt("k", 10);
  auto beam = cl.GetInt("beam", 0);
  if (!user.ok()) return Fail(user.status());
  if (!k.ok()) return Fail(k.status());
  if (!beam.ok()) return Fail(beam.status());
  if (user.value() < 0) return Usage();
  auto client = ConnectFlag(cl);
  if (!client.ok()) return Fail(client.status());
  auto top = client.value().TopK(static_cast<int32_t>(user.value()),
                                 static_cast<int32_t>(k.value()),
                                 static_cast<int32_t>(beam.value()));
  if (!top.ok()) return Fail(top.status());
  for (const Recommendation& rec : top.value()) {
    std::printf("%d\t%.9g\n", rec.item, rec.score);
  }
  PrintTrace(client.value());
  return 0;
}

int RunHealth(const CommandLine& cl) {
  auto client = ConnectFlag(cl);
  if (!client.ok()) return Fail(client.status());
  auto generation = client.value().HealthGeneration();
  if (!generation.ok()) return Fail(generation.status());
  std::printf("ok generation=%lld\n",
              static_cast<long long>(generation.value()));
  return 0;
}

int RunStats(const CommandLine& cl) {
  auto client = ConnectFlag(cl);
  if (!client.ok()) return Fail(client.status());
  auto json = client.value().Stats();
  if (!json.ok()) return Fail(json.status());
  std::printf("%s\n", json.value().c_str());
  return 0;
}

int RunMetrics(const CommandLine& cl) {
  auto client = ConnectFlag(cl);
  if (!client.ok()) return Fail(client.status());
  auto text = client.value().Metrics();
  if (!text.ok()) return Fail(text.status());
  std::printf("%s", text.value().c_str());
  return 0;
}

int RunTraceDump(const CommandLine& cl) {
  auto client = ConnectFlag(cl);
  if (!client.ok()) return Fail(client.status());
  auto jsonl = client.value().TraceDump();
  if (!jsonl.ok()) return Fail(jsonl.status());
  std::printf("%s", jsonl.value().c_str());
  return 0;
}

int RunReload(const CommandLine& cl) {
  auto client = ConnectFlag(cl);
  if (!client.ok()) return Fail(client.status());
  auto generation = client.value().Reload(cl.GetString("store"));
  if (!generation.ok()) return Fail(generation.status());
  std::printf("reloaded generation=%lld\n",
              static_cast<long long>(generation.value()));
  return 0;
}

int Run(int argc, char** argv) {
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok()) return Fail(cl.status());
  const std::string& command = cl.value().command();
  if (command == "serve") return RunServe(cl.value());
  if (command == "score") return RunScore(cl.value());
  if (command == "topk") return RunTopK(cl.value());
  if (command == "health") return RunHealth(cl.value());
  if (command == "stats") return RunStats(cl.value());
  if (command == "metrics") return RunMetrics(cl.value());
  if (command == "trace-dump") return RunTraceDump(cl.value());
  if (command == "reload") return RunReload(cl.value());
  return Usage();
}

}  // namespace
}  // namespace hignn

int main(int argc, char** argv) { return hignn::Run(argc, argv); }
