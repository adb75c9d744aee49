// hignn_bench: the repository's end-to-end and per-layer benchmark.
//
//   hignn_bench --prepare --workload W --seed S [--trace] [--cache-dir D]
//       writes the seeded input fixtures W needs (untimed).
//   hignn_bench --workload W --seed S [--seconds N] [--cache-dir D]
//       runs one workload's end-to-end measurement.
//   hignn_bench --trace --workload W --seed S [--cache-dir D]
//       runs the traced per-layer pass and writes its spans as Chrome
//       trace JSON to D/trace-W.json.
//
// Workloads: fit-small, fit-large (Hignn::Fit) and serve-score,
// serve-topk (the TCP scoring server under closed-loop load); see
// README.md for why each exists. A run prints one JSON line: every
// metric with value, unit and sample count (quartiles where repeated),
// the correctness checks and the host envelope. It exits 1 when a check
// fails (a missing fixture fails one) and 2 on a usage or I/O error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench_report.h"
#include "bench_util.h"
#include "util/io.h"
#include "util/string_util.h"
#include "workloads.h"

namespace hignn::bench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hignn_bench [--prepare] --workload "
               "fit-small|fit-large|serve-score|serve-topk --seed N\n"
               "                   [--seconds S] [--trace [0|1]] "
               "[--cache-dir DIR] [--toy]\n");
  return 2;
}

Status Prepare(const RunOptions& options) {
  // A traced run measures every layer, so it also needs the sibling
  // family's fixture (fit layers at fit-small, serve layers at the store).
  if (IsFitWorkload(options.workload)) {
    HIGNN_RETURN_IF_ERROR(PrepareFitFixture(options, options.workload));
    if (options.trace) HIGNN_RETURN_IF_ERROR(PrepareServeFixture(options));
    return Status::OK();
  }
  HIGNN_RETURN_IF_ERROR(PrepareServeFixture(options));
  if (options.trace) {
    HIGNN_RETURN_IF_ERROR(PrepareFitFixture(options, "fit-small"));
  }
  return Status::OK();
}

// Traced pass: the workload's own layers at its own inputs, the other
// family's layers at their reference fixture, so every traced run
// reports the full layer table.
Status RunTraced(const RunOptions& options, Report& report) {
  SpanLog spans;
  const bool fit = IsFitWorkload(options.workload);
  RunFitLayers(options, fit ? options.workload : "fit-small", fit, spans,
               report);
  RunServeLayers(options, !fit, spans, report);
  return AtomicWriteTextFile(
      options.cache_dir + "/trace-" + options.workload + ".json",
      spans.ChromeJson());
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      options.workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      options.trace = true;
      if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                        std::strcmp(argv[i + 1], "1") == 0)) {
        options.trace = argv[++i][0] == '1';
      }
    } else if (std::strcmp(argv[i], "--cache-dir") == 0 && has_value) {
      options.cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--prepare") == 0) {
      prepare = true;
    } else if (std::strcmp(argv[i], "--toy") == 0) {
      options.toy = true;
    } else {
      return Usage();
    }
  }
  if (!IsFitWorkload(options.workload) && !IsServeWorkload(options.workload)) {
    return Usage();
  }
  if (!(options.seconds > 0.0)) return Usage();
  std::error_code error;
  std::filesystem::create_directories(options.cache_dir, error);

  if (prepare) {
    if (Status status = Prepare(options); !status.ok()) {
      std::fprintf(stderr, "prepare: %s\n", status.ToString().c_str());
      return 2;
    }
    return 0;
  }

  Report report;
  if (options.trace) {
    if (Status status = RunTraced(options, report); !status.ok()) {
      std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
      return 2;
    }
  } else if (IsFitWorkload(options.workload)) {
    RunFitWorkload(options, report);
  } else {
    RunServeWorkload(options, report);
  }
  std::string host = JsonHostFields();  // `  "host": {...},\n`
  host = host.substr(host.find('"'));
  host.pop_back();
  const std::string run = StrFormat(
      "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"seconds\": %s, ",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, Report::Number(options.seconds).c_str());
  std::printf("%s\n", report.Json(run + host + " ").c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace hignn::bench

int main(int argc, char** argv) { return hignn::bench::Main(argc, argv); }
