// hignn — command-line interface to the HiGNN library.
//
// Works on plain TSV edge lists (left_id \t right_id [\t weight]), so the
// pipeline can run on real data without writing any C++:
//
//   hignn gen-data  --preset taobao1 --out /tmp/clicks.tsv
//   hignn fit       --graph /tmp/clicks.tsv --levels 3 --dim 32
//                   --steps 300 --out /tmp/model.hgnn
//   hignn info      --model /tmp/model.hgnn
//   hignn embed     --model /tmp/model.hgnn --side left --out /tmp/u.tsv
//   hignn clusters  --model /tmp/model.hgnn --side right --level 2
//                   --out /tmp/item_communities.tsv
//
// When no vertex features are supplied, `fit` derives simple structural
// features (log degree, log weighted degree, bias) — enough for the GNN
// to bootstrap from pure graph structure.

#include <cstdio>
#include <sstream>
#include <string>

#include "core/checkpoint.h"
#include "core/hignn.h"
#include "core/serialization.h"
#include "core/training_monitor.h"
#include "data/synthetic.h"
#include "graph/structural_features.h"
#include "predict/cvr_model.h"
#include "predict/features.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/embedding_store.h"
#include "util/flags.h"
#include "util/io.h"

namespace hignn {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr, R"(usage: hignn <command> [flags]

commands:
  gen-data   generate a synthetic click log
             --preset taobao1|taobao2|tiny  --users N --items N
             --seed S  --out FILE.tsv
  fit        fit a HiGNN hierarchy on a TSV edge list
             --graph FILE.tsv  --out MODEL.hgnn
             [--levels 3] [--dim 32] [--alpha 5] [--steps 200]
             [--batch 256] [--lr 0.003] [--ch] [--seed S] [--verbose]
             [--threads N]  (0 = all cores, 1 = single-threaded;
                             results are identical for any N)
             [--checkpoint-dir DIR]  (save training state per level)
             [--checkpoint-every N]  (also every N SAGE steps; 0 = off)
             [--checkpoint-keep K]   (retain newest K checkpoints; 3)
             [--resume]              (continue from DIR's latest
                                      checkpoint; bitwise-identical to
                                      an uninterrupted run)
  info       print a model summary            --model MODEL.hgnn
  embed      dump hierarchical embeddings     --model MODEL.hgnn
             --side left|right  --out FILE.tsv  [--levels K]
  clusters   dump cluster assignments         --model MODEL.hgnn
             --side left|right  --level L  --out FILE.tsv
  export-store
             train the full pipeline on a synthetic preset and export
             the online serving store (embeddings + cluster chains +
             CVR weights; see src/serve/embedding_store.h)
             --out STORE.hgnnstore
             [--preset tiny] [--users N] [--items N] [--seed S]
             [--levels 2] [--dim 16] [--steps 120] [--threads N]
             [--cvr-epochs 2]

telemetry (any command):
  [--metrics-out FILE.json]  dump the metrics registry on success
  [--trace-out FILE.json]    dump Chrome trace_event spans on success
                             (open in chrome://tracing)
  [--obs-off]                disable telemetry collection entirely;
                             results are bitwise identical either way
)");
  return 2;
}

// Telemetry is observation-only: the switch below and the dumps after a
// successful command never change what the command computes.
void ApplyObsFlags(const CommandLine& cl) {
  if (cl.GetBool("obs-off")) obs::SetEnabled(false);
}

int DumpObsArtifacts(const CommandLine& cl) {
  const std::string metrics_out = cl.GetString("metrics-out");
  if (!metrics_out.empty()) {
    if (Status status =
            obs::MetricsRegistry::Global().DumpJsonToFile(metrics_out);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  const std::string trace_out = cl.GetString("trace-out");
  if (!trace_out.empty()) {
    if (Status status = obs::WriteTraceJson(trace_out); !status.ok()) {
      return Fail(status);
    }
    std::printf("wrote trace to %s\n", trace_out.c_str());
  }
  return 0;
}

int RunGenData(const CommandLine& cl) {
  const std::string out = cl.GetString("out");
  if (out.empty()) return Usage();
  const std::string preset = cl.GetString("preset", "tiny");
  SyntheticConfig config;
  if (preset == "taobao1") {
    config = SyntheticConfig::Taobao1();
  } else if (preset == "taobao2") {
    config = SyntheticConfig::Taobao2();
  } else if (preset == "tiny") {
    config = SyntheticConfig::Tiny();
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 2;
  }
  auto users = cl.GetInt("users", config.num_users);
  auto items = cl.GetInt("items", config.num_items);
  auto seed = cl.GetInt("seed", static_cast<int64_t>(config.seed));
  if (!users.ok()) return Fail(users.status());
  if (!items.ok()) return Fail(items.status());
  if (!seed.ok()) return Fail(seed.status());
  config.num_users = static_cast<int32_t>(users.value());
  config.num_items = static_cast<int32_t>(items.value());
  config.seed = static_cast<uint64_t>(seed.value());

  auto dataset = SyntheticDataset::Generate(config);
  if (!dataset.ok()) return Fail(dataset.status());
  const BipartiteGraph graph = dataset.value().BuildTrainGraph();
  if (Status status = SaveBipartiteGraphTsv(graph, out); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %s: %d users x %d items, %lld edges (density %.2e)\n",
              out.c_str(), graph.num_left(), graph.num_right(),
              static_cast<long long>(graph.num_edges()),
              GraphShape(graph).Density());
  return 0;
}

int RunFit(const CommandLine& cl) {
  const std::string graph_path = cl.GetString("graph");
  const std::string out = cl.GetString("out");
  if (graph_path.empty() || out.empty()) return Usage();

  auto graph = LoadBipartiteGraphTsv(graph_path);
  if (!graph.ok()) return Fail(graph.status());

  HignnConfig config;
  auto levels = cl.GetInt("levels", 3);
  auto dim = cl.GetInt("dim", 32);
  auto alpha = cl.GetDouble("alpha", 5.0);
  auto steps = cl.GetInt("steps", 200);
  auto batch = cl.GetInt("batch", 256);
  auto lr = cl.GetDouble("lr", 3e-3);
  auto seed = cl.GetInt("seed", 1234);
  auto threads = cl.GetInt("threads", 0);
  auto ckpt_every = cl.GetInt("checkpoint-every", 0);
  auto ckpt_keep = cl.GetInt("checkpoint-keep", 3);
  for (const Status& status :
       {levels.status(), dim.status(), alpha.status(), steps.status(),
        batch.status(), lr.status(), seed.status(), threads.status(),
        ckpt_every.status(), ckpt_keep.status()}) {
    if (!status.ok()) return Fail(status);
  }
  config.levels = static_cast<int32_t>(levels.value());
  config.sage.dims = {static_cast<int32_t>(dim.value()),
                      static_cast<int32_t>(dim.value())};
  config.alpha = alpha.value();
  config.sage.train_steps = static_cast<int32_t>(steps.value());
  config.sage.batch_size = static_cast<int32_t>(batch.value());
  config.sage.learning_rate = static_cast<float>(lr.value());
  config.select_k_by_ch = cl.GetBool("ch");
  config.verbose = cl.GetBool("verbose");
  config.seed = static_cast<uint64_t>(seed.value());
  config.num_threads = static_cast<int32_t>(threads.value());

  CheckpointOptions ckpt;
  ckpt.dir = cl.GetString("checkpoint-dir");
  ckpt.step_interval = static_cast<int32_t>(ckpt_every.value());
  ckpt.keep_last = static_cast<int32_t>(ckpt_keep.value());
  ckpt.resume = cl.GetBool("resume");
  if (ckpt.resume && ckpt.dir.empty()) {
    return Fail(Status::InvalidArgument("--resume needs --checkpoint-dir"));
  }

  const Matrix left_features = StructuralFeatures(graph.value(), true);
  const Matrix right_features = StructuralFeatures(graph.value(), false);

  obs::Stopwatch timer;
  auto model = Hignn::Fit(graph.value(), left_features, right_features,
                          config, ckpt, TrainingMonitorConfig());
  if (!model.ok()) return Fail(model.status());
  if (Status status = SaveHignnModel(model.value(), out); !status.ok()) {
    return Fail(status);
  }
  std::printf("fitted %d levels in %.1fs; saved to %s\n",
              model.value().num_levels(), timer.Seconds(), out.c_str());
  return 0;
}

Result<HignnModel> LoadModelFlag(const CommandLine& cl) {
  const std::string path = cl.GetString("model");
  if (path.empty()) return Status::InvalidArgument("--model is required");
  return LoadHignnModel(path);
}

int RunInfo(const CommandLine& cl) {
  auto model = LoadModelFlag(cl);
  if (!model.ok()) return Fail(model.status());
  std::printf("HiGNN model: %d levels, d = %d (hierarchical dim %d)\n",
              model.value().num_levels(), model.value().level_dim(),
              model.value().hierarchical_dim());
  for (int32_t l = 0; l < model.value().num_levels(); ++l) {
    const HignnLevel& level =
        model.value().levels()[static_cast<size_t>(l)];
    std::printf(
        "  level %d: graph %d x %d (%lld edges, density %.2e), "
        "clusters %d x %d, sage tail loss %.4f\n",
        l + 1, level.graph.num_left, level.graph.num_right,
        static_cast<long long>(level.graph.num_edges),
        level.graph.Density(), level.num_left_clusters,
        level.num_right_clusters, level.train_loss);
  }
  return 0;
}

int RunEmbed(const CommandLine& cl) {
  auto model = LoadModelFlag(cl);
  if (!model.ok()) return Fail(model.status());
  const std::string out = cl.GetString("out");
  const std::string side = cl.GetString("side", "left");
  if (out.empty() || (side != "left" && side != "right")) return Usage();
  auto max_levels = cl.GetInt("levels", 0);
  if (!max_levels.ok()) return Fail(max_levels.status());

  const Matrix embeddings =
      side == "left"
          ? model.value().AllHierarchicalLeft(
                static_cast<int32_t>(max_levels.value()))
          : model.value().AllHierarchicalRight(
                static_cast<int32_t>(max_levels.value()));
  std::ostringstream stream;
  for (size_t r = 0; r < embeddings.rows(); ++r) {
    stream << r;
    for (size_t c = 0; c < embeddings.cols(); ++c) {
      stream << '\t' << embeddings(r, c);
    }
    stream << '\n';
  }
  if (Status status = AtomicWriteTextFile(out, stream.str()); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %zu x %zu embeddings to %s\n", embeddings.rows(),
              embeddings.cols(), out.c_str());
  return 0;
}

int RunClusters(const CommandLine& cl) {
  auto model = LoadModelFlag(cl);
  if (!model.ok()) return Fail(model.status());
  const std::string out = cl.GetString("out");
  const std::string side = cl.GetString("side", "left");
  auto level = cl.GetInt("level", 1);
  if (!level.ok()) return Fail(level.status());
  if (out.empty() || (side != "left" && side != "right")) return Usage();
  if (level.value() < 1 || level.value() > model.value().num_levels()) {
    return Fail(Status::InvalidArgument("--level out of range"));
  }

  const int32_t n = side == "left"
                        ? model.value().levels().front().graph.num_left
                        : model.value().levels().front().graph.num_right;
  std::ostringstream stream;
  for (int32_t v = 0; v < n; ++v) {
    const int32_t cluster =
        side == "left"
            ? model.value().LeftClusterAt(
                  v, static_cast<int32_t>(level.value()))
            : model.value().RightClusterAt(
                  v, static_cast<int32_t>(level.value()));
    stream << v << '\t' << cluster << '\n';
  }
  if (Status status = AtomicWriteTextFile(out, stream.str()); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %d assignments (level %lld, %s side) to %s\n", n,
              static_cast<long long>(level.value()), side.c_str(),
              out.c_str());
  return 0;
}

// Full offline pipeline in one verb: synthesize the dataset, fit the
// hierarchy, train the CVR network, and hand everything to the serving
// layer as one immutable store file. Deterministic for a given flag set,
// so a store can always be rebuilt bit-for-bit from its provenance line.
int RunExportStore(const CommandLine& cl) {
  const std::string out = cl.GetString("out");
  if (out.empty()) return Usage();
  const std::string preset = cl.GetString("preset", "tiny");
  SyntheticConfig data_config;
  if (preset == "taobao1") {
    data_config = SyntheticConfig::Taobao1();
  } else if (preset == "taobao2") {
    data_config = SyntheticConfig::Taobao2();
  } else if (preset == "tiny") {
    data_config = SyntheticConfig::Tiny();
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 2;
  }
  auto users = cl.GetInt("users", data_config.num_users);
  auto items = cl.GetInt("items", data_config.num_items);
  auto seed = cl.GetInt("seed", static_cast<int64_t>(data_config.seed));
  auto levels = cl.GetInt("levels", 2);
  auto dim = cl.GetInt("dim", 16);
  auto steps = cl.GetInt("steps", 120);
  auto threads = cl.GetInt("threads", 0);
  auto cvr_epochs = cl.GetInt("cvr-epochs", 2);
  for (const Status& status :
       {users.status(), items.status(), seed.status(), levels.status(),
        dim.status(), steps.status(), threads.status(),
        cvr_epochs.status()}) {
    if (!status.ok()) return Fail(status);
  }
  data_config.num_users = static_cast<int32_t>(users.value());
  data_config.num_items = static_cast<int32_t>(items.value());
  data_config.seed = static_cast<uint64_t>(seed.value());

  obs::Stopwatch timer;
  auto dataset = SyntheticDataset::Generate(data_config);
  if (!dataset.ok()) return Fail(dataset.status());

  HignnConfig hignn_config;
  hignn_config.levels = static_cast<int32_t>(levels.value());
  hignn_config.sage.dims = {static_cast<int32_t>(dim.value()),
                            static_cast<int32_t>(dim.value())};
  hignn_config.sage.train_steps = static_cast<int32_t>(steps.value());
  hignn_config.min_clusters = 2;
  hignn_config.num_threads = static_cast<int32_t>(threads.value());
  hignn_config.seed = data_config.seed;
  const BipartiteGraph graph = dataset.value().BuildTrainGraph();
  auto model = Hignn::Fit(graph, dataset.value().user_features(),
                          dataset.value().item_features(), hignn_config);
  if (!model.ok()) return Fail(model.status());

  const FeatureSpec spec = FeatureSpec::HiGnn(model.value().num_levels());
  auto builder =
      CvrFeatureBuilder::Create(&dataset.value(), &model.value(), spec);
  if (!builder.ok()) return Fail(builder.status());
  const SampleSet samples =
      BuildSamples(dataset.value(), /*replicate_positives=*/true,
                   data_config.seed);
  CvrModelConfig cvr_config;
  cvr_config.hidden = {32, 16};
  cvr_config.batch_size = 256;
  cvr_config.epochs = static_cast<int32_t>(cvr_epochs.value());
  cvr_config.seed = data_config.seed;
  auto cvr = CvrModel::Create(builder.value().dim(), cvr_config);
  if (!cvr.ok()) return Fail(cvr.status());
  auto loss = cvr.value().Train(builder.value(), samples.train);
  if (!loss.ok()) return Fail(loss.status());

  if (Status status = ExportEmbeddingStore(model.value(), dataset.value(),
                                           spec, cvr.value(), out);
      !status.ok()) {
    return Fail(status);
  }
  std::printf(
      "exported store %s in %.1fs: %d users x %d items, %d levels "
      "(d = %d), feature dim %d, cvr train loss %.4f\n",
      out.c_str(), timer.Seconds(), data_config.num_users,
      data_config.num_items, model.value().num_levels(),
      model.value().level_dim(), builder.value().dim(), loss.value());
  return 0;
}

int Run(int argc, char** argv) {
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok()) return Fail(cl.status());
  ApplyObsFlags(cl.value());
  const std::string& command = cl.value().command();
  int code = 2;
  if (command == "gen-data") {
    code = RunGenData(cl.value());
  } else if (command == "fit") {
    code = RunFit(cl.value());
  } else if (command == "info") {
    code = RunInfo(cl.value());
  } else if (command == "embed") {
    code = RunEmbed(cl.value());
  } else if (command == "clusters") {
    code = RunClusters(cl.value());
  } else if (command == "export-store") {
    code = RunExportStore(cl.value());
  } else {
    return Usage();
  }
  if (code == 0) {
    if (int obs_code = DumpObsArtifacts(cl.value()); obs_code != 0) {
      return obs_code;
    }
  }
  return code;
}

}  // namespace
}  // namespace hignn

int main(int argc, char** argv) { return hignn::Run(argc, argv); }
