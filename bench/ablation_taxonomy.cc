// Ablations on the taxonomy pipeline (Section V design choices):
//
//   1. CH-index-driven cluster counts (Eq. 13) vs fixed alpha decay;
//   2. shared-weight GraphSAGE (Eqs. 8-11) vs a two-tower model on the
//      query-item graph.
//
// Scored against the planted topic tree (accuracy / diversity / NMI).

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "data/query_dataset.h"
#include "taxonomy/metrics.h"
#include "taxonomy/pipeline.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace hignn;

TaxonomyPipelineConfig BaseConfig() {
  TaxonomyPipelineConfig config;
  config.hignn.levels = 3;
  config.hignn.sage.dims = {24, 24};
  config.hignn.sage.train_steps = bench::Scaled(200);
  config.hignn.kmeans.algorithm = KMeansAlgorithm::kMiniBatch;
  config.hignn.kmeans.minibatch_steps = 50;
  config.word2vec.dim = 24;
  config.word2vec.epochs = 3;
  config.match_descriptions = false;
  return config;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation: taxonomy design choices (CH k-selection, shared weights)",
      "Expected: CH-driven k adapts cluster counts to the data; shared "
      "weights exploit the common word-embedding space (Sec. V-B)");

  QueryDatasetConfig data_config = QueryDatasetConfig::Taobao3();
  data_config.num_queries = bench::Scaled(800);
  data_config.num_items = bench::Scaled(1200);
  data_config.tree.depth = 3;
  auto dataset = QueryDataset::Generate(data_config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }

  struct Variant {
    const char* name;
    bool select_k_by_ch;
    bool shared_weights;
  };
  TablePrinter table({"Variant", "Topics/level", "Accuracy", "Diversity",
                      "Finest NMI", "Seconds"});
  for (const Variant& variant :
       {Variant{"CH k-selection + shared W (default)", true, true},
        Variant{"fixed alpha decay + shared W", false, true},
        Variant{"CH k-selection + two-tower", true, false}}) {
    TaxonomyPipelineConfig config = BaseConfig();
    config.hignn.select_k_by_ch = variant.select_k_by_ch;
    config.hignn.sage.shared_weights = variant.shared_weights;

    WallTimer timer;
    Result<TaxonomyRun> run =
        variant.shared_weights
            ? RunHignnTaxonomy(dataset.value(), config)
            : [&]() -> Result<TaxonomyRun> {
                // Two-tower variant: bypass the pipeline's forced sharing.
                Word2VecConfig w2v = config.word2vec;
                w2v.seed = config.seed ^ 0x77ULL;
                HIGNN_ASSIGN_OR_RETURN(
                    Word2Vec word2vec,
                    Word2Vec::Train(dataset.value().BuildCorpus(),
                                    dataset.value().vocab(), w2v));
                Matrix qf(static_cast<size_t>(dataset.value().num_queries()),
                          static_cast<size_t>(word2vec.dim()));
                for (int32_t q = 0; q < dataset.value().num_queries(); ++q) {
                  qf.SetRow(static_cast<size_t>(q),
                            word2vec.EmbedBag(
                                dataset.value()
                                    .query_tokens()[static_cast<size_t>(q)]));
                }
                Matrix itf(static_cast<size_t>(dataset.value().num_items()),
                           static_cast<size_t>(word2vec.dim()));
                for (int32_t i = 0; i < dataset.value().num_items(); ++i) {
                  itf.SetRow(static_cast<size_t>(i),
                             word2vec.EmbedBag(
                                 dataset.value()
                                     .item_tokens()[static_cast<size_t>(i)]));
                }
                HignnConfig hignn = config.hignn;
                hignn.sage.shared_weights = false;
                const BipartiteGraph graph = dataset.value().BuildGraph();
                HIGNN_ASSIGN_OR_RETURN(HignnModel model,
                                       Hignn::Fit(graph, qf, itf, hignn));
                TaxonomyRun result{Taxonomy{}, std::move(word2vec), {}, 0.0};
                HIGNN_ASSIGN_OR_RETURN(result.taxonomy,
                                       BuildTaxonomyFromHignn(model, graph));
                for (const auto& level : result.taxonomy.levels) {
                  result.level_topics.push_back(level.num_topics);
                }
                return result;
              }();
    if (!run.ok()) {
      std::fprintf(stderr, "%s: %s\n", variant.name,
                   run.status().ToString().c_str());
      return 1;
    }
    auto quality = EvaluateTaxonomy(dataset.value(), run.value().taxonomy,
                                    TaxonomyEvalConfig{});
    if (!quality.ok()) {
      std::fprintf(stderr, "eval: %s\n",
                   quality.status().ToString().c_str());
      return 1;
    }
    std::string topics;
    for (int32_t k : run.value().level_topics) {
      topics += StrFormat("%s%d", topics.empty() ? "" : "/", k);
    }
    table.AddRow({variant.name, topics,
                  StrFormat("%.0f%%", 100 * quality.value().accuracy),
                  StrFormat("%.0f%%", 100 * quality.value().diversity),
                  StrFormat("%.3f", quality.value().finest_nmi),
                  StrFormat("%.1f", timer.Seconds())});
    std::fprintf(stderr, "%s done\n", variant.name);
  }
  table.Print(std::cout);
  return 0;
}
