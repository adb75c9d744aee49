#include "taxonomy/pipeline.h"

#include <utility>

#include "taxonomy/shoal.h"
#include "util/logging.h"
#include "obs/trace.h"

namespace hignn {

namespace {

// Queries and item titles embedded into the shared word-vector space —
// the X_Q / X_I inputs of the Section V-B GraphSAGE.
std::pair<Matrix, Matrix> BuildSharedFeatures(const QueryDataset& dataset,
                                              const Word2Vec& word2vec) {
  Matrix query_features(static_cast<size_t>(dataset.num_queries()),
                        static_cast<size_t>(word2vec.dim()));
  for (int32_t q = 0; q < dataset.num_queries(); ++q) {
    query_features.SetRow(
        static_cast<size_t>(q),
        word2vec.EmbedBag(dataset.query_tokens()[static_cast<size_t>(q)]));
  }
  Matrix item_features(static_cast<size_t>(dataset.num_items()),
                       static_cast<size_t>(word2vec.dim()));
  for (int32_t i = 0; i < dataset.num_items(); ++i) {
    item_features.SetRow(
        static_cast<size_t>(i),
        word2vec.EmbedBag(dataset.item_tokens()[static_cast<size_t>(i)]));
  }
  return {std::move(query_features), std::move(item_features)};
}

}  // namespace

Result<TaxonomyRun> RunHignnTaxonomy(const QueryDataset& dataset,
                                     const TaxonomyPipelineConfig& config) {
  obs::Stopwatch timer;
  Word2VecConfig w2v_config = config.word2vec;
  w2v_config.seed = config.seed ^ 0x77ULL;
  HIGNN_ASSIGN_OR_RETURN(
      Word2Vec word2vec,
      Word2Vec::Train(dataset.BuildCorpus(), dataset.vocab(), w2v_config));

  auto [query_features, item_features] =
      BuildSharedFeatures(dataset, word2vec);

  HignnConfig hignn_config = config.hignn;
  hignn_config.sage.shared_weights = true;  // Sec. V-B: shared W and M.
  hignn_config.seed = config.seed;
  const BipartiteGraph graph = dataset.BuildGraph();
  HIGNN_ASSIGN_OR_RETURN(
      HignnModel model,
      Hignn::Fit(graph, query_features, item_features, hignn_config));

  TaxonomyRun run{Taxonomy{}, std::move(word2vec), {}, 0.0};
  HIGNN_ASSIGN_OR_RETURN(run.taxonomy, BuildTaxonomyFromHignn(model, graph));
  for (const auto& level : run.taxonomy.levels) {
    run.level_topics.push_back(level.num_topics);
  }
  if (config.match_descriptions) {
    TopicDescriptionMatcher matcher(&dataset);
    HIGNN_RETURN_IF_ERROR(matcher.MatchAll(&run.taxonomy));
  }
  run.wall_seconds = timer.Seconds();
  return run;
}

Result<TaxonomyRun> RunShoalTaxonomy(const QueryDataset& dataset,
                                     const TaxonomyPipelineConfig& config,
                                     const std::vector<int32_t>& level_topics) {
  obs::Stopwatch timer;
  Word2VecConfig w2v_config = config.word2vec;
  w2v_config.seed = config.seed ^ 0x77ULL;  // Same space as the HiGNN run.
  HIGNN_ASSIGN_OR_RETURN(
      Word2Vec word2vec,
      Word2Vec::Train(dataset.BuildCorpus(), dataset.vocab(), w2v_config));

  TaxonomyRun run{Taxonomy{}, std::move(word2vec), level_topics, 0.0};
  HIGNN_ASSIGN_OR_RETURN(
      run.taxonomy,
      BuildTaxonomyShoal(dataset, run.word2vec, level_topics));
  if (config.match_descriptions) {
    TopicDescriptionMatcher matcher(&dataset);
    HIGNN_RETURN_IF_ERROR(matcher.MatchAll(&run.taxonomy));
  }
  run.wall_seconds = timer.Seconds();
  return run;
}

}  // namespace hignn
