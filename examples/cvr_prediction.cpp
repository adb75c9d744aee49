// CVR prediction walk-through (the Section IV workload): fit a 3-level
// HiGNN hierarchy on a week of synthetic click logs, assemble hierarchical
// user-preference and item-attractiveness features, train the supervised
// network of Fig. 2, and compare against the DIN and GE baselines on
// next-day data.
//
//   ./build/examples/example_cvr_prediction [num_users]

#include <cstdio>
#include <cstdlib>

#include "data/synthetic.h"
#include "eval/metrics.h"
#include "predict/experiment.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace hignn;

  const int32_t num_users = argc > 1 ? std::atoi(argv[1]) : 1500;

  // --- 1. Data: a synthetic Taobao #1 analogue -----------------------------
  SyntheticConfig data_config = SyntheticConfig::Taobao1();
  data_config.num_users = num_users;
  data_config.num_items = num_users * 2 / 5;
  auto dataset = SyntheticDataset::Generate(data_config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  const BipartiteGraph graph = dataset.value().BuildTrainGraph();
  std::printf("click graph: %d users x %d items, %lld edges "
              "(density %.2e)\n",
              graph.num_left(), graph.num_right(),
              static_cast<long long>(graph.num_edges()),
              GraphShape(graph).Density());

  // --- 2. Hierarchy: Algorithm 1 with L = 3, alpha = 5 ---------------------
  CvrExperimentConfig config;
  config.hignn.levels = 3;
  config.hignn.sage.dims = {32, 32};
  config.hignn.sage.fanouts = {10, 5};
  config.hignn.sage.train_steps = 250;
  config.hignn.alpha = 5.0;
  config.hignn.verbose = true;
  config.cvr.hidden = {128, 64, 32};
  config.cvr.epochs = 3;

  WallTimer timer;
  auto experiment = CvrExperiment::Prepare(dataset.value(), config);
  if (!experiment.ok()) {
    std::fprintf(stderr, "prepare: %s\n",
                 experiment.status().ToString().c_str());
    return 1;
  }
  std::printf("hierarchy fitted in %.1fs; cluster counts per level:",
              timer.Seconds());
  for (const auto& level : experiment.value().model().levels()) {
    std::printf(" (%d users, %d items)", level.num_left_clusters,
                level.num_right_clusters);
  }
  std::printf("\n");

  // --- 3. Oracle reference: the generator's own purchase probability -------
  {
    std::vector<float> scores;
    std::vector<float> labels;
    for (const auto& sample : experiment.value().samples().test) {
      scores.push_back(static_cast<float>(
          dataset.value().PurchaseProbability(sample.user, sample.item)));
      labels.push_back(sample.label);
    }
    auto auc = ComputeAuc(scores, labels);
    if (auc.ok()) {
      std::printf("oracle (true probabilities) test AUC: %.4f\n",
                  auc.value());
    }
  }

  // --- 4. Models: DIN (no graph), GE (flat), HiGNN (hierarchical) ----------
  for (const auto& [name, spec] :
       {std::pair<const char*, FeatureSpec>{"DIN", FeatureSpec::Din()},
        {"GE", FeatureSpec::Ge()},
        {"HiGNN", FeatureSpec::HiGnn(3)}}) {
    timer.Restart();
    auto result = experiment.value().RunVariant(name, spec);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", name,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-6s test AUC %.4f  (train loss %.4f, %.1fs)\n", name,
                result.value().test_auc, result.value().train_loss,
                timer.Seconds());
  }
  return 0;
}
