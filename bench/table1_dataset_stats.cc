// Reproduces Table I: statistical information of the CVR datasets.
//
// Paper reference (Taobao production logs):
//   Taobao #1: 34,519,150 users  13,296,702 items  280,522,717 clicks  6.11e-7
//   Taobao #2: 11,727,217 users   3,053,149 items    1,109,274 clicks  3.10e-8
//
// This bench regenerates the statistics from the synthetic laptop-scale
// analogues. Absolute counts are ~2,000x smaller by design; the *shape*
// that matters is the density gap: #2 (cold-start) is 1-2 orders of
// magnitude sparser than #1.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "data/synthetic.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main() {
  using namespace hignn;
  bench::PrintHeader(
      "Table I: Statistical Information of Datasets",
      "Paper: Taobao #1 density 6.11e-7 vs Taobao #2 density 3.10e-8 "
      "(#2 over an order of magnitude sparser)");

  TablePrinter table(
      {"Dataset", "Users", "Items", "User-Item Clicks", "Density"});

  double densities[2] = {0, 0};
  int index = 0;
  for (const auto& [name, config] :
       {std::pair<const char*, SyntheticConfig>{"Taobao #1 (synthetic)",
                                                SyntheticConfig::Taobao1()},
        {"Taobao #2 (synthetic)", SyntheticConfig::Taobao2()}}) {
    SyntheticConfig scaled = config;
    scaled.num_users = bench::Scaled(config.num_users);
    scaled.num_items = bench::Scaled(config.num_items);
    auto dataset = SyntheticDataset::Generate(scaled);
    if (!dataset.ok()) {
      std::fprintf(stderr, "generate failed: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    const BipartiteGraph graph = dataset.value().BuildTrainGraph();
    densities[index++] = GraphShape(graph).Density();
    table.AddRow({name, WithThousandsSep(graph.num_left()),
                  WithThousandsSep(graph.num_right()),
                  WithThousandsSep(graph.num_edges()),
                  StrFormat("%.2e", GraphShape(graph).Density())});
  }
  table.Print(std::cout);

  std::printf("\nShape check: density(#1) / density(#2) = %.1fx "
              "(paper: %.1fx)\n",
              densities[0] / densities[1], 6.11e-7 / 3.10e-8);
  return 0;
}
