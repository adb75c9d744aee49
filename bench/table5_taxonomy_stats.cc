// Reproduces Tables V and VI: the taxonomy dataset and its sample stats.
//
// Paper reference:
//   Table V : Taobao #3 — 76,218,663 queries, 138,514,439 items,
//             1,000,947,908 query-item edges, density 9.481e-8
//   Table VI: positives 1,000,947,908, negatives 3,002,843,724 (1:3)
//
// Shape: a sparse text-attributed query-item bipartite graph; negative
// sampling at a 1:3 ratio for the unsupervised loss.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "data/query_dataset.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main() {
  using namespace hignn;
  bench::PrintHeader(
      "Tables V & VI: Taxonomy Dataset Statistics",
      "Paper: Taobao #3 density 9.48e-8, pos:neg = 1:3 for the "
      "unsupervised loss");

  QueryDatasetConfig config = QueryDatasetConfig::Taobao3();
  config.num_queries = bench::Scaled(config.num_queries);
  config.num_items = bench::Scaled(config.num_items);
  auto dataset = QueryDataset::Generate(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  const BipartiteGraph graph = dataset.value().BuildGraph();

  TablePrinter table5({"Dataset", "Queries", "Items", "Q-I Edges",
                       "Density"});
  table5.SetTitle("Table V (measured, synthetic):");
  table5.AddRow({"Taobao #3 (synthetic)", WithThousandsSep(graph.num_left()),
                 WithThousandsSep(graph.num_right()),
                 WithThousandsSep(graph.num_edges()),
                 StrFormat("%.3e", GraphShape(graph).Density())});
  table5.Print(std::cout);

  // Table VI: the unsupervised loss treats every edge as a positive and
  // samples 3 negatives per positive (Qu + Qi in the implementation).
  const int64_t positives = graph.num_edges();
  const int64_t negatives = positives * 3;
  TablePrinter table6({"Dataset", "Positive", "Negative", "Total"});
  table6.SetTitle("\nTable VI (sampling protocol, 1:3):");
  table6.AddRow({"Taobao #3 (synthetic)", WithThousandsSep(positives),
                 WithThousandsSep(negatives),
                 WithThousandsSep(positives + negatives)});
  table6.Print(std::cout);

  // Extra structural diagnostics (not in the paper's tables but useful
  // to confirm the graph has the text and hierarchy attributes Sec. V
  // requires).
  std::printf("\nVocabulary: %s tokens; topic tree: depth %d, %d leaves; "
              "ontology categories: %d\n",
              WithThousandsSep(dataset.value().vocab().size()).c_str(),
              dataset.value().tree().depth(),
              static_cast<int32_t>(dataset.value().tree().leaves().size()),
              dataset.value().config().num_categories);
  return 0;
}
