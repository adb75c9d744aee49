#ifndef HIGNN_TESTS_ROW_GROUPS_TESTING_H_
#define HIGNN_TESTS_ROW_GROUPS_TESTING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/row_groups.h"

namespace hignn {

// Test shorthand: flattens nested per-group id lists and, optionally,
// weights of the same shape into the RowGroups CSR.
inline RowGroups RowGroupsOf(
    const std::vector<std::vector<int32_t>>& groups,
    const std::vector<std::vector<float>>& group_weights = {}) {
  RowGroups out;
  for (size_t g = 0; g < groups.size(); ++g) {
    out.ids.insert(out.ids.end(), groups[g].begin(), groups[g].end());
    if (!group_weights.empty()) {
      out.weights.insert(out.weights.end(), group_weights[g].begin(),
                         group_weights[g].end());
    }
    out.CloseGroup();
  }
  return out;
}

}  // namespace hignn

#endif  // HIGNN_TESTS_ROW_GROUPS_TESTING_H_
