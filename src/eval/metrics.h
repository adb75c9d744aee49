#ifndef HIGNN_EVAL_METRICS_H_
#define HIGNN_EVAL_METRICS_H_

#include <vector>

#include "util/status.h"

namespace hignn {

/// \brief Exact AUC (area under the ROC curve) via rank statistics.
///
/// Ties in the scores receive the standard midrank treatment. Returns an
/// error unless both classes are present. This is the paper's offline
/// metric for every CVR experiment (Table III, Fig. 3).
Result<double> ComputeAuc(const std::vector<float>& scores,
                          const std::vector<float>& labels);

}  // namespace hignn

#endif  // HIGNN_EVAL_METRICS_H_
