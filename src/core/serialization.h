#ifndef HIGNN_CORE_SERIALIZATION_H_
#define HIGNN_CORE_SERIALIZATION_H_

#include <string>

#include "core/hignn.h"
#include "graph/bipartite_graph.h"
#include "nn/matrix.h"
#include "util/io.h"
#include "util/status.h"

namespace hignn {

/// \brief Persistence for the library's main artifacts, in the versioned
/// binary container of util/io.h. Typical use: fit the hierarchy once
/// (the expensive step), save it, and serve / experiment from the cached
/// model.
///
/// ```cpp
/// HIGNN_RETURN_IF_ERROR(SaveHignnModel(model, "hierarchy.hgnn"));
/// HIGNN_ASSIGN_OR_RETURN(HignnModel model, LoadHignnModel("hierarchy.hgnn"));
/// ```

Status SaveHignnModel(const HignnModel& model, const std::string& path);

/// \brief Loads a model saved by SaveHignnModel. Beyond the checksums,
/// the structure must hold: 1 to kMaxLevels levels, each as
/// ReadLevelPayload checks it. Anything else is IOError, so a loaded
/// model never indexes out of bounds.
Result<HignnModel> LoadHignnModel(const std::string& path);

/// \brief Loads a bipartite graph from a text edge list: one
/// "left_id<TAB>right_id[<TAB>weight]" line per edge (weight defaults to
/// 1; '#'-prefixed lines are comments). Ids are dense non-negative
/// integers; vertex counts are inferred as max id + 1 unless given. An
/// inferred count above 64 x (edges + 1) or 2^31 - 1 is InvalidArgument
/// (checked once, before anything is sized by it): remap such ids to a
/// dense range.
Result<BipartiteGraph> LoadBipartiteGraphTsv(const std::string& path,
                                             int32_t num_left = -1,
                                             int32_t num_right = -1);

/// \brief Writes the edge list in the same TSV format.
Status SaveBipartiteGraphTsv(const BipartiteGraph& graph,
                             const std::string& path);

/// \brief Raw payload codecs for embedding artifacts inside larger
/// containers (the training checkpointer composes these). Writers emit
/// into the writer's current checksum section; readers assume the
/// container was already verified via ReadHeader, and bound every count
/// a payload declares by the verified bytes left before they allocate.
/// A level payload is its graph shape, embeddings, assignments, cluster
/// counts and loss.
void WriteMatrixPayload(BinaryWriter& writer, const Matrix& matrix);
Result<Matrix> ReadMatrixPayload(BinaryReader& reader);
void WriteLevelPayload(BinaryWriter& writer, const HignnLevel& level);

/// \brief Reads one level and checks it: 0 <= edges <= left x right
/// vertices, one embedding row per vertex, every assignment inside
/// [0, cluster count), and one embedding width for both sides (the first
/// level's, taken from `below` when given). With `below` (the level
/// under it) the level's vertex counts must also be below's cluster
/// counts.
Result<HignnLevel> ReadLevelPayload(BinaryReader& reader,
                                    const HignnLevel* below);

}  // namespace hignn

#endif  // HIGNN_CORE_SERIALIZATION_H_
