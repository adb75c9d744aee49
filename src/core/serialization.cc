#include "core/serialization.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <tuple>

#include "util/io.h"
#include "util/string_util.h"

namespace hignn {

void WriteMatrixPayload(BinaryWriter& writer, const Matrix& matrix) {
  writer.WriteU64(matrix.rows());
  writer.WriteU64(matrix.cols());
  writer.WriteFloats(matrix.data(), matrix.size());
}

Result<Matrix> ReadMatrixPayload(BinaryReader& reader) {
  HIGNN_ASSIGN_OR_RETURN(uint64_t rows, reader.ReadU64());
  HIGNN_ASSIGN_OR_RETURN(uint64_t cols, reader.ReadU64());
  if (rows > (1ULL << 31) || cols > (1ULL << 31)) {
    return Status::IOError("unreasonable matrix shape");
  }
  // A u64 count and rows * cols floats follow; a shape the verified bytes
  // cannot hold is rejected before it is allocated.
  const size_t left = reader.remaining();
  if (left < sizeof(uint64_t) ||
      rows * cols > (left - sizeof(uint64_t)) / sizeof(float)) {
    return Status::IOError(StrFormat(
        "matrix shape %llu x %llu exceeds the %zu bytes left",
        static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(cols), left));
  }
  Matrix matrix(static_cast<size_t>(rows), static_cast<size_t>(cols));
  HIGNN_RETURN_IF_ERROR(reader.ReadFloats(matrix.data(), matrix.size()));
  return matrix;
}

namespace {

Result<std::vector<int32_t>> ReadAssignment(BinaryReader& reader,
                                            size_t expected) {
  std::vector<int32_t> assignment(expected);
  HIGNN_RETURN_IF_ERROR(reader.ReadI32s(assignment.data(), expected));
  return assignment;
}

// Every vertex must map to a cluster of the level above.
Status CheckAssignment(const std::vector<int32_t>& assignment,
                       int32_t num_clusters, const char* side) {
  if (num_clusters < 0) {
    return Status::IOError(
        StrFormat("negative %s cluster count %d", side, num_clusters));
  }
  for (size_t v = 0; v < assignment.size(); ++v) {
    if (assignment[v] < 0 || assignment[v] >= num_clusters) {
      return Status::IOError(StrFormat(
          "%s vertex %zu is assigned to cluster %d, outside [0, %d)", side,
          v, assignment[v], num_clusters));
    }
  }
  return Status::OK();
}

void WriteShape(BinaryWriter& writer, const GraphShape& shape) {
  writer.WriteI32(shape.num_left);
  writer.WriteI32(shape.num_right);
  writer.WriteI64(shape.num_edges);
}

Result<GraphShape> ReadShape(BinaryReader& reader) {
  GraphShape shape;
  HIGNN_ASSIGN_OR_RETURN(shape.num_left, reader.ReadI32());
  HIGNN_ASSIGN_OR_RETURN(shape.num_right, reader.ReadI32());
  HIGNN_ASSIGN_OR_RETURN(shape.num_edges, reader.ReadI64());
  // Each vertex owns a 4-byte cluster assignment after the shape, so
  // counts the verified bytes cannot hold are rejected before anything
  // is sized by them.
  const int64_t pairs = static_cast<int64_t>(shape.num_left) * shape.num_right;
  if (shape.num_left < 0 || shape.num_right < 0 || shape.num_edges < 0 ||
      shape.num_edges > pairs ||
      static_cast<uint64_t>(shape.num_left) + shape.num_right >
          reader.remaining() / sizeof(int32_t)) {
    return Status::IOError(StrFormat(
        "a %d x %d graph with %lld edges is impossible or exceeds the %zu "
        "bytes left",
        shape.num_left, shape.num_right,
        static_cast<long long>(shape.num_edges), reader.remaining()));
  }
  return shape;
}

// IOError unless a level over `shape` can sit on `below`: its vertex
// counts must be below's cluster counts.
Status CheckLevelChain(const HignnLevel& below, const GraphShape& shape) {
  if (shape.num_left != below.num_left_clusters ||
      shape.num_right != below.num_right_clusters) {
    return Status::IOError(StrFormat(
        "level graph has %d x %d vertices, but the level below has %d x %d "
        "clusters",
        shape.num_left, shape.num_right, below.num_left_clusters,
        below.num_right_clusters));
  }
  return Status::OK();
}

}  // namespace

void WriteLevelPayload(BinaryWriter& writer, const HignnLevel& level) {
  WriteShape(writer, level.graph);
  WriteMatrixPayload(writer, level.left_embeddings);
  WriteMatrixPayload(writer, level.right_embeddings);
  for (const auto* assignment :
       {&level.left_assignment, &level.right_assignment}) {
    writer.WriteI32s(assignment->data(), assignment->size());
  }
  writer.WriteI32(level.num_left_clusters);
  writer.WriteI32(level.num_right_clusters);
  writer.WriteF64(level.train_loss);
}

Result<HignnLevel> ReadLevelPayload(BinaryReader& reader,
                                    const HignnLevel* below) {
  HignnLevel level;
  HIGNN_ASSIGN_OR_RETURN(level.graph, ReadShape(reader));
  if (below != nullptr) {
    HIGNN_RETURN_IF_ERROR(CheckLevelChain(*below, level.graph));
  }
  const size_t num_left = static_cast<size_t>(level.graph.num_left);
  const size_t num_right = static_cast<size_t>(level.graph.num_right);
  HIGNN_ASSIGN_OR_RETURN(level.left_embeddings, ReadMatrixPayload(reader));
  HIGNN_ASSIGN_OR_RETURN(level.right_embeddings, ReadMatrixPayload(reader));
  if (level.left_embeddings.rows() != num_left ||
      level.right_embeddings.rows() != num_right) {
    return Status::IOError(StrFormat(
        "level embeddings have %zu x %zu rows for %zu x %zu vertices",
        level.left_embeddings.rows(), level.right_embeddings.rows(),
        num_left, num_right));
  }
  // z^H concatenates one row per level, so every level and side shares the
  // first level's width.
  const size_t width = below != nullptr ? below->left_embeddings.cols()
                                        : level.left_embeddings.cols();
  if (level.left_embeddings.cols() != width ||
      level.right_embeddings.cols() != width) {
    return Status::IOError(StrFormat(
        "level embedding widths %zu / %zu differ from the model's %zu",
        level.left_embeddings.cols(), level.right_embeddings.cols(), width));
  }
  HIGNN_ASSIGN_OR_RETURN(level.left_assignment,
                         ReadAssignment(reader, num_left));
  HIGNN_ASSIGN_OR_RETURN(level.right_assignment,
                         ReadAssignment(reader, num_right));
  HIGNN_ASSIGN_OR_RETURN(level.num_left_clusters, reader.ReadI32());
  HIGNN_ASSIGN_OR_RETURN(level.num_right_clusters, reader.ReadI32());
  HIGNN_RETURN_IF_ERROR(
      CheckAssignment(level.left_assignment, level.num_left_clusters, "left"));
  HIGNN_RETURN_IF_ERROR(CheckAssignment(level.right_assignment,
                                        level.num_right_clusters, "right"));
  HIGNN_ASSIGN_OR_RETURN(level.train_loss, reader.ReadF64());
  return level;
}

Status SaveHignnModel(const HignnModel& model, const std::string& path) {
  BinaryWriter writer(path);
  if (!writer.ok()) return Status::IOError("cannot open " + path);
  writer.WriteHeader(kTagHignnModel);
  writer.WriteI32(model.num_levels());
  for (const HignnLevel& level : model.levels()) {
    // One checksum section per level so corruption reports localize.
    writer.NextSection();
    WriteLevelPayload(writer, level);
  }
  return writer.Close();
}

Result<HignnModel> LoadHignnModel(const std::string& path) {
  BinaryReader reader(path);
  HIGNN_RETURN_IF_ERROR(reader.ReadHeader(kTagHignnModel));
  HIGNN_ASSIGN_OR_RETURN(int32_t num_levels, reader.ReadI32());
  if (num_levels < 1 || num_levels > kMaxLevels) {
    return Status::IOError(StrFormat("model has %d levels, not 1 to %d",
                                     num_levels, kMaxLevels));
  }
  std::vector<HignnLevel> levels;
  levels.reserve(static_cast<size_t>(num_levels));
  for (int32_t l = 0; l < num_levels; ++l) {
    HIGNN_ASSIGN_OR_RETURN(
        HignnLevel level,
        ReadLevelPayload(reader, levels.empty() ? nullptr : &levels.back()));
    levels.push_back(std::move(level));
  }
  return HignnModel::FromLevels(std::move(levels));
}

namespace {

// Strict full-field parsers for the TSV loader: the std::stoi family
// silently accepts trailing garbage ("12abc" -> 12), so these insist the
// whole field is consumed.
bool ParseFullInt32(const std::string& field, int32_t* out) {
  if (field.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(field.c_str(), &end, 10);
  if (errno != 0 || end != field.c_str() + field.size()) return false;
  if (value < INT32_MIN || value > INT32_MAX) return false;
  *out = static_cast<int32_t>(value);
  return true;
}

bool ParseFullFloat(const std::string& field, float* out) {
  if (field.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const float value = std::strtof(field.c_str(), &end);
  if (errno != 0 || end != field.c_str() + field.size()) return false;
  *out = value;
  return true;
}

// An inferred vertex count may be at most this many times (edges + 1), so
// one stray id cannot size the CSR arrays (serialization.h).
constexpr int64_t kMaxVerticesPerEdge = 64;

}  // namespace

Result<BipartiteGraph> LoadBipartiteGraphTsv(const std::string& path,
                                             int32_t num_left,
                                             int32_t num_right) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  struct ParsedEdge {
    int32_t u;
    int32_t i;
    float weight;
  };
  std::vector<ParsedEdge> edges;
  int64_t max_left = -1;
  int64_t max_right = -1;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto fields = SplitWhitespace(trimmed);
    if (fields.size() < 2 || fields.size() > 3) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: expected 2 or 3 fields", path.c_str(),
                    line_number));
    }
    ParsedEdge edge;
    if (!ParseFullInt32(fields[0], &edge.u) ||
        !ParseFullInt32(fields[1], &edge.i)) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: malformed id", path.c_str(), line_number));
    }
    edge.weight = 1.0f;
    if (fields.size() == 3 && !ParseFullFloat(fields[2], &edge.weight)) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: malformed weight", path.c_str(), line_number));
    }
    if (edge.u < 0 || edge.i < 0) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: negative id", path.c_str(), line_number));
    }
    if (!std::isfinite(edge.weight) || edge.weight < 0.0f) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: weight must be finite and non-negative",
                    path.c_str(), line_number));
    }
    max_left = std::max<int64_t>(max_left, edge.u);
    max_right = std::max<int64_t>(max_right, edge.i);
    edges.push_back(edge);
  }
  const auto num_edges = static_cast<int64_t>(edges.size());
  const int64_t max_count =
      std::min<int64_t>(std::numeric_limits<int32_t>::max(),
                        kMaxVerticesPerEdge * (num_edges + 1));
  for (const auto& [side, given, max_id] :
       {std::tuple{"left", num_left, max_left},
        std::tuple{"right", num_right, max_right}}) {
    if (given < 0 && max_id + 1 > max_count) {
      return Status::InvalidArgument(StrFormat(
          "%s: %s id %lld would make %lld %s vertices for %lld edges (the "
          "limit is %lld); remap ids to a dense range 0..n-1",
          path.c_str(), side, static_cast<long long>(max_id),
          static_cast<long long>(max_id + 1), side,
          static_cast<long long>(num_edges),
          static_cast<long long>(max_count)));
    }
  }
  const int32_t left =
      num_left >= 0 ? num_left : static_cast<int32_t>(max_left + 1);
  const int32_t right =
      num_right >= 0 ? num_right : static_cast<int32_t>(max_right + 1);
  BipartiteGraphBuilder builder(left, right);
  for (const ParsedEdge& edge : edges) {
    HIGNN_RETURN_IF_ERROR(builder.AddEdge(edge.u, edge.i, edge.weight));
  }
  return builder.Build();
}

Status SaveBipartiteGraphTsv(const BipartiteGraph& graph,
                             const std::string& path) {
  std::ostringstream out;
  out << "# left_id\tright_id\tweight\n";
  for (int64_t k = 0; k < graph.num_edges(); ++k) {
    const WeightedEdge edge = graph.EdgeAt(k);
    out << edge.u << '\t' << edge.i << '\t' << edge.weight << '\n';
  }
  return AtomicWriteTextFile(path, out.str());
}

}  // namespace hignn
