#include "text/vocab.h"

#include "util/logging.h"

namespace hignn {

Vocabulary::Vocabulary() {
  tokens_.push_back("<unk>");
  counts_.push_back(0);
  index_.emplace("<unk>", 0);
}

int32_t Vocabulary::GetOrAdd(const std::string& token) {
  auto it = index_.find(token);
  if (it != index_.end()) return it->second;
  const int32_t id = static_cast<int32_t>(tokens_.size());
  tokens_.push_back(token);
  counts_.push_back(0);
  index_.emplace(token, id);
  return id;
}

const std::string& Vocabulary::TokenOf(int32_t id) const {
  HIGNN_CHECK_GE(id, 0);
  HIGNN_CHECK_LT(static_cast<size_t>(id), tokens_.size());
  return tokens_[static_cast<size_t>(id)];
}

void Vocabulary::CountOccurrence(int32_t id) {
  HIGNN_CHECK_GE(id, 0);
  HIGNN_CHECK_LT(static_cast<size_t>(id), counts_.size());
  ++counts_[static_cast<size_t>(id)];
  ++total_count_;
}

int64_t Vocabulary::Frequency(int32_t id) const {
  HIGNN_CHECK_GE(id, 0);
  HIGNN_CHECK_LT(static_cast<size_t>(id), counts_.size());
  return counts_[static_cast<size_t>(id)];
}

}  // namespace hignn
