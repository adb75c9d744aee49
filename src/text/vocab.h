#ifndef HIGNN_TEXT_VOCAB_H_
#define HIGNN_TEXT_VOCAB_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace hignn {

/// \brief Token id space shared by queries, item titles and word2vec.
///
/// Ids are dense and assigned in first-seen order; id 0 is reserved for
/// the unknown token "<unk>".
class Vocabulary {
 public:
  Vocabulary();

  /// \brief Returns the id for `token`, inserting it if new.
  int32_t GetOrAdd(const std::string& token);

  /// \brief Inverse mapping; dies on out-of-range ids.
  const std::string& TokenOf(int32_t id) const;

  /// \brief Increments a token's corpus frequency counter.
  void CountOccurrence(int32_t id);

  int64_t Frequency(int32_t id) const;

  int32_t size() const { return static_cast<int32_t>(tokens_.size()); }

  /// \brief Total counted occurrences across the corpus.
  int64_t total_count() const { return total_count_; }

 private:
  std::unordered_map<std::string, int32_t> index_;
  std::vector<std::string> tokens_;
  std::vector<int64_t> counts_;
  int64_t total_count_ = 0;
};

}  // namespace hignn

#endif  // HIGNN_TEXT_VOCAB_H_
