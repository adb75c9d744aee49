#ifndef HIGNN_TEXT_WORD2VEC_H_
#define HIGNN_TEXT_WORD2VEC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "nn/matrix.h"
#include "text/vocab.h"
#include "util/rng.h"
#include "util/status.h"

namespace hignn {

/// \brief word2vec skip-gram with negative sampling (Mikolov et al.),
/// the embedding technique Section V-B uses to place queries and item
/// titles "into the same latent space".
struct Word2VecConfig {
  int32_t dim = 32;
  int32_t window = 4;
  int32_t negatives = 5;
  int32_t epochs = 3;
  float learning_rate = 0.025f;
  float min_learning_rate = 1e-4f;
  uint64_t seed = 7;
};

/// \brief Trained word embeddings plus sentence pooling helpers.
class Word2Vec {
 public:
  /// \brief Trains on `sentences` (token-id sequences, ids valid for
  /// `vocab`). The vocabulary's frequency counters must already reflect
  /// the corpus (used for the unigram^0.75 negative table).
  static Result<Word2Vec> Train(const std::vector<std::vector<int32_t>>& sentences,
                                const Vocabulary& vocab,
                                const Word2VecConfig& config);

  /// \brief (vocab_size x dim) input-embedding matrix.
  const Matrix& embeddings() const { return input_embeddings_; }

  int32_t dim() const { return static_cast<int32_t>(input_embeddings_.cols()); }

  /// \brief Mean of the member-token embeddings; zero vector for an empty
  /// token list. This is how query and title features are produced.
  std::vector<float> EmbedBag(const std::vector<int32_t>& token_ids) const;

 private:
  explicit Word2Vec(Matrix input) : input_embeddings_(std::move(input)) {}

  Matrix input_embeddings_;
};

}  // namespace hignn

#endif  // HIGNN_TEXT_WORD2VEC_H_
