#include "text/word2vec.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace hignn {

namespace {

inline float SigmoidF(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

}  // namespace

Result<Word2Vec> Word2Vec::Train(
    const std::vector<std::vector<int32_t>>& sentences,
    const Vocabulary& vocab, const Word2VecConfig& config) {
  if (config.dim <= 0 || config.window <= 0 || config.negatives < 0) {
    return Status::InvalidArgument("word2vec: bad hyper-parameters");
  }
  const int32_t vocab_size = vocab.size();
  if (vocab_size <= 1) {
    return Status::InvalidArgument("word2vec: empty vocabulary");
  }

  Rng rng(config.seed);
  const size_t d = static_cast<size_t>(config.dim);
  Matrix input(static_cast<size_t>(vocab_size), d);
  Matrix output(static_cast<size_t>(vocab_size), d);
  input.FillUniform(rng, -0.5f / config.dim, 0.5f / config.dim);
  // Output vectors start at zero (original word2vec convention).

  // Unigram^0.75 table over observed frequencies.
  std::vector<double> weights(static_cast<size_t>(vocab_size));
  for (int32_t w = 0; w < vocab_size; ++w) {
    weights[static_cast<size_t>(w)] =
        std::pow(static_cast<double>(vocab.Frequency(w)) + 1e-3, 0.75);
  }
  AliasSampler negative_table(weights);

  int64_t total_tokens = 0;
  for (const auto& s : sentences) total_tokens += static_cast<int64_t>(s.size());
  if (total_tokens == 0) {
    return Status::InvalidArgument("word2vec: empty corpus");
  }
  const int64_t total_steps =
      std::max<int64_t>(1, total_tokens * config.epochs);

  std::vector<float> grad_center(d);
  int64_t step = 0;
  for (int32_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& sentence : sentences) {
      const int32_t len = static_cast<int32_t>(sentence.size());
      for (int32_t pos = 0; pos < len; ++pos) {
        ++step;
        const float progress =
            static_cast<float>(step) / static_cast<float>(total_steps);
        const float lr = std::max(
            config.min_learning_rate,
            config.learning_rate * (1.0f - progress));

        const int32_t center = sentence[static_cast<size_t>(pos)];
        // Dynamic window, as in the reference implementation.
        const int32_t reduced =
            static_cast<int32_t>(rng.UniformInt(config.window)) + 1;
        for (int32_t off = -reduced; off <= reduced; ++off) {
          if (off == 0) continue;
          const int32_t ctx_pos = pos + off;
          if (ctx_pos < 0 || ctx_pos >= len) continue;
          const int32_t context = sentence[static_cast<size_t>(ctx_pos)];

          float* v_center = input.row(static_cast<size_t>(center));
          std::fill(grad_center.begin(), grad_center.end(), 0.0f);

          // One positive + `negatives` sampled negatives.
          for (int32_t n = 0; n <= config.negatives; ++n) {
            int32_t target;
            float label;
            if (n == 0) {
              target = context;
              label = 1.0f;
            } else {
              target = static_cast<int32_t>(negative_table.Sample(rng));
              if (target == context) continue;
              label = 0.0f;
            }
            float* v_out = output.row(static_cast<size_t>(target));
            float dot = 0.0f;
            for (size_t c = 0; c < d; ++c) dot += v_center[c] * v_out[c];
            const float g = (SigmoidF(dot) - label) * lr;
            for (size_t c = 0; c < d; ++c) {
              grad_center[c] += g * v_out[c];
              v_out[c] -= g * v_center[c];
            }
          }
          for (size_t c = 0; c < d; ++c) v_center[c] -= grad_center[c];
        }
      }
    }
  }
  return Word2Vec(std::move(input));
}

std::vector<float> Word2Vec::EmbedBag(
    const std::vector<int32_t>& token_ids) const {
  std::vector<float> out(input_embeddings_.cols(), 0.0f);
  if (token_ids.empty()) return out;
  for (int32_t id : token_ids) {
    HIGNN_CHECK_GE(id, 0);
    HIGNN_CHECK_LT(static_cast<size_t>(id), input_embeddings_.rows());
    const float* row = input_embeddings_.row(static_cast<size_t>(id));
    for (size_t c = 0; c < out.size(); ++c) out[c] += row[c];
  }
  const float inv = 1.0f / static_cast<float>(token_ids.size());
  for (float& x : out) x *= inv;
  return out;
}

}  // namespace hignn
