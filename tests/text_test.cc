#include <cmath>

#include <gtest/gtest.h>

#include "text/bm25.h"
#include "text/vocab.h"
#include "text/word2vec.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace hignn {
namespace {

// ------------------------------------------------------------ Vocabulary --

TEST(VocabTest, UnkReserved) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.size(), 1);
  EXPECT_EQ(vocab.TokenOf(0), "<unk>");
}

TEST(VocabTest, GetOrAddIsIdempotent) {
  Vocabulary vocab;
  const int32_t a = vocab.GetOrAdd("apple");
  const int32_t b = vocab.GetOrAdd("banana");
  EXPECT_NE(a, b);
  EXPECT_EQ(vocab.GetOrAdd("apple"), a);
  EXPECT_EQ(vocab.GetOrAdd("banana"), b);
  EXPECT_EQ(vocab.TokenOf(a), "apple");
  EXPECT_EQ(vocab.size(), 3);
}

TEST(VocabTest, FrequencyCounting) {
  Vocabulary vocab;
  const int32_t a = vocab.GetOrAdd("x");
  vocab.CountOccurrence(a);
  vocab.CountOccurrence(a);
  EXPECT_EQ(vocab.Frequency(a), 2);
  EXPECT_EQ(vocab.total_count(), 2);
}

// ------------------------------------------------------------------ BM25 --

TEST(Bm25Test, MatchingTermScoresHigher) {
  Bm25Index index;
  index.AddDocument({1, 2, 3});
  index.AddDocument({4, 5, 6});
  index.Finalize();
  EXPECT_GT(index.Score({1}, 0), index.Score({1}, 1));
  EXPECT_DOUBLE_EQ(index.Score({1}, 1), 0.0);
}

TEST(Bm25Test, RareTermsWeighMore) {
  Bm25Index index;
  // Token 9 appears in one doc; token 1 in all three.
  index.AddDocument({1, 9});
  index.AddDocument({1, 2});
  index.AddDocument({1, 3});
  index.Finalize();
  EXPECT_GT(index.Score({9}, 0), index.Score({1}, 0));
}

TEST(Bm25Test, TermFrequencySaturates) {
  Bm25Index index;
  index.AddDocument({7, 7, 7, 7, 7, 7, 7, 7});
  index.AddDocument({7, 1, 2, 3, 4, 5, 6, 8});
  index.Finalize();
  const double heavy = index.Score({7}, 0);
  const double light = index.Score({7}, 1);
  EXPECT_GT(heavy, light);
  EXPECT_LT(heavy, light * 4.0);  // k1 saturation keeps it sub-linear
}

TEST(Bm25Test, MultiTokenQueryAdds) {
  Bm25Index index;
  index.AddDocument({1, 2});
  index.AddDocument({1, 3});
  index.Finalize();
  EXPECT_GT(index.Score({1, 2}, 0), index.Score({1}, 0));
}

// -------------------------------------------------------------- Word2Vec --

// Builds a corpus with two disjoint "topics": words 1..5 co-occur, words
// 6..10 co-occur; word2vec must embed within-topic pairs closer.
TEST(Word2VecTest, SeparatesTopics) {
  Vocabulary vocab;
  std::vector<int32_t> topic_a;
  std::vector<int32_t> topic_b;
  for (int k = 0; k < 5; ++k) {
    topic_a.push_back(vocab.GetOrAdd(StrFormat("a%d", k)));
    topic_b.push_back(vocab.GetOrAdd(StrFormat("b%d", k)));
  }
  Rng rng(3);
  std::vector<std::vector<int32_t>> corpus;
  for (int s = 0; s < 300; ++s) {
    const auto& topic = (s % 2 == 0) ? topic_a : topic_b;
    std::vector<int32_t> sentence;
    for (int t = 0; t < 6; ++t) {
      sentence.push_back(topic[rng.UniformInt(topic.size())]);
    }
    corpus.push_back(std::move(sentence));
    for (int32_t token : corpus.back()) vocab.CountOccurrence(token);
  }

  Word2VecConfig config;
  config.dim = 16;
  config.epochs = 6;
  auto w2v = Word2Vec::Train(corpus, vocab, config);
  ASSERT_TRUE(w2v.ok()) << w2v.status().ToString();
  const Matrix& rows = w2v.value().embeddings();
  const auto cosine = [&rows](int32_t a, int32_t b) {
    const float* ra = rows.row(static_cast<size_t>(a));
    const float* rb = rows.row(static_cast<size_t>(b));
    double dot = 0.0;
    double na = 0.0;
    double nb = 0.0;
    for (size_t c = 0; c < rows.cols(); ++c) {
      dot += static_cast<double>(ra[c]) * rb[c];
      na += static_cast<double>(ra[c]) * ra[c];
      nb += static_cast<double>(rb[c]) * rb[c];
    }
    return dot / std::sqrt(na * nb);
  };

  double within = 0.0;
  double across = 0.0;
  int within_count = 0;
  int across_count = 0;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (i != j) {
        within += cosine(topic_a[i], topic_a[j]);
        within += cosine(topic_b[i], topic_b[j]);
        within_count += 2;
      }
      across += cosine(topic_a[i], topic_b[j]);
      ++across_count;
    }
  }
  EXPECT_GT(within / within_count, across / across_count + 0.3);
}

TEST(Word2VecTest, EmbedBagAveragesAndHandlesEmpty) {
  Vocabulary vocab;
  const int32_t a = vocab.GetOrAdd("a");
  const int32_t b = vocab.GetOrAdd("b");
  std::vector<std::vector<int32_t>> corpus = {{a, b, a, b, a, b}};
  for (int32_t t : corpus[0]) vocab.CountOccurrence(t);
  Word2VecConfig config;
  config.dim = 8;
  auto w2v = Word2Vec::Train(corpus, vocab, config);
  ASSERT_TRUE(w2v.ok());

  const auto bag = w2v.value().EmbedBag({a, b});
  ASSERT_EQ(bag.size(), 8u);
  const auto& emb = w2v.value().embeddings();
  for (size_t c = 0; c < 8; ++c) {
    EXPECT_NEAR(bag[c],
                (emb(static_cast<size_t>(a), c) +
                 emb(static_cast<size_t>(b), c)) /
                    2.0f,
                1e-6f);
  }
  const auto empty = w2v.value().EmbedBag({});
  for (float v : empty) EXPECT_EQ(v, 0.0f);
}

TEST(Word2VecTest, RejectsBadConfigAndEmptyCorpus) {
  Vocabulary vocab;
  vocab.GetOrAdd("x");
  Word2VecConfig bad;
  bad.dim = 0;
  EXPECT_FALSE(Word2Vec::Train({{1}}, vocab, bad).ok());
  Word2VecConfig ok_config;
  EXPECT_FALSE(Word2Vec::Train({}, vocab, ok_config).ok());
  Vocabulary empty_vocab;
  EXPECT_FALSE(Word2Vec::Train({{0}}, empty_vocab, ok_config).ok());
}

TEST(Word2VecTest, DeterministicForSeed) {
  Vocabulary vocab;
  const int32_t a = vocab.GetOrAdd("a");
  const int32_t b = vocab.GetOrAdd("b");
  std::vector<std::vector<int32_t>> corpus(20, {a, b, a, b});
  for (const auto& s : corpus) {
    for (int32_t t : s) vocab.CountOccurrence(t);
  }
  Word2VecConfig config;
  config.dim = 4;
  auto first = Word2Vec::Train(corpus, vocab, config);
  auto second = Word2Vec::Train(corpus, vocab, config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(AllClose(first.value().embeddings(),
                       second.value().embeddings(), 1e-7f));
}

}  // namespace
}  // namespace hignn
