#include "data/topic_tree.h"

#include <deque>

#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {

namespace {

// Readable labels recycled across the tree so the Fig. 5 case-study bench
// prints a plausible e-commerce taxonomy. Inspired by the paper's example
// ('Healthy Home' -> 'Beauty Products' -> 'Cosmetics' -> ...).
constexpr const char* kTopicNames[] = {
    "healthy home",     "beauty products",  "smart home",
    "kitchen equipment", "disposable items", "environmental test",
    "massage treatment", "health care",      "cosmetics",
    "male care",         "sports health",    "basic care",
    "facial products",   "hair care",        "eye makeup",
    "hydration product", "chinese medicine", "household cleaning",
    "clean care",        "baby bathroom",    "outdoor activities",
    "trip to beach",     "beach dress",      "sunglasses",
    "sunblock",          "sneakers",         "women clothing",
    "men clothing",      "digital gadgets",  "pet supplies",
    "home textile",      "office supplies",  "fresh food",
    "snack drinks",      "fitness gear",     "camping tools",
    "car accessories",   "garden plants",    "toys puzzles",
    "books stationery",
};
constexpr size_t kNumTopicNames = sizeof(kTopicNames) / sizeof(kTopicNames[0]);

}  // namespace

Result<TopicTree> TopicTree::Generate(const Config& config) {
  if (config.depth < 1 || config.branching < 1 || config.latent_dim < 1) {
    return Status::InvalidArgument(
        "TopicTree: depth, branching, latent_dim must be >= 1");
  }
  Rng rng(config.seed);
  TopicTree tree;
  tree.depth_ = config.depth;
  tree.latent_dim_ = config.latent_dim;

  TopicNode root;
  root.id = 0;
  root.parent = -1;
  root.level = 0;
  root.name = "root";
  root.latent.assign(static_cast<size_t>(config.latent_dim), 0.0f);
  tree.nodes_.push_back(std::move(root));

  size_t name_cursor = 0;
  std::deque<int32_t> frontier{0};
  while (!frontier.empty()) {
    const int32_t parent_id = frontier.front();
    frontier.pop_front();
    const int32_t parent_level = tree.nodes_[parent_id].level;
    if (parent_level >= config.depth) continue;

    float scale = config.root_scale;
    for (int32_t l = 0; l < parent_level; ++l) scale *= config.decay;

    for (int32_t c = 0; c < config.branching; ++c) {
      TopicNode node;
      node.id = static_cast<int32_t>(tree.nodes_.size());
      node.parent = parent_id;
      node.level = parent_level + 1;
      node.name = StrFormat("%s #%d", kTopicNames[name_cursor % kNumTopicNames],
                            node.id);
      ++name_cursor;
      node.latent.resize(static_cast<size_t>(config.latent_dim));
      const auto& parent_latent = tree.nodes_[parent_id].latent;
      for (size_t d = 0; d < node.latent.size(); ++d) {
        node.latent[d] =
            parent_latent[d] + static_cast<float>(rng.Normal(0.0, scale));
      }
      node.conversion_bias =
          tree.nodes_[parent_id].conversion_bias +
          static_cast<float>(
              rng.Normal(0.0, config.bias_scale * scale / config.root_scale));
      // Topic vocabulary: the human-readable name tokens (suffixed with
      // the node id so distinct topics with recycled names stay
      // distinguishable) plus synthetic filler words.
      node.words.reserve(static_cast<size_t>(config.words_per_topic) + 2);
      for (const std::string& token : SplitWhitespace(node.name)) {
        if (token.front() == '#') continue;
        node.words.push_back(StrFormat("%s%d", token.c_str(), node.id));
      }
      for (int32_t w = 0;
           w < config.words_per_topic -
                   static_cast<int32_t>(node.words.size());
           ++w) {
        node.words.push_back(StrFormat("w%d_%d", node.id, w));
      }
      tree.nodes_[parent_id].children.push_back(node.id);
      frontier.push_back(node.id);
      tree.nodes_.push_back(std::move(node));
    }
  }

  for (const auto& node : tree.nodes_) {
    if (node.level == config.depth) tree.leaves_.push_back(node.id);
  }
  HIGNN_CHECK(!tree.leaves_.empty());
  return tree;
}

const TopicNode& TopicTree::node(int32_t id) const {
  HIGNN_CHECK_GE(id, 0);
  HIGNN_CHECK_LT(static_cast<size_t>(id), nodes_.size());
  return nodes_[static_cast<size_t>(id)];
}

int32_t TopicTree::AncestorAtLevel(int32_t id, int32_t level) const {
  int32_t current = id;
  while (node(current).level > level) current = node(current).parent;
  return current;
}

bool TopicTree::IsAncestor(int32_t ancestor, int32_t id) const {
  int32_t current = id;
  for (;;) {
    if (current == ancestor) return true;
    if (current < 0) return false;
    current = node(current).parent;
  }
}

int32_t TopicTree::SampleLeaf(Rng& rng) const {
  return leaves_[rng.UniformInt(leaves_.size())];
}

}  // namespace hignn
