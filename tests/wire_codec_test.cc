// Wire codec tests (serve/wire.h): every verb round-trips in both
// directions, traced and untraced; every earlier request layout is
// rejected by length; and a seeded mutation harness feeds truncated,
// extended and bit-flipped frames to both decoders, which must either
// reject them with InvalidArgument or accept exactly the bytes they
// would encode. Part of the robustness binary, so the ASan and UBSan
// legs run it.

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/event_log.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace hignn {
namespace {

constexpr uint64_t kRequestId = 0x0123456789ABCDEFull;

constexpr WireVerb kVerbs[] = {
    WireVerb::kScore,  WireVerb::kTopK,    WireVerb::kHealth,
    WireVerb::kStats,  WireVerb::kReload,  WireVerb::kMetrics,
    WireVerb::kTraceDump};

// A request with a representative body for `verb`.
WireRequest SampleRequest(WireVerb verb, uint64_t request_id) {
  WireRequest request(verb);
  request.pairs = {{3, 7}, {0, 0}, {-1, 2147483647}};
  request.user = 42;
  request.k = 10;
  request.beam = -1;
  request.store_path = "/stores/next.hgnnstore";
  request.request_id = request_id;
  if (verb != WireVerb::kScore) request.pairs.clear();
  if (verb != WireVerb::kTopK) request.user = request.k = request.beam = 0;
  if (verb != WireVerb::kReload) request.store_path.clear();
  return request;
}

// A kOk reply to `request` with a representative body and, for a traced
// request, distinct stamps.
WireReply SampleReply(const WireRequest& request) {
  WireReply reply;
  switch (request.verb) {
    case WireVerb::kScore:
      reply.scores = {0.25f, -0.0f, 1e-30f};
      break;
    case WireVerb::kTopK:
      reply.top = {{9, 0.75f}, {4, 0.5f}};
      break;
    case WireVerb::kHealth:
    case WireVerb::kReload:
      reply.generation = 7;
      break;
    default:
      reply.text = "{\"verbs\": {}}\n";
      break;
  }
  if (request.request_id != 0) {
    reply.trace.request_id = request.request_id;
    for (size_t phase = 0; phase < obs::kNumPhases; ++phase) {
      reply.trace.stamps[phase] = 1000 + static_cast<int64_t>(phase);
    }
    reply.trace.stamps[obs::kPhaseReplyFlushed] = -1;
  }
  return reply;
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, 4) == 0; }

void ExpectSameRequest(const WireRequest& a, const WireRequest& b) {
  EXPECT_EQ(a.verb, b.verb);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].user, b.pairs[i].user) << "pair " << i;
    EXPECT_EQ(a.pairs[i].item, b.pairs[i].item) << "pair " << i;
  }
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.beam, b.beam);
  EXPECT_EQ(a.store_path, b.store_path);
  EXPECT_EQ(a.request_id, b.request_id);
}

void ExpectSameReply(const WireReply& a, const WireReply& b) {
  EXPECT_EQ(a.status, b.status);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_TRUE(SameBits(a.scores[i], b.scores[i])) << "score " << i;
  }
  ASSERT_EQ(a.top.size(), b.top.size());
  for (size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].item, b.top[i].item) << "rank " << i;
    EXPECT_TRUE(SameBits(a.top[i].score, b.top[i].score)) << "rank " << i;
  }
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.trace.request_id, b.trace.request_id);
  for (size_t phase = 0; phase < obs::kNumPhases; ++phase) {
    EXPECT_EQ(a.trace.stamps[phase], b.trace.stamps[phase]) << phase;
  }
}

// Little-endian frame builder for layouts the codec does not write.
class RawFrame {
 public:
  explicit RawFrame(WireVerb verb) { bytes_.push_back(static_cast<char>(verb)); }
  RawFrame& U8(uint8_t value) {
    bytes_.push_back(static_cast<char>(value));
    return *this;
  }
  RawFrame& U32(uint32_t value) { return Little(value, 4); }
  RawFrame& U64(uint64_t value) { return Little(value, 8); }
  RawFrame& Text(const std::string& value) {
    U32(static_cast<uint32_t>(value.size()));
    bytes_.insert(bytes_.end(), value.begin(), value.end());
    return *this;
  }
  const std::vector<char>& bytes() const { return bytes_; }

 private:
  RawFrame& Little(uint64_t value, int width) {
    for (int b = 0; b < width; ++b) {
      bytes_.push_back(static_cast<char>((value >> (8 * b)) & 0xffu));
    }
    return *this;
  }
  std::vector<char> bytes_;
};

TEST(WireCodecTest, EveryVerbRoundTripsInBothDirections) {
  for (const WireVerb verb : kVerbs) {
    for (const uint64_t request_id : {uint64_t{0}, kRequestId}) {
      SCOPED_TRACE(testing::Message() << "verb " << static_cast<int>(verb)
                                      << " request_id " << request_id);
      const WireRequest request = SampleRequest(verb, request_id);
      const std::vector<char> request_bytes = EncodeRequest(request);
      const WireRequest decoded = DecodeRequest(request_bytes).ValueOrDie();
      ExpectSameRequest(decoded, request);
      EXPECT_EQ(EncodeRequest(decoded), request_bytes);

      const WireReply reply = SampleReply(request);
      const std::vector<char> reply_bytes = EncodeReply(request, reply);
      const WireReply decoded_reply =
          DecodeReply(request, reply_bytes).ValueOrDie();
      ExpectSameReply(decoded_reply, reply);
      EXPECT_EQ(EncodeReply(request, decoded_reply), reply_bytes);

      // The trace rides on exactly the traced kOk replies.
      WireRequest untraced = request;
      untraced.request_id = 0;
      const size_t trace_bytes = request_id != 0 ? 8 + 8 * obs::kNumPhases : 0;
      EXPECT_EQ(reply_bytes.size(),
                EncodeReply(untraced, SampleReply(untraced)).size() +
                    trace_bytes);
      WireReply error;
      error.status = WireStatus::kOverloaded;
      error.text = "overloaded: 9 rows queued";
      const std::vector<char> error_bytes = EncodeReply(request, error);
      EXPECT_EQ(error_bytes.size(), 1 + 4 + error.text.size());
      ExpectSameReply(DecodeReply(request, error_bytes).ValueOrDie(), error);
    }
  }
}

TEST(WireCodecTest, EveryEarlierRequestLayoutIsRejectedByLength) {
  constexpr uint8_t kTag = 0x52;  // the request-ID tag byte of old frames
  std::vector<std::vector<char>> legacy;
  for (const uint32_t n : {0u, 1u, 3u}) {
    // kScore: u32 n, n x (user, item) — with item 0, the frame a layout
    // with the ID right after the verb would misread as 0 pairs.
    RawFrame score(WireVerb::kScore);
    score.U32(n);
    for (uint32_t i = 0; i < n; ++i) score.U32(i).U32(0);
    legacy.push_back(score.bytes());
    score.U8(kTag).U64(kRequestId);
    legacy.push_back(score.bytes());
  }
  // kTopK at 9, 13, 18 and 22 bytes: (user, k) [+ beam] [+ tag, id].
  legacy.push_back(RawFrame(WireVerb::kTopK).U32(3).U32(5).bytes());
  legacy.push_back(RawFrame(WireVerb::kTopK).U32(3).U32(5).U32(0).bytes());
  legacy.push_back(
      RawFrame(WireVerb::kTopK).U32(3).U32(5).U8(kTag).U64(kRequestId).bytes());
  legacy.push_back(RawFrame(WireVerb::kTopK)
                       .U32(3)
                       .U32(5)
                       .U32(0)
                       .U8(kTag)
                       .U64(kRequestId)
                       .bytes());
  // Empty-body verbs as the bare verb byte (health among them), and
  // reload without an ID.
  for (const WireVerb verb : {WireVerb::kHealth, WireVerb::kStats,
                              WireVerb::kMetrics, WireVerb::kTraceDump}) {
    legacy.push_back(RawFrame(verb).bytes());
  }
  legacy.push_back(RawFrame(WireVerb::kReload).Text("").bytes());
  legacy.push_back(RawFrame(WireVerb::kReload).Text("/s.hgnnstore").bytes());

  const std::vector<size_t> topk_sizes = {9, 13, 18, 22};
  size_t topk_seen = 0;
  for (const std::vector<char>& frame : legacy) {
    SCOPED_TRACE(testing::Message() << "verb " << static_cast<int>(frame[0])
                                    << ", " << frame.size() << " bytes");
    const Result<WireRequest> decoded = DecodeRequest(frame);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find(
                  StrFormat("received %zu", frame.size())),
              std::string::npos)
        << decoded.status().message();
    if (static_cast<WireVerb>(frame[0]) == WireVerb::kTopK) {
      EXPECT_EQ(frame.size(), topk_sizes[topk_seen++]);
      EXPECT_EQ(decoded.status().message(),
                StrFormat("topk request: expected 21 bytes, received %zu",
                          frame.size()));
    }
  }
  EXPECT_EQ(topk_seen, topk_sizes.size());
}

TEST(WireCodecTest, CountsAreBoundedBeforeAnythingIsReserved) {
  // A score count above the row limit, and a maximal count in a short
  // frame: both fail on the numbers alone.
  const Result<WireRequest> over_limit = DecodeRequest(
      RawFrame(WireVerb::kScore).U32(kMaxRequestRows + 1).U64(0).bytes());
  ASSERT_FALSE(over_limit.ok());
  EXPECT_EQ(over_limit.status().code(), StatusCode::kInvalidArgument);
  const Result<WireRequest> short_frame = DecodeRequest(
      RawFrame(WireVerb::kScore).U32(kMaxRequestRows).U64(0).bytes());
  ASSERT_FALSE(short_frame.ok());
  EXPECT_EQ(short_frame.status().code(), StatusCode::kInvalidArgument);

  std::vector<char> topk_reply = {static_cast<char>(WireStatus::kOk)};
  for (int b = 0; b < 4; ++b) topk_reply.push_back(static_cast<char>(0xff));
  const Result<WireReply> reply =
      DecodeReply(WireRequest(WireVerb::kTopK), topk_reply);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);

  // Unknown verbs and statuses, an empty frame, a trace echoing another
  // ID, and a score reply whose count is not the request's are rejected.
  EXPECT_FALSE(DecodeRequest({}).ok());
  EXPECT_FALSE(DecodeRequest(RawFrame(static_cast<WireVerb>(0)).U64(0).bytes())
                   .ok());
  EXPECT_FALSE(DecodeRequest(RawFrame(static_cast<WireVerb>(8)).U64(0).bytes())
                   .ok());
  const WireRequest health = SampleRequest(WireVerb::kHealth, kRequestId);
  std::vector<char> bad_status = EncodeReply(health, SampleReply(health));
  bad_status[0] = 4;
  EXPECT_FALSE(DecodeReply(health, bad_status).ok());
  WireRequest other = health;
  other.request_id = kRequestId + 1;
  EXPECT_FALSE(
      DecodeReply(other, EncodeReply(health, SampleReply(health))).ok());
  const WireRequest score = SampleRequest(WireVerb::kScore, 0);
  WireReply short_reply = SampleReply(score);
  short_reply.scores.pop_back();
  EXPECT_FALSE(DecodeReply(score, EncodeReply(score, short_reply)).ok());
}

// Decoding `bytes` either fails with InvalidArgument or yields a value
// that encodes back to exactly `bytes`.
void ExpectRejectedOrExact(const std::vector<char>& bytes,
                           const WireRequest* reply_to) {
  if (reply_to == nullptr) {
    const Result<WireRequest> request = DecodeRequest(bytes);
    if (!request.ok()) {
      ASSERT_EQ(request.status().code(), StatusCode::kInvalidArgument)
          << request.status().ToString();
      return;
    }
    ASSERT_EQ(EncodeRequest(request.value()), bytes);
    return;
  }
  const Result<WireReply> reply = DecodeReply(*reply_to, bytes);
  if (!reply.ok()) {
    ASSERT_EQ(reply.status().code(), StatusCode::kInvalidArgument)
        << reply.status().ToString();
    return;
  }
  ASSERT_EQ(EncodeReply(*reply_to, reply.value()), bytes);
}

TEST(WireCodecTest, SeededMutantsAreRejectedOrDecodeExactly) {
  // Seed corpus: every verb's request and kOk reply, traced and untraced,
  // plus one error reply per verb.
  struct Seed {
    std::vector<char> bytes;
    WireRequest request;
    bool is_reply;
  };
  std::vector<Seed> corpus;
  for (const WireVerb verb : kVerbs) {
    for (const uint64_t request_id : {uint64_t{0}, kRequestId}) {
      const WireRequest request = SampleRequest(verb, request_id);
      corpus.push_back({EncodeRequest(request), request, false});
      corpus.push_back(
          {EncodeReply(request, SampleReply(request)), request, true});
    }
    WireReply error;
    error.status = WireStatus::kBadRequest;
    error.text = "bad";
    const WireRequest request = SampleRequest(verb, kRequestId);
    corpus.push_back({EncodeReply(request, error), request, true});
  }

  Rng rng(0x5EEDF00D);
  size_t mutants = 0;
  for (const Seed& seed : corpus) {
    const WireRequest* reply_to = seed.is_reply ? &seed.request : nullptr;
    ExpectRejectedOrExact(seed.bytes, reply_to);
    // Every truncation.
    for (size_t size = 0; size < seed.bytes.size(); ++size) {
      ExpectRejectedOrExact(
          std::vector<char>(seed.bytes.begin(), seed.bytes.begin() + size),
          reply_to);
      ++mutants;
    }
    // 1 to 16 appended bytes, four random tails each.
    for (size_t extra = 1; extra <= 16; ++extra) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<char> mutant = seed.bytes;
        for (size_t b = 0; b < extra; ++b) {
          mutant.push_back(static_cast<char>(rng.UniformInt(256)));
        }
        ExpectRejectedOrExact(mutant, reply_to);
        ++mutants;
      }
    }
    // 1 to 4 flipped bits, 80 random mutants each.
    for (int flips = 1; flips <= 4; ++flips) {
      for (int trial = 0; trial < 80; ++trial) {
        std::vector<char> mutant = seed.bytes;
        for (int f = 0; f < flips; ++f) {
          const size_t bit = rng.UniformInt(mutant.size() * 8);
          mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
        }
        ExpectRejectedOrExact(mutant, reply_to);
        ++mutants;
      }
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(mutants, 10000u);
}

}  // namespace
}  // namespace hignn
