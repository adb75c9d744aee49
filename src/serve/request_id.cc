#include "serve/request_id.h"

namespace hignn {

uint64_t DeriveRequestId(uint64_t seed, uint64_t n) {
  // splitmix64 finalizer over seed + n * golden-gamma — the standard
  // counter-mode construction (same constants as util/rng.h's seeder).
  uint64_t z = seed + (n + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  // 0 is the wire's "untraced" sentinel; remap the one colliding output.
  return z == 0 ? 0x9E3779B97F4A7C15ULL : z;
}

}  // namespace hignn
