// hignn_tanh_sweep — exhaustive check of the simd::Tanh kernel.
//
// Runs every float bit pattern (all 2^32) through the scalar glibc tanhf
// port and through the dispatched vector path, on the global pool (one
// worker per hardware thread), and fails (exit 1) on any scalar != SIMD
// bit mismatch. It also reports how many results differ from the host
// libm's std::tanh, with the libc version: the port reproduces glibc 2.36
// exactly, so on that libm the count is 0, and elsewhere it measures how
// far the old libm-dependent bits were from the ones training now uses.
//
//   hignn_tanh_sweep
//
// Takes no arguments. Prints one summary line per check plus up to three
// example inputs.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "nn/simd.h"
#include "util/thread_pool.h"

namespace hignn {
namespace {

constexpr uint64_t kAllInputs = uint64_t{1} << 32;
constexpr uint64_t kBlock = uint64_t{1} << 16;  // inputs per kernel call
constexpr size_t kChunks = 256;                  // fixed merge layout
constexpr size_t kExamples = 3;

std::string LibcVersion() {
#if defined(__GLIBC__)
  return std::string("glibc ") + gnu_get_libc_version();
#else
  return "non-glibc libm";
#endif
}

struct Tally {
  uint64_t checked = 0;
  uint64_t simd_mismatches = 0;
  uint64_t libm_mismatches = 0;
  std::vector<uint32_t> simd_examples;
  std::vector<uint32_t> libm_examples;
};

void Note(std::vector<uint32_t>& examples, uint32_t bits) {
  if (examples.size() < kExamples) examples.push_back(bits);
}

// Sweeps the inputs whose bit patterns are in [lo, hi).
Tally SweepRange(uint64_t lo, uint64_t hi) {
  Tally tally;
  std::vector<float> input(kBlock);
  std::vector<float> scalar(kBlock);
  std::vector<float> dispatched(kBlock);
  for (uint64_t b0 = lo; b0 < hi; b0 += kBlock) {
    const size_t count = static_cast<size_t>(std::min(kBlock, hi - b0));
    for (size_t i = 0; i < count; ++i) {
      input[i] = std::bit_cast<float>(static_cast<uint32_t>(b0 + i));
    }
    scalar.assign(input.begin(), input.begin() + count);
    dispatched.assign(input.begin(), input.begin() + count);
    simd::internal::TanhScalar(scalar.data(), count);
    simd::Tanh(dispatched.data(), count);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t in_bits = std::bit_cast<uint32_t>(input[i]);
      const uint32_t want = std::bit_cast<uint32_t>(scalar[i]);
      if (std::bit_cast<uint32_t>(dispatched[i]) != want) {
        ++tally.simd_mismatches;
        Note(tally.simd_examples, in_bits);
      }
      if (std::bit_cast<uint32_t>(std::tanh(input[i])) != want) {
        ++tally.libm_mismatches;
        Note(tally.libm_examples, in_bits);
      }
    }
    tally.checked += count;
  }
  return tally;
}

void PrintExamples(const std::vector<uint32_t>& examples, bool with_simd) {
  for (uint32_t bits : examples) {
    const float x = std::bit_cast<float>(bits);
    float port = x;
    simd::internal::TanhScalar(&port, 1);
    std::printf("    x=0x%08x port=0x%08x", bits,
                std::bit_cast<uint32_t>(port));
    if (with_simd) {
      std::vector<float> lanes(8, x);  // a full vector, not the scalar tail
      simd::Tanh(lanes.data(), lanes.size());
      std::printf(" simd=0x%08x", std::bit_cast<uint32_t>(lanes[0]));
    } else {
      std::printf(" std::tanh=0x%08x",
                  std::bit_cast<uint32_t>(std::tanh(x)));
    }
    std::printf("\n");
  }
}

int Run() {
  std::vector<Tally> partial(kChunks);
  GlobalThreadPool().ParallelForChunks(
      0, static_cast<size_t>(kAllInputs), kChunks,
      [&](size_t chunk, size_t lo, size_t hi) {
        partial[chunk] = SweepRange(lo, hi);
      });
  Tally sum;
  for (const Tally& t : partial) {
    sum.checked += t.checked;
    sum.simd_mismatches += t.simd_mismatches;
    sum.libm_mismatches += t.libm_mismatches;
    for (uint32_t bits : t.simd_examples) Note(sum.simd_examples, bits);
    for (uint32_t bits : t.libm_examples) Note(sum.libm_examples, bits);
  }

  std::printf("inputs checked: %llu\n",
              static_cast<unsigned long long>(sum.checked));
  std::printf("scalar vs %s: %llu mismatches\n", simd::PathName(),
              static_cast<unsigned long long>(sum.simd_mismatches));
  PrintExamples(sum.simd_examples, /*with_simd=*/true);
  std::printf("scalar vs std::tanh (%s): %llu mismatches\n",
              LibcVersion().c_str(),
              static_cast<unsigned long long>(sum.libm_mismatches));
  PrintExamples(sum.libm_examples, /*with_simd=*/false);
  return sum.simd_mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hignn

int main() { return hignn::Run(); }
