#ifndef HIGNN_SERVE_REQUEST_ID_H_
#define HIGNN_SERVE_REQUEST_ID_H_

#include <cstdint>

namespace hignn {

/// \brief The n-th request ID of the stream seeded by `seed` (DESIGN.md
/// §17). IDs must be unique enough to join client logs with server
/// exemplars, yet the wire bytes must stay reproducible run-over-run so
/// the serve tests and chaos harness can assert on them — so an ID is a
/// pure function of (seed, n): no wall clock, no std::random_device, no
/// global state. It is the one sanctioned entropy source in `src/serve/`
/// (hignn_lint's nondet-source rule lists exactly this pair of files).
///
/// The mix is the splitmix64 finalizer, the same one seeding util/rng.h:
/// consecutive counters map to well-spread 64-bit values, and the zero
/// output (which the wire reserves to mean "untraced") is remapped, so
/// the result is never 0.
uint64_t DeriveRequestId(uint64_t seed, uint64_t n);

}  // namespace hignn

#endif  // HIGNN_SERVE_REQUEST_ID_H_
