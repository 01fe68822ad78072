#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "aeris/core/sampler.hpp"

namespace aeris::core {

/// Resumable per-member rollout cursor: the minimal portable description
/// of "the next forecast step of ensemble member `member` of the request
/// seeded with `seed`". Because every stochastic draw of a forecast step
/// is keyed by (seed, member * kStepsPerMember + step) in the counter-based
/// Philox RNG — never by wall clock, host, thread, or solver history — a
/// cursor can be checked out, executed on any rank of a cluster (or any
/// worker thread of a single process), lost to a worker death, and
/// re-executed elsewhere from the last committed step with bitwise-identical
/// results. This is the contract the distributed serving tier's
/// requeue-on-worker-loss story rests on.
struct MemberCursor {
  std::uint64_t seed = 0;    ///< request seed (pre-salt)
  std::int64_t member = 0;   ///< ensemble member index within the request
  std::int64_t step = 0;     ///< next forecast step to compute
  bool salted = false;       ///< quarantine retry: use the salted stream

  /// Key stride between consecutive members: member m's steps occupy keys
  /// [m * kStepsPerMember, (m + 1) * kStepsPerMember), so trajectories up
  /// to 4096 steps never collide across members (shared by
  /// DiffusionForecaster and ParallelEnsembleEngine).
  static constexpr std::uint64_t kStepsPerMember = 4096;

  /// Throws std::invalid_argument naming `who` when a trajectory of
  /// `n_steps` steps would run past kStepsPerMember, where step
  /// kStepsPerMember of member m would replay step 0 of member m + 1.
  static void check_steps(std::int64_t n_steps, const char* who) {
    if (n_steps > static_cast<std::int64_t>(kStepsPerMember)) {
      throw std::invalid_argument(
          std::string(who) + ": " + std::to_string(n_steps) +
          " steps exceed MemberCursor::kStepsPerMember (" +
          std::to_string(kStepsPerMember) +
          "); later steps would replay the next member's noise");
    }
  }

  /// XORed into the seed for a quarantined member's retry: a fresh,
  /// reproducible Philox stream disjoint from every un-salted request seed
  /// in practice.
  static constexpr std::uint64_t kQuarantineSeedSalt = 0xA1B2C3D4E5F60718ull;

  /// The noise-stream identity of this cursor's step. Bitwise reproducible
  /// anywhere: two executors given equal cursors draw equal streams.
  MemberKey noise_key() const {
    const std::uint64_t s = salted ? (seed ^ kQuarantineSeedSalt) : seed;
    return MemberKey{s, static_cast<std::uint64_t>(member) * kStepsPerMember +
                            static_cast<std::uint64_t>(step)};
  }

  friend bool operator==(const MemberCursor&, const MemberCursor&) = default;
};

}  // namespace aeris::core
