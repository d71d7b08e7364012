// Canonical signatures for robustness queries: the serving layer's cache
// key.
//
// Two uploads of "the same" query should hit one cache entry even when
// they differ by a player relabeling or by per-player affine payoff
// rescaling, because both transformations preserve every (k,t)-robustness
// VERDICT:
//
//   - AFFINE INVARIANCE: for each player i, replacing u_i by
//     a_i * u_i + b_i with a_i > 0 preserves the sign of every payoff
//     comparison the checkers make (gain tests compare two payoffs of the
//     SAME player; immunity compares a player's payoff before/after).
//     Canonicalization maps each player's payoffs through the positive
//     affine map sending [min_i, max_i] to [0, 1] (constant payoffs map
//     to 0), which is the unique such normal form, and holds the result
//     as 64-bit integers over the player's least common denominator.
//   - PERMUTATION INVARIANCE: relabeling players (carrying the payoff
//     tensor, the candidate profile, and the action counts along)
//     permutes coalitions/faulty sets bijectively, so the quantified
//     verdict is unchanged. Canonicalization sorts players by an
//     invariant key (action count, candidate strategy, denominator, and
//     an order-independent fingerprint of the normalized payoff
//     multiset); ties keep the original order.
//   - SYMMETRY FOLDING: players tied on that key are the only candidates
//     for exchangeability, so without a tie the dense key is built
//     straight from the integer table. With one, when
//     game::SymmetryGroup::detect finds a non-trivial symmetry of the
//     NORMALIZED tensor (refined by the candidate so classes share one
//     strategy), the key collapses to the QUOTIENT bytes — class
//     sizes/actions, per-class strategies, orbit-indexed representative
//     payoffs, classes in a label-invariant order ("sym:" tag). The
//     quotient determines the game up to within-class relabeling and
//     such relabelings preserve every verdict (the
//     core/robust/orbit_sweep.h reduction), so two uploads of one
//     symmetric game share a cache entry whose key is orbit-sized, not
//     tensor-sized.
//
// SOUNDNESS vs BEST-EFFORT: the cache key is the full canonical byte
// serialization (a compact varint encoding, compared but never parsed),
// so equal keys imply identical normalized queries and therefore equal
// verdicts — memoization can never serve a wrong answer. Equivalent games
// the normal form fails to identify (tied sort keys, or the raw fallback
// below) merely MISS the cache and recompute. Witness details (who
// deviates, payoff values) are NOT invariant under these maps, which is
// why the serve layer caches verdicts, not violations.
//
// The exact normalization may not fit in 64 bits (a common denominator
// or a scaled payoff overflows); the signature then serializes the raw
// payoffs in upload order and tags the key ("raw:") so normalized and raw
// signatures can never collide.
#pragma once

#include <cstddef>
#include <string>

#include "core/robust/robustness.h"
#include "game/normal_form.h"
#include "game/strategy.h"

namespace bnash::serve {

struct CanonicalSignature final {
    // Byte serialization of the canonicalized (game, candidate) pair.
    std::string bytes;
    // False when a 64-bit overflow forced the raw-payoff fallback.
    bool normalized = true;
};

// Signature of the (game, candidate profile) pair alone. The profile must
// be a valid exact mixed profile for the game.
[[nodiscard]] CanonicalSignature canonical_signature(const game::NormalFormGame& game,
                                                     const game::ExactMixedProfile& profile);

// Full cache key: the pair signature plus the query parameters (k, t,
// gain criterion).
[[nodiscard]] std::string canonical_key(const game::NormalFormGame& game,
                                        const game::ExactMixedProfile& profile, std::size_t k,
                                        std::size_t t, core::GainCriterion criterion);

}  // namespace bnash::serve
