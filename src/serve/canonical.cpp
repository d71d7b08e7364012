#include "serve/canonical.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "game/game_view.h"
#include "game/symmetry.h"
#include "util/rational.h"

namespace bnash::serve {

namespace {

using util::Rational;
__extension__ typedef __int128 Int128;  // GCC/Clang extension, pedantic-safe

constexpr Int128 kMaxInt64 = std::numeric_limits<std::int64_t>::max();
constexpr Int128 kMinInt64 = std::numeric_limits<std::int64_t>::min();

// Keys are compared, never parsed, so they use a compact self-delimiting
// encoding: LEB128 varints, numerators zigzagged.
void append_size(std::string& out, std::uint64_t value) {
    for (; value >= 0x80; value >>= 7) out += static_cast<char>((value & 0x7F) | 0x80);
    out += static_cast<char>(value);
}

void append_rational(std::string& out, const Rational& value) {
    const auto num = static_cast<std::uint64_t>(value.num());
    append_size(out, (num << 1) ^ static_cast<std::uint64_t>(value.num() >> 63));
    append_size(out, static_cast<std::uint64_t>(value.den()));
}

void append_strategy(std::string& out, const std::vector<Rational>& strategy) {
    append_size(out, strategy.size());
    for (const Rational& mass : strategy) append_rational(out, mass);
}

// Every player's payoffs pushed once through the positive affine map
// sending [min, max] to [0, 1] (constant payoffs map to 0), held exactly
// as integers over one denominator per player: the mapped payoff is
// numer[rank * n + player] / denom[player], where denom is the least
// common denominator of that player's mapped payoffs. The pair is a
// function of the mapped payoffs alone, so relabeled or rescaled uploads
// produce the same integers. nullopt when an intermediate does not fit
// in 64 bits.
struct Normalized final {
    std::vector<std::int64_t> numer;
    std::vector<std::int64_t> denom;
};

[[nodiscard]] std::optional<Normalized> normalize(const game::NormalFormGame& game) {
    const std::size_t n = game.num_players();
    const std::vector<Rational>& raw = game.payoffs_flat();
    Normalized out{std::vector<std::int64_t>(raw.size()), std::vector<std::int64_t>(n, 1)};
    for (std::size_t player = 0; player < n; ++player) {
        std::int64_t lcm = 1;
        for (std::size_t at = player; at < raw.size(); at += n) {
            const std::int64_t den = raw[at].den();
            if (den == 1 || lcm % den == 0) continue;
            const Int128 next = Int128{lcm / std::gcd(lcm, den)} * den;
            if (next > kMaxInt64) return std::nullopt;
            lcm = static_cast<std::int64_t>(next);
        }
        std::int64_t lo = std::numeric_limits<std::int64_t>::max();
        std::int64_t hi = std::numeric_limits<std::int64_t>::min();
        for (std::size_t at = player; at < raw.size(); at += n) {
            const Int128 scaled =
                lcm == 1 ? Int128{raw[at].num()} : Int128{raw[at].num()} * (lcm / raw[at].den());
            if (scaled > kMaxInt64 || scaled < kMinInt64) return std::nullopt;
            out.numer[at] = static_cast<std::int64_t>(scaled);
            lo = std::min(lo, out.numer[at]);
            hi = std::max(hi, out.numer[at]);
        }
        if (Int128{hi} - lo > kMaxInt64) return std::nullopt;
        std::int64_t common = hi - lo;  // 0 for constant payoffs: every value maps to 0
        for (std::size_t at = player; at < raw.size(); at += n) {
            out.numer[at] -= lo;
            if (common != 1) common = std::gcd(common, out.numer[at]);
        }
        if (common > 1) {
            for (std::size_t at = player; at < raw.size(); at += n) out.numer[at] /= common;
        }
        if (common > 0) out.denom[player] = (hi - lo) / common;
    }
    return out;
}

// Order-independent fingerprint of one player's payoff multiset.
[[nodiscard]] std::uint64_t multiset_hash(const Normalized& norm, std::size_t player) {
    const std::size_t n = norm.denom.size();
    std::uint64_t sum = 0;
    for (std::size_t at = player; at < norm.numer.size(); at += n) {
        std::uint64_t x = static_cast<std::uint64_t>(norm.numer[at]) + 0x9E3779B97F4A7C15ULL;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        sum += x ^ (x >> 31);
    }
    return sum;
}

// The players in canonical order, sorted by an invariant key: action
// count, candidate strategy, denominator, payoff-multiset fingerprint.
// Every component survives relabeling and rescaling; ties keep the
// original order (a cache miss, never an unsoundness).
struct Canon final {
    const game::NormalFormGame& game;
    const game::ExactMixedProfile& profile;
    const Normalized& norm;
    std::vector<std::uint64_t> hash;
    std::vector<std::size_t> order;  // canonical position -> player

    Canon(const game::NormalFormGame& g, const game::ExactMixedProfile& p, const Normalized& z)
        : game(g), profile(p), norm(z), hash(g.num_players()), order(g.num_players()) {
        for (std::size_t player = 0; player < hash.size(); ++player) {
            hash[player] = multiset_hash(norm, player);
        }
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [this](std::size_t a, std::size_t b) { return less(a, b); });
    }

    [[nodiscard]] bool less(std::size_t a, std::size_t b) const {
        if (game.num_actions(a) != game.num_actions(b)) {
            return game.num_actions(a) < game.num_actions(b);
        }
        if (profile[a] != profile[b]) return profile[a] < profile[b];
        if (norm.denom[a] != norm.denom[b]) return norm.denom[a] < norm.denom[b];
        return hash[a] < hash[b];
    }
    [[nodiscard]] bool tied(std::size_t a, std::size_t b) const {
        return !less(a, b) && !less(b, a);
    }
};

// Dense signature: the numerators in CANONICAL rank order (last
// canonical player fastest), read by an odometer that carries the
// original rank along, then the strategies.
[[nodiscard]] CanonicalSignature dense_signature(const Canon& canon) {
    const game::NormalFormGame& game = canon.game;
    const std::size_t n = game.num_players();
    std::vector<std::uint64_t> stride(n);
    std::uint64_t step = 1;
    for (std::size_t player = n; player-- > 0;) {
        stride[player] = step;
        step *= game.num_actions(player);
    }

    CanonicalSignature out;
    std::string& bytes = out.bytes;
    bytes.reserve(32 + canon.norm.numer.size());
    bytes = "bnashQ2:nrm:";
    append_size(bytes, n);
    for (const std::size_t player : canon.order) {
        append_size(bytes, game.num_actions(player));
        append_size(bytes, static_cast<std::uint64_t>(canon.norm.denom[player]));
    }
    std::vector<std::size_t> digits(n, 0);
    std::uint64_t rank = 0;
    bool done = false;
    while (!done) {
        for (const std::size_t player : canon.order) {
            append_size(bytes, static_cast<std::uint64_t>(canon.norm.numer[rank * n + player]));
        }
        done = true;
        for (std::size_t j = n; j-- > 0;) {
            const std::size_t player = canon.order[j];
            if (++digits[j] < game.num_actions(player)) {
                rank += stride[player];
                done = false;
                break;
            }
            digits[j] = 0;
            rank -= (game.num_actions(player) - 1) * stride[player];
        }
    }
    for (const std::size_t player : canon.order) append_strategy(bytes, canon.profile[player]);
    return out;
}

// Symmetry-folded signature. Only players tied on the invariant key can
// be exchangeable, and tied players share a denominator, so detection
// runs on the integer numerators directly; since the key includes the
// strategy, it yields the candidate-refined group. When a class is
// non-singleton, the key is the QUOTIENT bytes plus per-class strategies
// instead of the full tensor. Classes are sorted by a label-invariant key
// (size, then the members' shared player key) and the quotient is built
// over a view with the players in that class order, so keys never depend
// on detection's class order. Equal keys imply isomorphic normalized
// games with corresponding class-constant candidates, and the quotient
// determines the game up to within-class relabeling, which preserves
// every verdict (the orbit-sweep reduction). nullopt routes the caller to
// the dense serialization.
[[nodiscard]] std::optional<CanonicalSignature> symmetric_signature(const Canon& canon) {
    const std::size_t n = canon.game.num_players();
    std::vector<std::size_t> bucket(n);
    bool any_tie = false;
    for (std::size_t j = 0; j < n; ++j) {
        const bool joins = j > 0 && canon.tied(canon.order[j - 1], canon.order[j]);
        bucket[canon.order[j]] = joins ? bucket[canon.order[j - 1]] : j;
        any_tie = any_tie || joins;
    }
    // Without a tie no two players can be exchangeable: no tensor needed.
    if (!any_tie) return std::nullopt;
    const game::NormalFormGame tensor(
        canon.game.action_counts(),
        std::vector<Rational>(canon.norm.numer.begin(), canon.norm.numer.end()));
    const game::SymmetryGroup group =
        game::SymmetryGroup::detect(game::GameView::full(tensor), bucket);
    if (group.is_trivial()) return std::nullopt;

    std::vector<std::vector<std::size_t>> classes = group.classes();
    std::stable_sort(classes.begin(), classes.end(), [&canon](const auto& a, const auto& b) {
        if (a.size() != b.size()) return a.size() < b.size();
        return canon.less(a.front(), b.front());
    });
    std::vector<std::size_t> player_order;
    std::vector<std::vector<std::size_t>> blocks;
    for (const auto& members : classes) {
        blocks.emplace_back();
        for (const std::size_t player : members) {
            blocks.back().push_back(player_order.size());
            player_order.push_back(player);
        }
    }
    const game::QuotientGame quotient =
        game::build_quotient(game::GameView::permute(tensor, player_order),
                             game::SymmetryGroup::declared(std::move(blocks), n));

    CanonicalSignature out;
    std::string& bytes = out.bytes;
    bytes = "bnashQ2:sym:nrm:";
    append_size(bytes, quotient.num_classes());
    for (std::size_t j = 0; j < quotient.num_classes(); ++j) {
        const std::size_t rep = classes[j].front();
        append_size(bytes, quotient.class_sizes[j]);
        append_size(bytes, quotient.class_actions[j]);
        append_size(bytes, static_cast<std::uint64_t>(canon.norm.denom[rep]));
        append_strategy(bytes, canon.profile[rep]);
    }
    for (const auto& row : quotient.payoff) {
        append_size(bytes, row.size());
        for (const Rational& value : row) {
            append_size(bytes, static_cast<std::uint64_t>(value.num()));
        }
    }
    return out;
}

}  // namespace

CanonicalSignature canonical_signature(const game::NormalFormGame& game,
                                       const game::ExactMixedProfile& profile) {
    if (const std::optional<Normalized> norm = normalize(game)) {
        const Canon canon(game, profile, *norm);
        try {
            if (auto sym = symmetric_signature(canon)) return *std::move(sym);
        } catch (const std::overflow_error&) {
            // Folding is best-effort: rank arithmetic on degenerate shapes
            // may overflow 64 bits, and that must cost dedup, not the
            // request.
        }
        return dense_signature(canon);
    }
    // The exact normalization does not fit in 64 bits: key the raw payoffs
    // in upload order. The "raw:" tag keeps the two key spaces disjoint,
    // so the fallback only costs dedup, never soundness.
    CanonicalSignature out;
    out.normalized = false;
    out.bytes = "bnashQ2:raw:";
    append_size(out.bytes, game.num_players());
    for (const std::size_t count : game.action_counts()) append_size(out.bytes, count);
    for (const Rational& value : game.payoffs_flat()) append_rational(out.bytes, value);
    for (const auto& strategy : profile) append_strategy(out.bytes, strategy);
    return out;
}

std::string canonical_key(const game::NormalFormGame& game,
                          const game::ExactMixedProfile& profile, std::size_t k, std::size_t t,
                          core::GainCriterion criterion) {
    std::string key = canonical_signature(game, profile).bytes;
    key += "|q:";
    append_size(key, k);
    append_size(key, t);
    append_size(key, static_cast<std::size_t>(criterion));
    return key;
}

}  // namespace bnash::serve
