// Player symmetry classes on a GameView, and the quotient game they
// induce — the verdict-preserving transformation behind the orbit sweeps.
//
// A partition of the players into CLASSES is a symmetry of the game when
// every within-class transposition tau satisfies
//     u_{tau(i)}(tau . a) = u_i(a)   for every player i and profile a.
// Equivalently, the payoff of a class-c player depends only on its own
// action and on HOW MANY players of each class play each action (the
// per-class histogram). verify() and detect() check exactly that, in one
// odometer pass over the tensor: every payoff u_i(a) is compared with
// the payoff at the histogram's sorted representative profile, so each
// of the n * |tensor| payoffs is read once. detect() groups players on
// (bucket, action count) into the coarsest candidate; when that candidate
// has at least four joins it checks it in that pass, and when it has
// fewer, or the check fails, it grows classes by pairwise transposition
// checks instead (exchangeability is transitive under conjugation, so the
// greedy path is exact too, at one tensor walk per join, each about a
// quarter of a full pass with two actions). build_quotient()
// tabulates exactly those representative payoffs: for each (class, own
// action), one entry per util::OrbitWalker orbit of the OTHER players'
// per-class action histograms. The quotient determines the full game up
// to relabeling, which makes it both the substrate for the orbit-native
// robustness sweeps (core/robust/orbit_sweep.h) and a canonicalization
// hook: serve/canonical.h folds the quotient bytes into its cache key so
// uploads differing by a player relabeling inside symmetry classes hit
// one cache entry.
//
// detect() is for small tensor-backed views (it compares payoffs across
// the whole tensor); constructed games at large n — where no tensor
// exists — DECLARE their group (e.g. core::AnonymousBinaryGame's single
// class) and build the quotient from closed forms instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "game/game_view.h"
#include "game/payoff_engine.h"
#include "game/strategy.h"
#include "util/audit.h"
#include "util/orbit_walker.h"
#include "util/rational.h"

namespace bnash::game {

class SymmetryGroup final {
public:
    // Every player its own class (the degenerate group: no reduction).
    [[nodiscard]] static SymmetryGroup trivial(std::size_t num_players);
    // All players in one class (anonymous games).
    [[nodiscard]] static SymmetryGroup single_class(std::size_t num_players);
    // A declared partition; validates that it IS a partition of
    // 0..num_players-1 (throws std::invalid_argument otherwise). Classes
    // and members are stored sorted. Declaration is a claim — pair with
    // verify() on tensor-backed views, or with a construction argument
    // (AnonymousBinaryGame) when no tensor exists.
    [[nodiscard]] static SymmetryGroup declared(std::vector<std::vector<std::size_t>> classes,
                                                std::size_t num_players);
    // Payoff-comparison detection on a small tensor-backed view: the
    // coarsest partition whose classes are pairwise exchangeable —
    // maximal and always verified. A candidate grouping by action count
    // with at least four joins is checked by one histogram pass (the
    // whole answer for a symmetric game); with fewer joins, or when a
    // mismatch exits that pass, the classes are grown by exact
    // transposition checks, which cost less per join. Classes ordered by
    // smallest member, members ascending, whichever path answers.
    [[nodiscard]] static SymmetryGroup detect(const GameView& view);
    // The same restricted by a pre-filter: players p and q are only
    // grouped when bucket[p] == bucket[q] (the candidate groups on
    // (bucket, action count)). Splitting by a necessary
    // condition (equal payoff multisets) changes nothing; splitting by a
    // candidate's strategies yields the group refined by that profile,
    // on which the profile is class-constant.
    [[nodiscard]] static SymmetryGroup detect(const GameView& view,
                                              const std::vector<std::size_t>& bucket);

    // One histogram pass over `view` (every payoff against its sorted
    // representative, exiting at the first mismatch); true iff the
    // partition is a symmetry of the game. Classes mixing action counts
    // fail at once.
    [[nodiscard]] bool verify(const GameView& view) const;

    [[nodiscard]] std::size_t num_players() const noexcept { return class_of_.size(); }
    [[nodiscard]] std::size_t num_classes() const noexcept { return classes_.size(); }
    // Sorted members per class; classes ordered by smallest member.
    [[nodiscard]] const std::vector<std::vector<std::size_t>>& classes() const noexcept {
        return classes_;
    }
    [[nodiscard]] std::size_t class_of(std::size_t player) const { return class_of_[player]; }
    // True when every class is a singleton — the orbit path degenerates
    // and callers must route to the dense sweep.
    [[nodiscard]] bool is_trivial() const noexcept;

    // True when every class's members share one strategy — the
    // precondition for orbit-indexed candidate profiles.
    [[nodiscard]] bool class_constant(const ExactMixedProfile& profile) const;
    [[nodiscard]] bool class_constant(const PureProfile& profile) const;

private:
    SymmetryGroup() = default;
    void index_classes();  // fills class_of_ from classes_

    std::vector<std::vector<std::size_t>> classes_;
    std::vector<std::size_t> class_of_;
};

// The quotient of a symmetric game: payoffs at one representative per
// orbit. Indexing: payoff[c][a * others_orbits(c) + r] is the payoff of
// a class-c player playing action `a` when the OTHER n-1 players' per-
// class action histograms form the rank-r orbit of others_walker(c)
// (class c reduced by the one member being evaluated; composition order
// is util::composition_rank's descending lex).
struct QuotientGame final {
    std::vector<std::size_t> class_sizes;
    std::vector<std::size_t> class_actions;
    std::vector<std::vector<util::Rational>> payoff;

    [[nodiscard]] std::size_t num_classes() const noexcept { return class_sizes.size(); }
    [[nodiscard]] std::size_t num_players() const noexcept;
    // Walker over the other players' histograms as seen by one class-c
    // member: one digit per class, class c's size reduced by one.
    [[nodiscard]] util::OrbitWalker others_walker(std::size_t cls) const;
    [[nodiscard]] std::uint64_t others_orbits(std::size_t cls) const;
    // Joint rank of explicit per-class histograms `others` (others[d]
    // has class_actions[d] entries; class `cls` must sum to size-1).
    [[nodiscard]] std::uint64_t rank_others(
        std::size_t cls, const std::vector<std::vector<std::size_t>>& others) const;
    [[nodiscard]] const util::Rational& at(std::size_t cls, std::size_t action,
                                           std::uint64_t others_rank) const {
        BNASH_AUDIT_CHECK(cls < payoff.size() && others_rank < others_orbits_[cls] &&
                              action * others_orbits_[cls] + others_rank <
                                  payoff[cls].size(),
                          "QuotientGame::at: (class, action, others_rank) indexes "
                          "outside the tabulated quotient");
        return payoff[cls][action * others_orbits_[cls] + others_rank];
    }

    // Derived once by build_quotient / finalize().
    std::vector<std::uint64_t> others_orbits_;
    void finalize();  // fills others_orbits_ from sizes/actions
};

// Tabulate the quotient of `view` under `group` by representative
// lookups (one view row per (class, action, orbit)). Requires the group
// to BE a symmetry of the view — verify()/detect() first; payoffs are
// read at representatives, so a non-symmetric view yields a quotient
// that silently misrepresents it.
[[nodiscard]] QuotientGame build_quotient(const GameView& view, const SymmetryGroup& group);

// --- orbit-native PayoffEngine entry points ---------------------------------
// Expected and deviation payoffs of a class-constant profile on a
// symmetric view, computed by ONE weighted quotient walk per class —
// sum over orbits of multiplicity * prod sigma^h — instead of a
// prod|A| dense sweep. Exact results EQUAL the dense engine's
// (normalized rationals; order-independent); the double mirror agrees
// to rounding only (summation order differs) and is cross-checked in
// the tests, not bit-asserted. Throws std::invalid_argument when the
// profile is not class-constant, std::overflow_error when an orbit
// multiplicity exceeds 64 bits.
[[nodiscard]] std::vector<util::Rational> expected_payoffs_exact_orbit(
    const GameView& view, const SymmetryGroup& group, const ExactMixedProfile& profile);
[[nodiscard]] ExactDeviationTable deviation_payoffs_all_exact_orbit(
    const GameView& view, const SymmetryGroup& group, const ExactMixedProfile& profile);
[[nodiscard]] std::vector<double> expected_payoffs_orbit(const GameView& view,
                                                         const SymmetryGroup& group,
                                                         const MixedProfile& profile);
[[nodiscard]] DeviationTable deviation_payoffs_all_orbit(const GameView& view,
                                                         const SymmetryGroup& group,
                                                         const MixedProfile& profile);

// Quotient-direct variants for games with no tensor (large-n declared
// groups): per-CLASS expected payoffs / deviation rows, weights from
// orbit multiplicities. sigma[c] is the strategy every class-c member
// plays.
[[nodiscard]] std::vector<util::Rational> class_expected_payoffs_exact(
    const QuotientGame& quotient, const std::vector<ExactMixedStrategy>& sigma);
[[nodiscard]] ExactDeviationTable class_deviation_payoffs_exact(
    const QuotientGame& quotient, const std::vector<ExactMixedStrategy>& sigma);

}  // namespace bnash::game
