// Stride-indexed payoff engine: single-sweep expected and deviation
// payoffs over the payoff tensor.
//
// Every solution concept in the paper — Nash regret, epsilon-equilibria,
// (k,t)-robustness — reduces to repeated expected-utility and
// deviation-payoff evaluations. The seed implementation walked the whole
// tensor once per (player, action) and re-derived each profile's rank
// from scratch (O(players) per lookup), making best_responses, regret and
// the learning dynamics O(actions x profiles x players^2). This engine:
//
//   - precomputes row-major strides (and the per-digit cell-offset tables
//     the shared util::OffsetWalker consumes) so ranks update in O(1) per
//     odometer step and coalition deviations re-rank in O(|coalition|);
//   - computes ALL deviation payoffs for ALL players in ONE sweep via
//     marginalization: for each profile, prefix/suffix probability
//     products give weight_excluding(i) for every i in O(players), and
//     each accumulates into dev[i][a_i];
//   - runs the same kernel over the double mirror and the exact Rational
//     tensor (the robustness checkers must not see floating point);
//   - above kParallelBlock profiles, splits the sweep into fixed-size
//     contiguous blocks dispatched to util::global_pool(). Block
//     decomposition is independent of worker count and partial tables are
//     merged in block order, so results are bit-identical whether the
//     sweep ran serial or threaded.
//
// The engine sweeps a GameView: the identity view of a NormalFormGame
// (which converts implicitly), an action-restricted subgame, or a
// player-permuted slice — all zero-copy, the walker stepping the view's
// cell-offset tables straight into the parent tensor. A view whose
// player map is the identity (every dense game and its restrictions)
// reads each payoff row directly; a permuted view reads through its
// player column map. Results on a view are bit-identical to an engine on
// view.materialize(). The engine OWNS its view by value, so an engine
// built from a converted game holds no dangling view; only the parent
// game must outlive it. Construction costs one view build (index tables,
// no tensor copy); solvers on hot loops construct one per run and call
// deviation_payoffs_all once per iteration instead of once per action.
//
// SPARSE-SUPPORT sweeps: the *_sparse entry points walk only the support
// of the mixed profile (radix = |supp(sigma_i)| per digit), turning sweep
// cost from prod |A_i| into prod |supp(sigma_i)| — with per-player
// full-range digits for the deviation table, incremental prefix-product
// weight updates (only digits at or above the walker's lowest changed
// digit recompute), and partial accumulators cut at EXACTLY the dense
// sweep's kParallelBlock boundaries. Dense sweeps skip zero-weight
// profiles and the sparse walk enumerates precisely the non-skipped ones
// in the same order with the same merge grouping, so sparse results are
// BIT-IDENTICAL to the dense entry points in every mode (asserted by
// test_payoff_engine and the robustness fuzz suite).
#pragma once

#include <cstdint>
#include <vector>

#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/strategy.h"
#include "util/rational.h"

namespace bnash::util {
class OffsetWalker;
}  // namespace bnash::util

namespace bnash::game {

// dev[player][action]: expected utility of `player` deviating to `action`
// while everyone else follows the profile the table was computed from.
using DeviationTable = std::vector<std::vector<double>>;
using ExactDeviationTable = std::vector<std::vector<util::Rational>>;

// How a sweep executes. kAuto uses the global pool above the block
// threshold; kSerial forces inline execution (same block decomposition,
// so results are identical — used by the determinism tests and benches).
enum class SweepMode { kAuto, kSerial };

class PayoffEngine final {
public:
    // Profiles per parallel block. Fixed (not derived from worker count)
    // so that threaded and serial sweeps merge identically.
    static constexpr std::uint64_t kParallelBlock = std::uint64_t{1} << 14;

    // Profiles are indexed in VIEW action space.
    explicit PayoffEngine(GameView view);

    [[nodiscard]] const GameView& view() const noexcept { return view_; }
    // Row-major strides of the view's action counts.
    [[nodiscard]] const std::vector<std::uint64_t>& strides() const noexcept {
        return strides_;
    }

    // Row-major rank via strides; O(players), no allocation.
    [[nodiscard]] std::uint64_t rank_of(const PureProfile& profile) const;

    // --- double mirror -----------------------------------------------------
    [[nodiscard]] std::vector<double> expected_payoffs(const MixedProfile& profile,
                                                       SweepMode mode = SweepMode::kAuto) const;
    [[nodiscard]] double expected_payoff(const MixedProfile& profile,
                                         std::size_t player) const;
    [[nodiscard]] DeviationTable deviation_payoffs_all(
        const MixedProfile& profile, SweepMode mode = SweepMode::kAuto) const;
    // One player's full deviation row (all of that player's actions).
    [[nodiscard]] std::vector<double> deviation_row(const MixedProfile& profile,
                                                    std::size_t player) const;

    // --- exact tensor ------------------------------------------------------
    [[nodiscard]] std::vector<util::Rational> expected_payoffs_exact(
        const ExactMixedProfile& profile, SweepMode mode = SweepMode::kAuto) const;
    [[nodiscard]] util::Rational expected_payoff_exact(const ExactMixedProfile& profile,
                                                       std::size_t player) const;
    [[nodiscard]] ExactDeviationTable deviation_payoffs_all_exact(
        const ExactMixedProfile& profile, SweepMode mode = SweepMode::kAuto) const;
    [[nodiscard]] std::vector<util::Rational> deviation_row_exact(
        const ExactMixedProfile& profile, std::size_t player) const;

    // --- sparse-support sweeps ----------------------------------------------
    // Walk only the profile's support; results bit-identical to the dense
    // siblings above (see the class comment for the alignment argument).
    [[nodiscard]] std::vector<double> expected_payoffs_sparse(
        const MixedProfile& profile, SweepMode mode = SweepMode::kAuto) const;
    [[nodiscard]] double expected_payoff_sparse(const MixedProfile& profile,
                                                std::size_t player) const;
    [[nodiscard]] DeviationTable deviation_payoffs_all_sparse(
        const MixedProfile& profile, SweepMode mode = SweepMode::kAuto) const;
    [[nodiscard]] std::vector<util::Rational> expected_payoffs_exact_sparse(
        const ExactMixedProfile& profile, SweepMode mode = SweepMode::kAuto) const;
    [[nodiscard]] util::Rational expected_payoff_exact_sparse(
        const ExactMixedProfile& profile, std::size_t player) const;
    [[nodiscard]] ExactDeviationTable deviation_payoffs_all_exact_sparse(
        const ExactMixedProfile& profile, SweepMode mode = SweepMode::kAuto) const;

    // --- derived quantities ------------------------------------------------
    [[nodiscard]] std::vector<std::size_t> best_responses(const MixedProfile& profile,
                                                          std::size_t player,
                                                          double tol) const;
    [[nodiscard]] double regret(const MixedProfile& profile) const;

    // From a precomputed table: callers doing several queries per sweep
    // (fictitious play needs regret AND best responses every iteration).
    [[nodiscard]] static double regret_from(const DeviationTable& dev,
                                            const MixedProfile& profile);
    [[nodiscard]] static std::vector<std::size_t> best_responses_from(
        const std::vector<double>& row, double tol);

private:
    GameView view_;
    std::vector<std::uint64_t> strides_;
};

// --- shared sparse-support plan ---------------------------------------------
// The support restriction behind every *_sparse sweep, exposed so other
// sweep engines (the robustness CoalitionSweep's sparse coalition scans)
// build it ONCE per sweep instead of once per expected-payoff call: each
// player's support actions in ascending order plus the matching slice of
// its cell-offset column, ready to feed util::OffsetWalker digits. A
// `full_player` (kNoFullPlayer for none) keeps its whole action range —
// the deviating player of a deviation-row sweep. Offset tables live in
// the plan; the plan must outlive any walker built over them.
struct SupportPlan final {
    static constexpr std::size_t kNoFullPlayer = static_cast<std::size_t>(-1);

    std::vector<std::vector<std::size_t>> actions;    // support actions, ascending
    std::vector<std::vector<std::uint64_t>> offsets;  // cell offsets at those actions
    std::vector<std::size_t> radices;                 // actions[p].size()
    std::uint64_t num_tuples = 0;
    bool dead = false;  // some support (other than full_player's) is empty

    // Walker over every plan digit, in player order.
    [[nodiscard]] util::OffsetWalker make_walker() const;
};

// Plan over a view's cell-offset columns for an exact candidate profile
// (the robustness engine's case; the engine's double-mirror plans stay
// private to the sweep kernels).
[[nodiscard]] SupportPlan build_support_plan(
    const GameView& view, const ExactMixedProfile& profile,
    std::size_t full_player = SupportPlan::kNoFullPlayer);

// Plan over an explicit product distribution against caller-supplied flat
// strides: support = actions with positive probability, offsets[p][s] =
// actions[p][s] * strides[p]. This is the entry point for sweeps over
// tensors the GameView layer does not wrap — the machine-game expected
// utility walks a Bayesian action slice with strides =
// BayesianGame::action_rank_strides().
[[nodiscard]] SupportPlan build_support_plan_from_dists(
    const std::vector<std::vector<double>>& dists,
    const std::vector<std::uint64_t>& strides);

// Reference implementations with the seed's per-action full-tensor
// complexity. Golden baselines for the equivalence tests and the
// speedup benchmarks; not for production call sites.
namespace naive {

[[nodiscard]] double deviation_payoff(const NormalFormGame& game, const MixedProfile& profile,
                                      std::size_t player, std::size_t action);
[[nodiscard]] util::Rational deviation_payoff_exact(const NormalFormGame& game,
                                                    const ExactMixedProfile& profile,
                                                    std::size_t player, std::size_t action);
[[nodiscard]] DeviationTable deviation_payoffs_all(const NormalFormGame& game,
                                                   const MixedProfile& profile);

}  // namespace naive

}  // namespace bnash::game
