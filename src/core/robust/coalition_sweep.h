// Parallel coalition-sweep engine behind the (k,t)-robustness checkers.
//
// The checkers quantify over coalitions C (and faulty sets T) and, per
// coalition, over every joint pure deviation. Coalition tasks are
// independent, so the sweep:
//
//   - pulls the coalition lists from util::SubsetEnumerator (materialized
//     once per (n, k) and shared across calls — batch probes quantify
//     over the same lists);
//   - dispatches one task per coalition to util::global_pool(), claimed
//     in index order off the pool's atomic counter;
//   - resolves "first violation" deterministically in parallel mode via
//     an atomic lowest-violating-task index: workers skip tasks above the
//     current minimum (early exit), tasks below it always complete, so
//     serial and parallel sweeps return IDENTICAL violations;
//   - scans joint deviations with an incremental mixed-radix odometer
//     that updates the profile's flat payoff-row offset in O(1) per step
//     and reads payoffs by reference — the inner loops of the
//     pure-candidate fast path perform no heap allocation and no
//     per-lookup re-ranking.
//
// TWO-LEVEL parallelism: above kIntraSplitCells joint-deviation cells, a
// single coalition task additionally splits ITS OWN scan into ranged
// util::OffsetWalker blocks (seek() block entry over the combined
// faulty-then-coalition digit space) dispatched to the same pool, with a
// deterministic lowest-RANK winner per task — so one large coalition on
// a big game no longer serializes one core. Nested submissions run
// inline when the outer task level already owns the workers; either way
// the reported violation is the first in enumeration order, bit-
// identical to the serial nested scan.
//
// The sweep is VIEW-NATIVE: it takes a game::GameView (a NormalFormGame
// converts to its identity view) and walks the view's cell-offset
// tables, so the full game, an iterated-elimination reduction, or an
// awareness-restricted slice are all checked zero-copy — no restricted
// tensor is ever materialized. Enumeration order is
// identical to the PR-1 reference checkers in every mode.
//
// Mixed (non-point-mass) candidates run SUPPORT-SPARSE coalition scans: a
// game::SupportPlan over the candidate is built once per sweep, and each
// task walks only prod |supp| joint-deviation cells with incremental
// prefix-product weights (one fused sweep per faulty set instead of one
// expected-payoff sweep per evaluation). Exact arithmetic makes the
// accumulated utilities — and therefore every verdict and witness —
// identical to the per-evaluation fallback they replace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/robust/robustness.h"
#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/payoff_engine.h"
#include "game/strategy.h"

namespace bnash::core {

class CoalitionSweep final {
public:
    // Joint-deviation cells per ranged intra-task block, and the default
    // per-faulty-set scan size above which a task splits. Fixed (not
    // derived from worker count) so the block decomposition — and the
    // lowest-rank winner — is machine-independent.
    static constexpr std::uint64_t kIntraBlock = std::uint64_t{1} << 11;
    static constexpr std::uint64_t kDefaultIntraSplitCells = std::uint64_t{1} << 13;

    // The profile must be a valid exact mixed profile in VIEW action
    // space; the sweep reads the parent tensor through the view's cell
    // offsets. A NormalFormGame converts to its identity view. The view's
    // parent game and the profile must outlive the sweep.
    CoalitionSweep(game::GameView view, const game::ExactMixedProfile& profile);

    // Part (a) of (k,t)-robustness: some T with 1 <= |T| <= t and joint
    // deviation tau_T leaves a player outside T below its candidate
    // payoff. Enumeration order (and thus the reported violation) matches
    // the PR-1 serial checker exactly, in both sweep modes.
    [[nodiscard]] std::optional<RobustnessViolation> immunity_violation(
        std::size_t t, game::SweepMode mode = game::SweepMode::kAuto) const;

    // Part (b): some coalition C with 1 <= |C| <= k gains against some
    // disjoint T with |T| <= t (including T empty).
    [[nodiscard]] std::optional<RobustnessViolation> resilience_violation(
        std::size_t k, std::size_t t, GainCriterion criterion,
        game::SweepMode mode = game::SweepMode::kAuto) const;

    // Parts (a) then (b) — the full (k,t)-robustness check.
    [[nodiscard]] std::optional<RobustnessViolation> robustness_violation(
        std::size_t k, std::size_t t, const RobustnessOptions& options) const;

    // Resumable form: `resume` (nullable) seeks past the task prefix an
    // earlier budgeted run verified, `checkpoint` (nullable) receives the
    // state a further retry needs. The verdict/witness a retry chain
    // produces is bit-identical to one unbudgeted call, and the chain's
    // total work is ~one sweep (each retry re-runs at most the one task
    // the previous grant expired inside). A nullopt return with an
    // expired grant and !checkpoint->finished means "resume me"; with
    // checkpoint->finished it is a proven kRobust.
    [[nodiscard]] std::optional<RobustnessViolation> robustness_violation(
        std::size_t k, std::size_t t, const RobustnessOptions& options,
        const SweepCheckpoint* resume, SweepCheckpoint* checkpoint) const;

    // --- shared-sweep batch probes ------------------------------------------
    // All k = 1..max_k resilience probes in ONE coalition sweep: because
    // subsets_up_to_size orders coalitions by size then lex, the tasks a
    // k-probe enumerates are exactly a PREFIX of the max_k task list, so
    // the first violating task of the batch IS the first violating task
    // of every independent probe whose k covers that coalition's size.
    // One enumerator pass and one deviation odometer replace max_k
    // restarts; per-k verdicts/witnesses are bit-identical to independent
    // find_resilience_violation(k) calls in both sweep modes.
    [[nodiscard]] BatchVerdict batch_resilience(
        std::size_t max_k, GainCriterion criterion = GainCriterion::kAnyMemberGains,
        game::SweepMode mode = game::SweepMode::kAuto) const;

    // Same sharing for t = 1..max_t immunity probes (one baseline
    // computation, one faulty-set sweep).
    [[nodiscard]] BatchVerdict batch_immunity(
        std::size_t max_t, game::SweepMode mode = game::SweepMode::kAuto) const;

    // The FULL k x t grid of (k,t)-robustness verdicts in one size-major
    // coalition sweep. Works because both quantifier orders are prefix-
    // decomposable: faulty sets inside a coalition task are enumerated
    // empty-first then size-major, so a task's FIRST violation (at faulty
    // size s0) is the violation every probe with t >= s0 would have
    // reported, and no probe with t < s0 finds one in that task; and
    // coalitions are size-major, so cell (k, t)'s winner is simply the
    // LOWEST task index with coalition size <= k and s0 <= t. One sweep
    // maintains the per-t-column lowest winner (atomic-min in parallel
    // mode, tasks above every column's winner early-exit) and the t-axis
    // immunity witnesses come from the shared batch_immunity sweep.
    // Per-cell verdicts/witnesses are bit-identical to independent
    // find_robustness_violation(k, t) probes in both sweep modes.
    [[nodiscard]] FrontierVerdict batch_robustness_frontier(
        std::size_t max_k, std::size_t max_t,
        GainCriterion criterion = GainCriterion::kAnyMemberGains,
        game::SweepMode mode = game::SweepMode::kAuto) const;

    // Resumable + streaming form. `resume`/`checkpoint` as in the
    // resumable robustness_violation: a retry chain's assembled grid
    // (core::merge_frontier over the per-run grids) is bit-identical —
    // witnesses included — to one unbudgeted run, because caps, winners,
    // and enumeration order at every task rank are resume-invariant.
    // Columns resolved by earlier runs stay kUnknown in a resumed run's
    // own grid. `on_column` (nullable) streams column verdicts as they
    // become final (see FrontierColumnSink).
    [[nodiscard]] FrontierVerdict batch_robustness_frontier(
        std::size_t max_k, std::size_t max_t, GainCriterion criterion, game::SweepMode mode,
        const SweepCheckpoint* resume, SweepCheckpoint* checkpoint,
        const FrontierColumnSink& on_column = nullptr) const;

    // The maximal robust set within the (max_k, max_t) budget WITHOUT
    // filling the grid: walks the (k, t) boundary anti-diagonally. Step
    // t = 0 resolves kmax(0) in one empty-faulty size-major sweep; step
    // t > 0 rescans NOTHING below the frontier — coalitions of size <=
    // kmax(t-1) are already clean for faulty sizes < t, so the step
    // sweeps them against faulty sets of size EXACTLY t and the first
    // violating task (size s) pins kmax(t) = s - 1. Columns beyond the
    // shared batch_immunity boundary hold no robust cells. Verdicts agree
    // cell-for-cell with batch_robustness_frontier in both sweep modes;
    // only the boundary-adjacent cells are ever RESOLVED (the
    // cells_resolved counter, vs the grid's (max_k+1) x (max_t+1)).
    [[nodiscard]] MaxKtResult max_kt(std::size_t max_k, std::size_t max_t,
                                     GainCriterion criterion = GainCriterion::kAnyMemberGains,
                                     game::SweepMode mode = game::SweepMode::kAuto) const;

    // Resumable boundary walk: the checkpoint carries the accumulated
    // k_of_t prefix and the in-column task rank, so the final retry's
    // MaxKtResult equals (operator==) the unbudgeted walk's.
    [[nodiscard]] MaxKtResult max_kt(std::size_t max_k, std::size_t max_t,
                                     GainCriterion criterion, game::SweepMode mode,
                                     const SweepCheckpoint* resume,
                                     SweepCheckpoint* checkpoint) const;

    // --- intra-task split tuning / test hooks --------------------------------
    // Per-faulty-set joint-scan size (in cells) above which a kAuto task
    // splits into ranged blocks, and the block size used when it does.
    // Process-wide; benches/tests lower them to exercise the split on
    // small games. The block size is fixed per scan (read once at scan
    // entry), so the decomposition stays machine-independent.
    //
    // By default the threshold ADAPTS per sweep: when a sweep already has
    // enough coalition tasks to saturate the pool, splitting only adds
    // seek() overhead, so the default threshold applies; when tasks are
    // scarce (fewer than 2x the workers) the threshold scales DOWN
    // proportionally so big per-task scans still fan out. Calling
    // set_intra_split_cells PINS the given value for every sweep (the
    // legacy behavior tests rely on); set_intra_split_adaptive restores
    // the derivation. Thresholds never change verdicts — only which
    // ranged-block decomposition computes them.
    static void set_intra_split_cells(std::uint64_t cells) noexcept;
    [[nodiscard]] static std::uint64_t intra_split_cells() noexcept;
    static void set_intra_split_adaptive() noexcept;
    [[nodiscard]] static bool intra_split_pinned() noexcept;
    // The threshold a sweep with `num_tasks` top-level tasks whose largest
    // task scans `max_task_cells` cells will use (the pinned value when
    // pinned). Exposed so tests and the orbit engine share the policy.
    [[nodiscard]] static std::uint64_t sweep_intra_split_cells(
        std::size_t num_tasks, std::uint64_t max_task_cells) noexcept;
    static void set_intra_block_cells(std::uint64_t cells) noexcept;
    [[nodiscard]] static std::uint64_t intra_block_cells() noexcept;
    // Split even when the pool has a single executor (the blocks then run
    // inline, in order) — lets single-core hosts pin the ranged-block
    // path's bit-identity.
    static void set_intra_split_force(bool force) noexcept;
    [[nodiscard]] static bool intra_split_force() noexcept;

private:
    // One coalition/faulty-set task; nullopt when the task finds nothing.
    // `mode` gates the intra-task ranged-block split (kAuto only);
    // `split_cells` is the sweep's resolved split threshold, computed once
    // per sweep so every task of a sweep decomposes consistently.
    [[nodiscard]] std::optional<RobustnessViolation> immunity_task(
        const std::vector<std::size_t>& faulty,
        const std::vector<util::Rational>& baseline, game::SweepMode mode,
        std::uint64_t split_cells) const;
    // Scans faulty sets with min_t <= |T| <= max_t (the empty set iff
    // min_t == 0); max_kt's boundary steps use min_t == max_t.
    [[nodiscard]] std::optional<RobustnessViolation> resilience_task(
        const std::vector<std::size_t>& coalition, std::size_t min_t, std::size_t max_t,
        GainCriterion criterion, game::SweepMode mode, std::uint64_t split_cells) const;

    [[nodiscard]] std::vector<util::Rational> immunity_baseline() const;

    // The shared phase-(a) faulty-set sweep with a resume offset: tasks
    // [0, start) are taken as verified by an earlier run. `done` means
    // the phase finished (hit found or every task verified) — the
    // verdict's max_ok is then exact; otherwise next_task is the first
    // unverified rank for the checkpoint.
    struct ImmunityPhase final {
        BatchVerdict verdict;
        std::uint64_t next_task = 0;
        bool done = false;
    };
    [[nodiscard]] ImmunityPhase immunity_phase(std::size_t max_t, game::SweepMode mode,
                                               std::uint64_t start) const;

    // Support-sparse fused scans for mixed candidates (one walk per
    // faulty set over deviator ranges x everyone else's support).
    [[nodiscard]] std::optional<RobustnessViolation> sparse_immunity_task(
        const std::vector<std::size_t>& faulty,
        const std::vector<util::Rational>& baseline) const;
    [[nodiscard]] std::optional<RobustnessViolation> sparse_resilience_scan(
        const std::vector<std::size_t>& coalition, const std::vector<std::size_t>& faulty,
        GainCriterion criterion) const;

    game::GameView view_;
    const game::ExactMixedProfile* profile_;
    std::optional<game::PureProfile> pure_;  // set iff the candidate is pure
    std::uint64_t base_row_ = 0;             // flat row of *pure_ when set
    // Built once per sweep for mixed candidates: the support restriction
    // every sparse coalition scan walks.
    std::optional<game::SupportPlan> support_;
};

}  // namespace bnash::core
