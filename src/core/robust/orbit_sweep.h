// Orbit-indexed (k,t)-robustness sweeps for symmetric games — the
// engine that breaks the exhaustive-tensor wall.
//
// For a game::SymmetryGroup whose classes partition the players, and a
// CLASS-CONSTANT pure candidate, every quantity the dense CoalitionSweep
// scans depends only on per-class COUNTS, never on identities:
//
//   - a coalition C and faulty set T matter only through (c_1..c_m) and
//     (t_1..t_m), their per-class sizes (c_c + t_c <= n_c);
//   - a joint pure deviation matters only through per-class action
//     HISTOGRAMS (one util::OrbitWalker digit per class);
//   - any player's payoff at such a profile is a single lookup in the
//     game::QuotientGame built once per sweep.
//
// So the sweep walks ONE representative coalition per orbit and ONE
// representative joint deviation per orbit: prod_c C(n_c, c_c)-sized
// subset spaces collapse to bounded compositions, and prod |A|^|C|
// deviation spaces collapse to prod_c C(c_c + A_c - 1, A_c - 1). A
// violation found at a representative maps back to a CONCRETE witness
// (first t_c members of each class faulty, next c_c in the coalition,
// histograms expanded in ascending action order) that the dense checker
// verifies as-is; conversely any concrete violation has the same payoff
// pattern as its representative, so none is missed. VERDICTS (robust /
// broken per (k,t) cell, kmax boundaries) are therefore exactly the
// dense path's; only the reported witness may be a different — equally
// valid — member of the same orbit.
//
// Execution mirrors the dense engine: cells and walker digit-moves are
// charged to util::work_counters (and through them to any active
// util::ExecutionGrant, with the same one-chunk truncation bound), large
// per-pair scans split into seek()-entered ranged blocks on
// util::global_pool() with a deterministic lowest-rank winner, and
// truncated runs degrade to kUnknown cells, never to a wrong verdict.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/robust/robustness.h"
#include "game/game_view.h"
#include "game/strategy.h"
#include "game/symmetry.h"
#include "util/rational.h"

namespace bnash::core {

class OrbitSweep final {
public:
    // `quotient` and `group` must describe the same game (class count and
    // sizes are cross-checked; throws std::invalid_argument otherwise);
    // base_by_class[c] is the candidate action every class-c member
    // plays. Group member indices are the player indices witnesses are
    // reported in.
    OrbitSweep(game::QuotientGame quotient, game::SymmetryGroup group,
               std::vector<std::size_t> base_by_class);

    // Part (a) of (k,t)-robustness over faulty ORBITS, smallest faulty
    // size first — the orbit analogue of CoalitionSweep's size-major
    // faulty-set sweep.
    [[nodiscard]] std::optional<RobustnessViolation> immunity_violation(
        std::size_t t, game::SweepMode mode = game::SweepMode::kAuto) const;

    // Part (b) over coalition orbits (size-major) x faulty orbits.
    [[nodiscard]] std::optional<RobustnessViolation> resilience_violation(
        std::size_t k, std::size_t t, GainCriterion criterion,
        game::SweepMode mode = game::SweepMode::kAuto) const;

    // Parts (a) then (b), same order as the dense checker.
    [[nodiscard]] std::optional<RobustnessViolation> robustness_violation(
        std::size_t k, std::size_t t, const RobustnessOptions& options) const;

    // Resumable variant, mirroring CoalitionSweep::robustness_violation:
    // the checkpoint records the next faulty SIZE (part a) or the next
    // (coalition size, faulty size) pair rank (part b, sc-major), so a
    // retry seeks past every scan earlier runs verified.
    [[nodiscard]] std::optional<RobustnessViolation> robustness_violation(
        std::size_t k, std::size_t t, const RobustnessOptions& options,
        const SweepCheckpoint* resume, SweepCheckpoint* checkpoint) const;

    // The full grid; verdict-identical to the dense
    // CoalitionSweep::batch_robustness_frontier cell for cell (witnesses
    // representative, see file comment). Scans only NON-DOMINATED
    // (coalition size, faulty size) pairs: once (sc, st) violates, every
    // pair above it is implied broken and never swept.
    [[nodiscard]] FrontierVerdict batch_robustness_frontier(
        std::size_t max_k, std::size_t max_t,
        GainCriterion criterion = GainCriterion::kAnyMemberGains,
        game::SweepMode mode = game::SweepMode::kAuto) const;

    // Resumable variant. The checkpoint records the immunity phase's next
    // faulty size, the minimal violating pairs found so far (their cells
    // were delivered by the runs that found them and stay kUnknown in
    // later grids), and the next pair rank; merge_frontier reassembles
    // the full grid bit-identically to one unbudgeted run.
    [[nodiscard]] FrontierVerdict batch_robustness_frontier(
        std::size_t max_k, std::size_t max_t, GainCriterion criterion, game::SweepMode mode,
        const SweepCheckpoint* resume, SweepCheckpoint* checkpoint) const;

    // Boundary walk; field-identical to the dense CoalitionSweep::max_kt
    // on untruncated runs (MaxKtResult carries sizes and counters only).
    [[nodiscard]] MaxKtResult max_kt(std::size_t max_k, std::size_t max_t,
                                     GainCriterion criterion = GainCriterion::kAnyMemberGains,
                                     game::SweepMode mode = game::SweepMode::kAuto) const;

    // Resumable variant; like the dense walk, the run that completes
    // returns a result bit-identical to one unbudgeted run (the
    // checkpoint carries the cumulative k_of_t prefix and cell count).
    [[nodiscard]] MaxKtResult max_kt(std::size_t max_k, std::size_t max_t,
                                     GainCriterion criterion, game::SweepMode mode,
                                     const SweepCheckpoint* resume,
                                     SweepCheckpoint* checkpoint) const;

    [[nodiscard]] const game::QuotientGame& quotient() const noexcept { return quotient_; }
    [[nodiscard]] const game::SymmetryGroup& group() const noexcept { return group_; }

private:
    // One exact-size scan's outcome: a violation, a clean pass, or a
    // grant truncation (violation wins over truncation — a hit found
    // before expiry is trusted, exactly like the dense run_tasks).
    struct ScanOutcome final {
        std::optional<RobustnessViolation> violation;
        bool truncated = false;
    };
    // The t-axis boundary: largest verified-immune t, the witness that
    // breaks t = max_ok + 1 (when complete and interior), truncation flag.
    struct Boundary final {
        std::size_t max_ok = 0;
        std::optional<RobustnessViolation> violation;
        bool complete = true;
    };

    // Boundary walk with a resume point: sizes [1, start_s) were verified
    // by earlier runs. next_s is where a truncated retry picks up.
    struct BoundaryPhase final {
        Boundary boundary;
        std::size_t next_s = 1;
        bool done = false;
    };

    [[nodiscard]] ScanOutcome immunity_scan(std::size_t faulty_size) const;
    [[nodiscard]] ScanOutcome resilience_scan(std::size_t coalition_size,
                                              std::size_t faulty_size, GainCriterion criterion,
                                              game::SweepMode mode) const;
    [[nodiscard]] Boundary immunity_boundary(std::size_t max_t) const;
    [[nodiscard]] BoundaryPhase immunity_boundary_phase(std::size_t start_s,
                                                        std::size_t max_t) const;

    [[nodiscard]] RobustnessViolation make_immunity_witness(
        const std::vector<std::size_t>& tcounts, const util::OrbitWalker& walker,
        std::size_t witness_class, const util::Rational& after) const;

    game::QuotientGame quotient_;
    game::SymmetryGroup group_;
    std::vector<std::size_t> base_;
    std::vector<util::Rational> baseline_;  // per-class candidate payoff
};

// --- routed entry points ----------------------------------------------------
// The symmetry-aware mirrors of the robustness.h checkers:
// when the group is non-trivial AND the candidate is pure and class-
// constant, they build the quotient and run the orbit sweep; otherwise
// they fall back to the dense CoalitionSweep, returning EXACTLY what the
// plain (view, profile) checkers return — witnesses included — so a
// degenerate (all-singleton) group is observationally a no-op.
[[nodiscard]] bool orbit_applicable(const game::SymmetryGroup& group,
                                    const game::ExactMixedProfile& profile);

[[nodiscard]] std::optional<RobustnessViolation> find_robustness_violation(
    const game::GameView& view, const game::SymmetryGroup& group,
    const game::ExactMixedProfile& profile, std::size_t k, std::size_t t,
    const RobustnessOptions& options = {});

[[nodiscard]] bool is_kt_robust(const game::GameView& view, const game::SymmetryGroup& group,
                                const game::ExactMixedProfile& profile, std::size_t k,
                                std::size_t t, const RobustnessOptions& options = {});

[[nodiscard]] FrontierVerdict batch_robustness_frontier(
    const game::GameView& view, const game::SymmetryGroup& group,
    const game::ExactMixedProfile& profile, std::size_t max_k, std::size_t max_t,
    const RobustnessOptions& options = {});

[[nodiscard]] MaxKtResult max_kt(const game::GameView& view, const game::SymmetryGroup& group,
                                 const game::ExactMixedProfile& profile, std::size_t max_k,
                                 std::size_t max_t, const RobustnessOptions& options = {});

}  // namespace bnash::core
