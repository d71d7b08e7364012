#include "core/robust/coalition_sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <utility>

#include "util/audit.h"
#include "util/combinatorics.h"
#include "util/execution_grant.h"
#include "util/offset_walker.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace bnash::core {
namespace {

using game::ExactMixedProfile;
using game::GameView;
using game::PureProfile;
using util::Rational;

std::atomic<std::uint64_t> g_intra_split_cells{CoalitionSweep::kDefaultIntraSplitCells};
std::atomic<std::uint64_t> g_intra_block_cells{CoalitionSweep::kIntraBlock};
std::atomic<bool> g_intra_split_force{false};
// set_intra_split_cells PINS the threshold (the legacy process-wide
// behavior tests and benches rely on); unpinned sweeps derive a
// per-sweep threshold from their measured task shape instead.
std::atomic<bool> g_intra_split_pinned{false};

// Joint-deviation scan over the players in `who`: a thin adapter that
// configures the shared util::OffsetWalker over those players' view
// cell-offset columns, rebased so reset(base) starts from the row where
// every scanned player still plays its CANDIDATE action — row(tau) =
// base + sum_d (cell_offset(who_d, tau_d) - cell_offset(who_d,
// candidate_d)). All actual walking (row-major order, incremental row
// deltas, unsigned wrap-around) lives in the walker.
class JointScan final {
public:
    void init(const GameView& view, const PureProfile& candidate,
              const std::vector<std::size_t>& who) {
        carried_moves_ += walker_.digit_moves();  // clear() resets the tally
        walker_.clear();
        walker_.reserve(who.size());
        rebase_ = 0;
        for (const std::size_t p : who) {
            const auto& column = view.cell_offsets(p);
            walker_.add_digit(column.data(), column.size());
            rebase_ -= column[candidate[p]];
        }
    }

    // Restart at the all-zeros tuple relative to `base` (the row with
    // every scanned player still on its candidate action).
    void reset(std::uint64_t base) { walker_.reset(base + rebase_); }

    // Advance one tuple; false once the space is exhausted.
    // lint: no-charge(thin adapter — the sweep loops driving JointScan
    // charge at their bulk-add points via the digit_moves() hand-off)
    [[nodiscard]] bool advance() { return walker_.advance(); }

    [[nodiscard]] std::uint64_t row() const noexcept { return walker_.row(); }
    [[nodiscard]] const PureProfile& tuple() const noexcept { return walker_.tuple(); }
    [[nodiscard]] std::uint64_t digit_moves() const noexcept {
        return carried_moves_ + walker_.digit_moves();
    }

private:
    util::OffsetWalker walker_;
    std::uint64_t rebase_ = 0;
    std::uint64_t carried_moves_ = 0;
};

// A found violation together with the index of the task that found it
// (the batch probes map the winning index back to a coalition size).
using TaskHit = std::pair<std::size_t, RobustnessViolation>;

// Serial scans poll their grant every kGrantCheckCells cells, flushing
// the pending counter chunk first so the budget sees the work already
// done. Overshoot past a budget/deadline/cancel is therefore bounded by
// one chunk per executing scan, matching the pool's one-block bound.
constexpr std::uint64_t kGrantCheckCells = 2048;

// Outcome of a task sweep under an (optional) util::ExecutionGrant.
struct TaskRun final {
    // The serial-equivalent first violation; absent when no task violated
    // OR the grant expired before the first violation was pinned.
    std::optional<TaskHit> hit;
    // Tasks [0, verified) completed untruncated without violating; with a
    // hit, verified == hit->first. Without one, verified < num_tasks
    // means the grant expired and everything from `verified` on is
    // UNRESOLVED, not clean.
    std::size_t verified = 0;
};

// Runs fn(0..num_tasks) with first-hit-wins semantics on the LOWEST task
// index, serially or on the global pool. Parallel runs skip tasks above
// the current best index (early exit) but never below it, so both modes
// return the violation of the same task — the one the serial loop would
// have stopped at. Under an active ExecutionGrant, a task observed
// truncated (grant expired after fn returned) cannot vouch for its
// verdict — a skipped stretch may hide an earlier violation — so its
// result is discarded, and a hit is reported only when every lower-index
// task completed untruncated, which keeps reported hits bit-identical to
// the unbudgeted winner.
template <typename TaskFn>
TaskRun run_tasks(std::size_t num_tasks, game::SweepMode mode, const TaskFn& fn) {
    if (num_tasks == 0) return {std::nullopt, 0};
    util::ExecutionGrant* const grant = util::active_grant();
    auto& pool = util::global_pool();
    if (mode == game::SweepMode::kSerial || pool.size() <= 1 || num_tasks == 1) {
        for (std::size_t index = 0; index < num_tasks; ++index) {
            if (grant != nullptr && grant->expired()) return {std::nullopt, index};
            auto violation = fn(index);
            if (grant != nullptr && grant->expired()) return {std::nullopt, index};
            if (violation) return {TaskHit{index, *std::move(violation)}, index};
        }
        return {std::nullopt, num_tasks};
    }
    std::atomic<std::size_t> best{num_tasks};
    std::vector<std::optional<RobustnessViolation>> found(num_tasks);
    std::vector<std::exception_ptr> errors(num_tasks);
    // Per-task outcome under a grant: 0 = never ran or truncated, 1 =
    // completed untruncated (errors count — they surface below), 2 =
    // early-exit skip (only possible at indices >= the final winner).
    // Each slot is written by the one thread that claimed the task and
    // read only after the pool's completion barrier.
    std::vector<unsigned char> state(grant != nullptr ? num_tasks : 0, 0);
    pool.run_blocks(num_tasks, [&](std::size_t index) {
        if (index >= best.load(std::memory_order_acquire)) {  // early exit
            if (grant != nullptr) state[index] = 2;
            return;
        }
        try {
            auto violation = fn(index);
            if (grant != nullptr) {
                if (grant->expired()) return;  // truncated: verdict untrusted
                state[index] = 1;
            }
            if (violation) {
                found[index] = std::move(violation);
                std::size_t current = best.load(std::memory_order_acquire);
                while (index < current &&
                       !best.compare_exchange_weak(current, index,
                                                   std::memory_order_acq_rel)) {
                }
            }
        } catch (...) {
            errors[index] = std::current_exception();
            if (grant != nullptr) state[index] = 1;
        }
    });
    const std::size_t winner = best.load(std::memory_order_acquire);
    // Completed prefix: early-exit skips only happen at indices >= the
    // final winner, so the leading run of nonzero states is exactly the
    // untruncated prefix.
    std::size_t verified = num_tasks;
    if (grant != nullptr) {
        verified = 0;
        while (verified < num_tasks && state[verified] != 0) ++verified;
    }
    // Replicate the serial loop's observable behavior exactly: serial
    // execution stops at the first violating task (or at grant expiry),
    // so an error in a task it would never have reached is swallowed; an
    // error below that point is rethrown, lowest index first, just as the
    // in-order loop would have thrown.
    for (std::size_t index = 0; index < std::min(winner, verified); ++index) {
        if (errors[index]) std::rethrow_exception(errors[index]);
    }
    if (winner < num_tasks && winner <= verified) {
        return {TaskHit{winner, *std::move(found[winner])}, winner};
    }
    return {std::nullopt, verified};
}

// run_tasks over the GLOBAL index range [start, num_tasks): the prefix
// [0, start) was verified clean by an earlier budgeted run (see
// SweepCheckpoint), so skipping it preserves the first-hit-wins verdict —
// any hit found here is the global-first hit. Hit index and verified
// count are reported in global task ranks.
template <typename TaskFn>
TaskRun run_tasks_from(std::size_t start, std::size_t num_tasks, game::SweepMode mode,
                       const TaskFn& fn) {
    // A resume rank beyond the task space means the checkpoint was
    // recorded against a different game or sweep parameterization.
    BNASH_AUDIT_CHECK(start <= num_tasks,
                      "run_tasks_from: checkpoint resume position lies beyond the "
                      "task space (stale or mismatched checkpoint)");
    if (start >= num_tasks) return {std::nullopt, num_tasks};
    TaskRun run =
        run_tasks(num_tasks - start, mode, [&](std::size_t index) { return fn(start + index); });
    if (run.hit) run.hit->first += start;
    run.verified += start;
    return run;
}

// --- intra-task ranged-block scans -------------------------------------------
//
// One faulty set's joint-deviation space, walked as ONE combined odometer
// (faulty digits then coalition digits — exactly the serial nesting
// order) and split into fixed-size rank blocks on the pool. The winner is
// the lowest violating RANK, so the reported violation is the first the
// serial nested scan would have produced; blocks whose range lies above
// the current winner are skipped. When the outer task level already owns
// the workers, run_blocks degrades to an in-order inline loop and the
// decomposition changes nothing observable.

// True when a per-faulty-set scan of `total` cells should split;
// `split_cells` is the sweep's threshold (pinned or adaptively derived
// once at sweep entry — see sweep_intra_split_cells).
bool should_split_intra(game::SweepMode mode, std::uint64_t total, std::uint64_t split_cells) {
    if (mode != game::SweepMode::kAuto) return false;
    if (total < split_cells) return false;
    if (total < 2 * g_intra_block_cells.load(std::memory_order_relaxed)) return false;
    return util::global_pool().size() > 1 ||
           g_intra_split_force.load(std::memory_order_relaxed);
}

// Saturating product of the `width` largest action counts: an upper
// bound on any single per-task joint scan this sweep can run. Only ever
// compared against thresholds, so saturation is harmless.
std::uint64_t max_scan_cells(const GameView& view, std::size_t width) {
    const std::size_t n = view.num_players();
    std::vector<std::uint64_t> counts(n);
    for (std::size_t p = 0; p < n; ++p) counts[p] = view.num_actions(p);
    std::sort(counts.begin(), counts.end(), std::greater<>());
    std::uint64_t total = 1;
    for (std::size_t i = 0; i < std::min(width, n); ++i) {
        if (counts[i] != 0 && total > (std::uint64_t{1} << 62) / counts[i]) {
            return std::uint64_t{1} << 62;  // saturate
        }
        total *= counts[i];
    }
    return total;
}

// Block size for a `total`-cell ranged scan: the configured block size,
// grown (deterministically, machine-independently) so the per-block
// bookkeeping vectors never exceed kMaxIntraBlocks entries on huge
// scans.
std::uint64_t intra_block_size(std::uint64_t total) {
    constexpr std::uint64_t kMaxIntraBlocks = 4096;
    const std::uint64_t configured = g_intra_block_cells.load(std::memory_order_relaxed);
    return std::max(configured, (total + kMaxIntraBlocks - 1) / kMaxIntraBlocks);
}

std::optional<RobustnessViolation> intra_resilience_scan(
    const GameView& view, const PureProfile& candidate, std::uint64_t base_row,
    const std::vector<std::size_t>& coalition, const std::vector<std::size_t>& faulty,
    GainCriterion criterion, std::uint64_t total) {
    const std::uint64_t kBlock = intra_block_size(total);
    const std::size_t fw = faulty.size();
    const std::size_t width = coalition.size();
    // Combined walker prototype: every scanned player rebased to its
    // candidate action (copied and seek()ed per block).
    util::OffsetWalker proto;
    proto.reserve(fw + width);
    std::uint64_t rebase = base_row;
    for (const std::size_t p : faulty) {
        const auto& column = view.cell_offsets(p);
        proto.add_digit(column.data(), column.size());
        rebase -= column[candidate[p]];
    }
    // With the coalition digits at zero, the reference row (coalition
    // back on its candidate actions) is the walker row minus this.
    std::uint64_t coalition_zero_delta = 0;
    for (const std::size_t p : coalition) {
        const auto& column = view.cell_offsets(p);
        proto.add_digit(column.data(), column.size());
        rebase -= column[candidate[p]];
        coalition_zero_delta += column[0] - column[candidate[p]];
    }
    const std::uint64_t num_blocks = (total + kBlock - 1) / kBlock;
    std::atomic<std::uint64_t> best{total};
    std::vector<std::optional<RobustnessViolation>> found(num_blocks);
    std::vector<std::pair<std::uint64_t, std::exception_ptr>> errors(
        num_blocks, {total, nullptr});
    util::global_pool().run_blocks(
        static_cast<std::size_t>(num_blocks), [&](std::size_t block) {
            const std::uint64_t lo = block * kBlock;
            const std::uint64_t hi = std::min(total, lo + kBlock);
            if (lo >= best.load(std::memory_order_acquire)) return;  // early exit
            std::uint64_t rank = lo;
            std::uint64_t scanned = 0;
            try {
                util::OffsetWalker walker = proto;
                walker.seek(lo, rebase);
                const auto& tuple = walker.tuple();
                // Reference row for the block's entry faulty tuple.
                std::uint64_t ref_row = walker.row();
                for (std::size_t idx = 0; idx < width; ++idx) {
                    const auto& column = view.cell_offsets(coalition[idx]);
                    ref_row += column[candidate[coalition[idx]]] - column[tuple[fw + idx]];
                }
                std::vector<const Rational*> reference(width);
                for (std::size_t idx = 0; idx < width; ++idx) {
                    reference[idx] = &view.payoff_from(ref_row, coalition[idx]);
                }
                for (; rank < hi; ++rank) {
                    ++scanned;
                    bool any_gain = false;
                    bool all_gain = true;
                    std::size_t witness = coalition[0];
                    const Rational* witness_before = nullptr;
                    const Rational* witness_after = nullptr;
                    for (std::size_t idx = 0; idx < width; ++idx) {
                        const Rational& after =
                            view.payoff_from(walker.row(), coalition[idx]);
                        if (after > *reference[idx]) {
                            if (!any_gain) {
                                witness = coalition[idx];
                                witness_before = reference[idx];
                                witness_after = &after;
                            }
                            any_gain = true;
                        } else {
                            all_gain = false;
                        }
                    }
                    const bool violated = criterion == GainCriterion::kAnyMemberGains
                                              ? any_gain
                                              : (all_gain && !coalition.empty());
                    if (violated) {
                        found[block] = RobustnessViolation{
                            coalition,
                            faulty,
                            PureProfile(tuple.begin() + static_cast<std::ptrdiff_t>(fw),
                                        tuple.end()),
                            PureProfile(tuple.begin(),
                                        tuple.begin() + static_cast<std::ptrdiff_t>(fw)),
                            witness,
                            witness_before ? witness_before->to_double() : 0.0,
                            witness_after ? witness_after->to_double() : 0.0};
                        std::uint64_t current = best.load(std::memory_order_acquire);
                        while (rank < current &&
                               !best.compare_exchange_weak(current, rank,
                                                           std::memory_order_acq_rel)) {
                        }
                        break;
                    }
                    if (rank + 1 < hi) {
                        (void)walker.advance();
                        if (walker.lowest_changed() < fw) {
                            // Carry into the faulty digits: the coalition
                            // digits are back at zero, so the reference
                            // row is one constant away.
                            ref_row = walker.row() - coalition_zero_delta;
                            for (std::size_t idx = 0; idx < width; ++idx) {
                                reference[idx] = &view.payoff_from(ref_row, coalition[idx]);
                            }
                        }
                        // Ranks above an established winner can never win.
                        if ((rank & 255) == 255 &&
                            rank + 1 >= best.load(std::memory_order_acquire)) {
                            ++rank;
                            break;
                        }
                    }
                }
                // Per-BLOCK bulk add (not one add per scan): the pool
                // propagates the submitter's grant to this thread, so the
                // budget is charged as each block retires and an expired
                // grant stops claiming new blocks one block later.
                util::work_counters_add(scanned, walker.digit_moves());
            } catch (...) {
                util::work_counters_add(scanned, 0);
                errors[block] = {rank, std::current_exception()};
            }
        });
    const std::uint64_t winner = best.load(std::memory_order_acquire);
    // Serial-equivalent errors: the in-order scan would have thrown the
    // lowest-rank error that precedes the first violation.
    std::size_t first_error = static_cast<std::size_t>(num_blocks);
    for (std::size_t block = 0; block < num_blocks; ++block) {
        if (errors[block].second && errors[block].first < winner &&
            (first_error == num_blocks ||
             errors[block].first < errors[first_error].first)) {
            first_error = block;
        }
    }
    if (first_error < num_blocks) std::rethrow_exception(errors[first_error].second);
    if (winner == total) return std::nullopt;
    return std::move(found[static_cast<std::size_t>(winner / kBlock)]);
}

std::optional<RobustnessViolation> intra_immunity_scan(
    const GameView& view, const PureProfile& candidate, std::uint64_t base_row,
    const std::vector<std::size_t>& faulty, const std::vector<std::size_t>& outsiders,
    const std::vector<Rational>& baseline, std::uint64_t total) {
    const std::uint64_t kBlock = intra_block_size(total);
    util::OffsetWalker proto;
    proto.reserve(faulty.size());
    std::uint64_t rebase = base_row;
    for (const std::size_t p : faulty) {
        const auto& column = view.cell_offsets(p);
        proto.add_digit(column.data(), column.size());
        rebase -= column[candidate[p]];
    }
    const std::uint64_t num_blocks = (total + kBlock - 1) / kBlock;
    std::atomic<std::uint64_t> best{total};
    std::vector<std::optional<RobustnessViolation>> found(num_blocks);
    std::vector<std::pair<std::uint64_t, std::exception_ptr>> errors(
        num_blocks, {total, nullptr});
    util::global_pool().run_blocks(
        static_cast<std::size_t>(num_blocks), [&](std::size_t block) {
            const std::uint64_t lo = block * kBlock;
            const std::uint64_t hi = std::min(total, lo + kBlock);
            if (lo >= best.load(std::memory_order_acquire)) return;
            std::uint64_t rank = lo;
            std::uint64_t scanned = 0;
            try {
                util::OffsetWalker walker = proto;
                walker.seek(lo, rebase);
                for (; rank < hi; ++rank) {
                    ++scanned;
                    for (const std::size_t i : outsiders) {
                        const Rational& after = view.payoff_from(walker.row(), i);
                        if (after < baseline[i]) {
                            found[block] =
                                RobustnessViolation{{},
                                                    faulty,
                                                    {},
                                                    walker.tuple(),
                                                    i,
                                                    baseline[i].to_double(),
                                                    after.to_double()};
                            std::uint64_t current = best.load(std::memory_order_acquire);
                            while (rank < current &&
                                   !best.compare_exchange_weak(
                                       current, rank, std::memory_order_acq_rel)) {
                            }
                            break;
                        }
                    }
                    if (found[block]) break;
                    if (rank + 1 < hi) {
                        (void)walker.advance();
                        if ((rank & 255) == 255 &&
                            rank + 1 >= best.load(std::memory_order_acquire)) {
                            ++rank;
                            break;
                        }
                    }
                }
                // Per-block bulk add; see intra_resilience_scan.
                util::work_counters_add(scanned, walker.digit_moves());
            } catch (...) {
                util::work_counters_add(scanned, 0);
                errors[block] = {rank, std::current_exception()};
            }
        });
    const std::uint64_t winner = best.load(std::memory_order_acquire);
    std::size_t first_error = static_cast<std::size_t>(num_blocks);
    for (std::size_t block = 0; block < num_blocks; ++block) {
        if (errors[block].second && errors[block].first < winner &&
            (first_error == num_blocks ||
             errors[block].first < errors[first_error].first)) {
            first_error = block;
        }
    }
    if (first_error < num_blocks) std::rethrow_exception(errors[first_error].second);
    if (winner == total) return std::nullopt;
    return std::move(found[static_cast<std::size_t>(winner / kBlock)]);
}

}  // namespace

void CoalitionSweep::set_intra_split_cells(std::uint64_t cells) noexcept {
    g_intra_split_cells.store(cells, std::memory_order_relaxed);
    g_intra_split_pinned.store(true, std::memory_order_relaxed);
}

std::uint64_t CoalitionSweep::intra_split_cells() noexcept {
    return g_intra_split_cells.load(std::memory_order_relaxed);
}

void CoalitionSweep::set_intra_split_adaptive() noexcept {
    g_intra_split_cells.store(kDefaultIntraSplitCells, std::memory_order_relaxed);
    g_intra_split_pinned.store(false, std::memory_order_relaxed);
}

bool CoalitionSweep::intra_split_pinned() noexcept {
    return g_intra_split_pinned.load(std::memory_order_relaxed);
}

std::uint64_t CoalitionSweep::sweep_intra_split_cells(std::size_t num_tasks,
                                                      std::uint64_t max_task_cells) noexcept {
    if (g_intra_split_pinned.load(std::memory_order_relaxed)) {
        return g_intra_split_cells.load(std::memory_order_relaxed);
    }
    const std::uint64_t floor_cells = 2 * intra_block_cells();
    // Even the largest measured task cannot form two blocks: no split is
    // possible, keep the default gate.
    if (max_task_cells < floor_cells) return kDefaultIntraSplitCells;
    const std::size_t workers = std::max<std::size_t>(1, util::global_pool().size());
    // Two-plus tasks per executor: the outer task level saturates the
    // pool by itself, so only default-threshold-sized scans warrant the
    // extra block bookkeeping.
    if (num_tasks >= 2 * workers) return kDefaultIntraSplitCells;
    // Starved outer level (few big tasks — one huge coalition, an orbit
    // pair scan, a boundary-walk column): lower the gate in proportion
    // to the shortfall so the measured-largest scans do split, floored
    // at the two-block minimum.
    const std::uint64_t scaled = kDefaultIntraSplitCells *
                                 std::max<std::uint64_t>(1, num_tasks) / (2 * workers);
    return std::clamp(scaled, floor_cells, kDefaultIntraSplitCells);
}

void CoalitionSweep::set_intra_block_cells(std::uint64_t cells) noexcept {
    g_intra_block_cells.store(cells == 0 ? 1 : cells, std::memory_order_relaxed);
}

std::uint64_t CoalitionSweep::intra_block_cells() noexcept {
    return g_intra_block_cells.load(std::memory_order_relaxed);
}

void CoalitionSweep::set_intra_split_force(bool force) noexcept {
    g_intra_split_force.store(force, std::memory_order_relaxed);
}

bool CoalitionSweep::intra_split_force() noexcept {
    return g_intra_split_force.load(std::memory_order_relaxed);
}

CoalitionSweep::CoalitionSweep(GameView view, const ExactMixedProfile& profile)
    : view_(std::move(view)), profile_(&profile), pure_(as_pure_profile(profile)) {
    if (pure_) {
        base_row_ = view_.row_offset(*pure_);
    } else {
        // One plan per sweep: every sparse coalition scan walks it.
        support_ = game::build_support_plan(view_, profile);
    }
}

// --- support-sparse fused scans (mixed candidates) ---------------------------
//
// Digit layout per scan: the deviators' FULL action ranges first (faulty
// then coalition — the serial enumeration order), then the remaining
// players' SUPPORT actions. The cells of one joint deviation are then a
// contiguous row-major run, so each deviation's expected utilities
// accumulate with incremental prefix-product weights (recomputed from the
// walker's lowest changed digit only) and finalize exactly when the walk
// carries out of the support digits. Exact arithmetic makes the
// accumulated values — hence verdicts and witnesses — identical to the
// per-evaluation expected sweeps this replaces.

std::optional<RobustnessViolation> CoalitionSweep::sparse_immunity_task(
    const std::vector<std::size_t>& faulty, const std::vector<Rational>& baseline) const {
    const std::size_t n = view_.num_players();
    const game::SupportPlan& plan = *support_;
    std::vector<std::size_t> outsiders;
    outsiders.reserve(n - faulty.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (std::find(faulty.begin(), faulty.end(), i) == faulty.end()) {
            outsiders.push_back(i);
        }
    }
    const std::size_t fw = faulty.size();
    util::OffsetWalker walker;
    walker.reserve(fw + outsiders.size());
    for (const std::size_t p : faulty) {
        const auto& column = view_.cell_offsets(p);
        walker.add_digit(column.data(), column.size());
    }
    for (const std::size_t p : outsiders) {
        walker.add_digit(plan.offsets[p].data(), plan.offsets[p].size());
    }
    walker.reset();
    const auto& tuple = walker.tuple();
    std::vector<Rational> prefix(outsiders.size() + 1, Rational{1});
    std::vector<Rational> acc(outsiders.size(), Rational{0});
    PureProfile tau(fw, 0);
    std::size_t from = 0;
    std::uint64_t cells = 0;
    util::ExecutionGrant* const grant = util::active_grant();
    std::uint64_t flushed_cells = 0;
    std::uint64_t flushed_moves = 0;
    // Chunked counter flush: totals are identical to the old single add,
    // and each flush charges the active grant so the periodic expiry poll
    // below sees the budget state of the work already done.
    const auto flush = [&] {
        util::work_counters_add(cells - flushed_cells, walker.digit_moves() - flushed_moves);
        flushed_cells = cells;
        flushed_moves = walker.digit_moves();
    };
    bool more = true;
    while (more) {
        ++cells;
        if (grant != nullptr && (cells % kGrantCheckCells) == 0) {
            flush();
            if (grant->expired()) return std::nullopt;  // truncated
        }
        for (std::size_t j = from; j < outsiders.size(); ++j) {
            const std::size_t p = outsiders[j];
            prefix[j + 1] = prefix[j] * (*profile_)[p][plan.actions[p][tuple[fw + j]]];
        }
        const Rational& weight = prefix[outsiders.size()];
#if BNASH_AUDIT_ENABLED
        {
            Rational full{1};
            for (std::size_t j = 0; j < outsiders.size(); ++j) {
                const std::size_t p = outsiders[j];
                full = full * (*profile_)[p][plan.actions[p][tuple[fw + j]]];
            }
            BNASH_AUDIT_CHECK(full == weight,
                              "sparse_immunity_task: incremental outsider-weight "
                              "prefix drifted from a from-scratch product");
        }
#endif
        for (std::size_t i = 0; i < outsiders.size(); ++i) {
            acc[i] += weight * view_.payoff_from(walker.row(), outsiders[i]);
        }
        more = walker.advance();
        if (!more || walker.lowest_changed() < fw) {
            // Joint deviation `tau` complete: check the outsiders in
            // player order (the fallback's order).
            for (std::size_t i = 0; i < outsiders.size(); ++i) {
                if (acc[i] < baseline[outsiders[i]]) {
                    flush();
                    return RobustnessViolation{{},
                                               faulty,
                                               {},
                                               tau,
                                               outsiders[i],
                                               baseline[outsiders[i]].to_double(),
                                               acc[i].to_double()};
                }
            }
            if (!more) break;
            std::fill(acc.begin(), acc.end(), Rational{0});
            for (std::size_t d = 0; d < fw; ++d) tau[d] = tuple[d];
            from = 0;
        } else {
            from = walker.lowest_changed() - fw;
        }
    }
    flush();
    return std::nullopt;
}

std::optional<RobustnessViolation> CoalitionSweep::sparse_resilience_scan(
    const std::vector<std::size_t>& coalition, const std::vector<std::size_t>& faulty,
    GainCriterion criterion) const {
    const std::size_t n = view_.num_players();
    const game::SupportPlan& plan = *support_;
    const std::size_t width = coalition.size();
    const std::size_t fw = faulty.size();
    const auto member_of = [](const std::vector<std::size_t>& set, std::size_t p) {
        return std::find(set.begin(), set.end(), p) != set.end();
    };
    std::vector<std::size_t> rest;       // outside C u T, ascending
    std::vector<std::size_t> non_faulty; // outside T (coalition included)
    for (std::size_t i = 0; i < n; ++i) {
        if (member_of(faulty, i)) continue;
        non_faulty.push_back(i);
        if (!member_of(coalition, i)) rest.push_back(i);
    }
    std::uint64_t faulty_tuples = 1;
    for (const std::size_t p : faulty) faulty_tuples *= view_.num_actions(p);
    std::uint64_t cells = 0;
    std::uint64_t digit_moves = 0;
    util::ExecutionGrant* const grant = util::active_grant();
    std::uint64_t flushed_cells = 0;
    std::uint64_t flushed_moves = 0;
    // Chunked counter flush (totals identical to the old single add);
    // `moves_now` is the cumulative digit-move tally including the phase
    // currently walking.
    const auto flush_at = [&](std::uint64_t moves_now) {
        util::work_counters_add(cells - flushed_cells, moves_now - flushed_moves);
        flushed_cells = cells;
        flushed_moves = moves_now;
    };

    // Phase A — references: u_i(sigma_C, tau_T, sigma_-T) for every
    // coalition member i and every tau_T, in ONE support walk.
    std::vector<Rational> ref(static_cast<std::size_t>(faulty_tuples) * width,
                              Rational{0});
    {
        util::OffsetWalker walker;
        walker.reserve(fw + non_faulty.size());
        for (const std::size_t p : faulty) {
            const auto& column = view_.cell_offsets(p);
            walker.add_digit(column.data(), column.size());
        }
        for (const std::size_t p : non_faulty) {
            walker.add_digit(plan.offsets[p].data(), plan.offsets[p].size());
        }
        walker.reset();
        const auto& tuple = walker.tuple();
        std::vector<Rational> prefix(non_faulty.size() + 1, Rational{1});
        std::vector<Rational> acc(width, Rational{0});
        std::size_t from = 0;
        std::size_t tau_rank = 0;
        bool more = true;
        while (more) {
            ++cells;
            if (grant != nullptr && (cells % kGrantCheckCells) == 0) {
                flush_at(digit_moves + walker.digit_moves());
                if (grant->expired()) return std::nullopt;  // truncated
            }
            for (std::size_t j = from; j < non_faulty.size(); ++j) {
                const std::size_t p = non_faulty[j];
                prefix[j + 1] = prefix[j] * (*profile_)[p][plan.actions[p][tuple[fw + j]]];
            }
            const Rational& weight = prefix[non_faulty.size()];
#if BNASH_AUDIT_ENABLED
            {
                Rational full{1};
                for (std::size_t j = 0; j < non_faulty.size(); ++j) {
                    const std::size_t p = non_faulty[j];
                    full = full * (*profile_)[p][plan.actions[p][tuple[fw + j]]];
                }
                BNASH_AUDIT_CHECK(full == weight,
                                  "sparse_resilience_scan phase A: incremental "
                                  "non-faulty-weight prefix drifted from a "
                                  "from-scratch product");
            }
#endif
            for (std::size_t idx = 0; idx < width; ++idx) {
                acc[idx] += weight * view_.payoff_from(walker.row(), coalition[idx]);
            }
            more = walker.advance();
            if (!more || walker.lowest_changed() < fw) {
                for (std::size_t idx = 0; idx < width; ++idx) {
                    ref[tau_rank * width + idx] = std::move(acc[idx]);
                    acc[idx] = Rational{0};
                }
                ++tau_rank;
                from = 0;
            } else {
                from = walker.lowest_changed() - fw;
            }
        }
        digit_moves += walker.digit_moves();
    }

    // Phase B — joint deviations: (tau_T, tau_C) cells in the serial
    // enumeration order (faulty outer, coalition inner), each accumulated
    // over the remaining players' support and judged on completion.
    {
        const std::size_t dw = fw + width;
        util::OffsetWalker walker;
        walker.reserve(dw + rest.size());
        for (const std::size_t p : faulty) {
            const auto& column = view_.cell_offsets(p);
            walker.add_digit(column.data(), column.size());
        }
        for (const std::size_t p : coalition) {
            const auto& column = view_.cell_offsets(p);
            walker.add_digit(column.data(), column.size());
        }
        for (const std::size_t p : rest) {
            walker.add_digit(plan.offsets[p].data(), plan.offsets[p].size());
        }
        walker.reset();
        const auto& tuple = walker.tuple();
        std::vector<Rational> prefix(rest.size() + 1, Rational{1});
        std::vector<Rational> acc(width, Rational{0});
        PureProfile tau_t(fw, 0);
        PureProfile tau_c(width, 0);
        std::size_t from = 0;
        std::size_t tau_rank = 0;
        bool more = true;
        while (more) {
            ++cells;
            if (grant != nullptr && (cells % kGrantCheckCells) == 0) {
                flush_at(digit_moves + walker.digit_moves());
                if (grant->expired()) return std::nullopt;  // truncated
            }
            for (std::size_t j = from; j < rest.size(); ++j) {
                const std::size_t p = rest[j];
                prefix[j + 1] = prefix[j] * (*profile_)[p][plan.actions[p][tuple[dw + j]]];
            }
            const Rational& weight = prefix[rest.size()];
#if BNASH_AUDIT_ENABLED
            {
                Rational full{1};
                for (std::size_t j = 0; j < rest.size(); ++j) {
                    const std::size_t p = rest[j];
                    full = full * (*profile_)[p][plan.actions[p][tuple[dw + j]]];
                }
                BNASH_AUDIT_CHECK(full == weight,
                                  "sparse_resilience_scan phase B: incremental "
                                  "rest-weight prefix drifted from a from-scratch "
                                  "product");
            }
#endif
            for (std::size_t idx = 0; idx < width; ++idx) {
                acc[idx] += weight * view_.payoff_from(walker.row(), coalition[idx]);
            }
            more = walker.advance();
            if (!more || walker.lowest_changed() < dw) {
                const Rational* base = &ref[tau_rank * width];
                bool any_gain = false;
                bool all_gain = true;
                std::size_t witness = coalition[0];
                Rational witness_before;
                Rational witness_after;
                for (std::size_t idx = 0; idx < width; ++idx) {
                    if (acc[idx] > base[idx]) {
                        if (!any_gain) {
                            witness = coalition[idx];
                            witness_before = base[idx];
                            witness_after = acc[idx];
                        }
                        any_gain = true;
                    } else {
                        all_gain = false;
                    }
                }
                const bool violated = criterion == GainCriterion::kAnyMemberGains
                                          ? any_gain
                                          : (all_gain && !coalition.empty());
                if (violated) {
                    flush_at(digit_moves + walker.digit_moves());
                    return RobustnessViolation{coalition,
                                               faulty,
                                               tau_c,
                                               tau_t,
                                               witness,
                                               witness_before.to_double(),
                                               witness_after.to_double()};
                }
                if (!more) break;
                if (walker.lowest_changed() < fw) ++tau_rank;
                for (std::size_t d = 0; d < fw; ++d) tau_t[d] = tuple[d];
                for (std::size_t d = 0; d < width; ++d) tau_c[d] = tuple[fw + d];
                std::fill(acc.begin(), acc.end(), Rational{0});
                from = 0;
            } else {
                from = walker.lowest_changed() - dw;
            }
        }
        digit_moves += walker.digit_moves();
    }
    flush_at(digit_moves);
    return std::nullopt;
}

std::optional<RobustnessViolation> CoalitionSweep::immunity_task(
    const std::vector<std::size_t>& faulty, const std::vector<Rational>& baseline,
    game::SweepMode mode, std::uint64_t split_cells) const {
    const std::size_t n = view_.num_players();
    if (!pure_) return sparse_immunity_task(faulty, baseline);
    std::vector<std::size_t> outsiders;
    outsiders.reserve(n - faulty.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (std::find(faulty.begin(), faulty.end(), i) == faulty.end()) {
            outsiders.push_back(i);
        }
    }
    std::uint64_t total = 1;
    for (const std::size_t p : faulty) total *= view_.num_actions(p);
    if (should_split_intra(mode, total, split_cells)) {
        return intra_immunity_scan(view_, *pure_, base_row_, faulty, outsiders, baseline,
                                   total);
    }
    JointScan scan;
    scan.init(view_, *pure_, faulty);
    scan.reset(base_row_);
    util::ExecutionGrant* const grant = util::active_grant();
    std::uint64_t cells = 0;
    std::uint64_t flushed_cells = 0;
    std::uint64_t flushed_moves = 0;
    // Chunked counter flush; totals identical to the old single add.
    const auto flush = [&] {
        util::work_counters_add(cells - flushed_cells, scan.digit_moves() - flushed_moves);
        flushed_cells = cells;
        flushed_moves = scan.digit_moves();
    };
    do {
        ++cells;
        for (const std::size_t i : outsiders) {
            const Rational& after = view_.payoff_from(scan.row(), i);
            if (after < baseline[i]) {
                flush();
                return RobustnessViolation{{},
                                           faulty,
                                           {},
                                           scan.tuple(),
                                           i,
                                           baseline[i].to_double(),
                                           after.to_double()};
            }
        }
        if (grant != nullptr && (cells % kGrantCheckCells) == 0) {
            flush();
            if (grant->expired()) return std::nullopt;  // truncated
        }
    } while (scan.advance());
    flush();
    return std::nullopt;
}

std::optional<RobustnessViolation> CoalitionSweep::resilience_task(
    const std::vector<std::size_t>& coalition, std::size_t min_t, std::size_t max_t,
    GainCriterion criterion, game::SweepMode mode, std::uint64_t split_cells) const {
    const std::size_t n = view_.num_players();
    // Disjoint faulty sets, the empty one first (matches the reference
    // checker's enumeration order exactly).
    std::vector<std::size_t> others;
    others.reserve(n - coalition.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (std::find(coalition.begin(), coalition.end(), i) == coalition.end()) {
            others.push_back(i);
        }
    }
    const std::size_t width = coalition.size();
    util::ExecutionGrant* const grant = util::active_grant();
    if (pure_) {
        std::uint64_t coalition_cells = 1;
        for (const std::size_t p : coalition) coalition_cells *= view_.num_actions(p);
        JointScan coalition_scan;
        coalition_scan.init(view_, *pure_, coalition);
        // Both scans and the reference row are reused across faulty sets:
        // the inner loops allocate nothing.
        JointScan faulty_scan;
        std::vector<const Rational*> reference(width);
        std::vector<std::size_t> faulty;
        std::uint64_t cells = 0;
        std::uint64_t flushed_cells = 0;
        std::uint64_t flushed_moves = 0;
        // Chunked flush (cells and moves are cumulative across faulty
        // sets); totals identical to the old single add per exit path.
        const auto flush_counters = [&] {
            const std::uint64_t moves =
                faulty_scan.digit_moves() + coalition_scan.digit_moves();
            util::work_counters_add(cells - flushed_cells, moves - flushed_moves);
            flushed_cells = cells;
            flushed_moves = moves;
        };
        const auto scan_serial =
            [&]() -> std::optional<RobustnessViolation> {
            faulty_scan.init(view_, *pure_, faulty);
            faulty_scan.reset(base_row_);
            do {
                // Coalition's reference payoffs: sigma_C against this
                // tau_T (borrowed straight from the tensor, no copies).
                for (std::size_t idx = 0; idx < width; ++idx) {
                    reference[idx] = &view_.payoff_from(faulty_scan.row(), coalition[idx]);
                }
                coalition_scan.reset(faulty_scan.row());
                do {
                    ++cells;
                    bool any_gain = false;
                    bool all_gain = true;
                    std::size_t witness = coalition[0];
                    const Rational* witness_before = nullptr;
                    const Rational* witness_after = nullptr;
                    for (std::size_t idx = 0; idx < width; ++idx) {
                        const Rational& after =
                            view_.payoff_from(coalition_scan.row(), coalition[idx]);
                        if (after > *reference[idx]) {
                            if (!any_gain) {
                                witness = coalition[idx];
                                witness_before = reference[idx];
                                witness_after = &after;
                            }
                            any_gain = true;
                        } else {
                            all_gain = false;
                        }
                    }
                    const bool violated = criterion == GainCriterion::kAnyMemberGains
                                              ? any_gain
                                              : (all_gain && !coalition.empty());
                    if (violated) {
                        return RobustnessViolation{
                            coalition,
                            faulty,
                            coalition_scan.tuple(),
                            faulty_scan.tuple(),
                            witness,
                            witness_before ? witness_before->to_double() : 0.0,
                            witness_after ? witness_after->to_double() : 0.0};
                    }
                    if (grant != nullptr && (cells % kGrantCheckCells) == 0) {
                        flush_counters();
                        // Truncated — the caller observes the expired
                        // grant and discards the (absent) verdict.
                        if (grant->expired()) return std::nullopt;
                    }
                } while (coalition_scan.advance());
            } while (faulty_scan.advance());
            return std::nullopt;
        };
        // Ranged-block split for huge per-faulty-set scans; serial nested
        // walk otherwise. Both produce the first violation in the same
        // enumeration order.
        const auto scan_one = [&]() -> std::optional<RobustnessViolation> {
            std::uint64_t total = coalition_cells;
            for (const std::size_t p : faulty) total *= view_.num_actions(p);
            if (should_split_intra(mode, total, split_cells)) {
                return intra_resilience_scan(view_, *pure_, base_row_, coalition, faulty,
                                             criterion, total);
            }
            return scan_serial();
        };
        // The empty faulty set first, then every disjoint T with
        // min_t <= |T| <= max_t — the reference checker's order.
        if (min_t == 0) {
            if (auto violation = scan_one()) {
                flush_counters();
                return violation;
            }
        }
        if (max_t > 0) {
            const util::SubsetEnumerator enumerator(others.size(), max_t);
            for (const auto& index_set : enumerator) {
                if (index_set.size() < min_t) continue;
                if (grant != nullptr && grant->expired()) {
                    flush_counters();
                    return std::nullopt;  // truncated between faulty sets
                }
                faulty.clear();
                for (const std::size_t idx : index_set) faulty.push_back(others[idx]);
                if (auto violation = scan_one()) {
                    flush_counters();
                    return violation;
                }
            }
        }
        flush_counters();
        return std::nullopt;
    }

    // Mixed candidate: one fused support-sparse scan per faulty set.
    if (min_t == 0) {
        if (auto violation = sparse_resilience_scan(coalition, {}, criterion)) {
            return violation;
        }
    }
    if (max_t > 0) {
        const util::SubsetEnumerator enumerator(others.size(), max_t);
        std::vector<std::size_t> faulty;
        for (const auto& index_set : enumerator) {
            if (index_set.size() < min_t) continue;
            if (grant != nullptr && grant->expired()) return std::nullopt;  // truncated
            faulty.clear();
            for (const std::size_t idx : index_set) faulty.push_back(others[idx]);
            if (auto violation = sparse_resilience_scan(coalition, faulty, criterion)) {
                return violation;
            }
        }
    }
    return std::nullopt;
}

std::vector<Rational> CoalitionSweep::immunity_baseline() const {
    const std::size_t n = view_.num_players();
    std::vector<Rational> baseline(n);
    if (pure_) {
        for (std::size_t i = 0; i < n; ++i) baseline[i] = view_.payoff_from(base_row_, i);
    } else {
        // One shared support sweep for ALL players (the per-player
        // fallback ran n of them).
        baseline = game::PayoffEngine(view_).expected_payoffs_exact_sparse(*profile_);
    }
    return baseline;
}

std::optional<RobustnessViolation> CoalitionSweep::immunity_violation(
    std::size_t t, game::SweepMode mode) const {
    if (t == 0) return std::nullopt;
    const std::vector<Rational> baseline = immunity_baseline();
    const util::SubsetEnumerator faulty_sets(view_.num_players(), t);
    // Mixed candidates parallelize across tasks too: each fused
    // support-sparse scan is a self-contained single walk (unlike the old
    // fallback, whose expected sweeps competed for the pool), and
    // run_tasks' lowest-index winner keeps the reported violation
    // identical to the serial order.
    const auto effective = mode;
    const std::uint64_t split =
        sweep_intra_split_cells(faulty_sets.size(), max_scan_cells(view_, t));
    auto run = run_tasks(faulty_sets.size(), effective, [&](std::size_t index) {
        return immunity_task(faulty_sets[index], baseline, effective, split);
    });
    if (!run.hit) return std::nullopt;
    return std::move(run.hit->second);
}

std::optional<RobustnessViolation> CoalitionSweep::resilience_violation(
    std::size_t k, std::size_t t, GainCriterion criterion, game::SweepMode mode) const {
    if (k == 0) return std::nullopt;
    const util::SubsetEnumerator coalitions(view_.num_players(), k);
    // See immunity_violation: mixed tasks run fused sparse scans and
    // share the same deterministic winner discipline as pure ones.
    const auto effective = mode;
    const std::uint64_t split =
        sweep_intra_split_cells(coalitions.size(), max_scan_cells(view_, k + t));
    auto run = run_tasks(coalitions.size(), effective, [&](std::size_t index) {
        return resilience_task(coalitions[index], 0, t, criterion, effective, split);
    });
    if (!run.hit) return std::nullopt;
    return std::move(run.hit->second);
}

std::optional<RobustnessViolation> CoalitionSweep::robustness_violation(
    std::size_t k, std::size_t t, const RobustnessOptions& options) const {
    return robustness_violation(k, t, options, nullptr, nullptr);
}

std::optional<RobustnessViolation> CoalitionSweep::robustness_violation(
    std::size_t k, std::size_t t, const RobustnessOptions& options,
    const SweepCheckpoint* resume, SweepCheckpoint* checkpoint) const {
    // An empty checkpoint (no progress recorded) is a fresh run.
    if (resume != nullptr && !resume->immunity_done && resume->immunity_next == 0) {
        resume = nullptr;
    }
    if (checkpoint != nullptr) *checkpoint = SweepCheckpoint{};
    // Part (a): non-deviators are not hurt by up to t arbitrary players.
    // Resume soundness mirrors run_tasks_from: tasks below the recorded
    // rank were verified clean by the earlier runs, so any hit found here
    // is the global-first witness.
    if (t > 0 && !(resume != nullptr && resume->immunity_done)) {
        const std::vector<Rational> baseline = immunity_baseline();
        const util::SubsetEnumerator faulty_sets(view_.num_players(), t);
        const auto effective = options.mode;
        const std::uint64_t split =
            sweep_intra_split_cells(faulty_sets.size(), max_scan_cells(view_, t));
        const std::size_t start =
            resume != nullptr ? static_cast<std::size_t>(resume->immunity_next) : 0;
        auto run = run_tasks_from(start, faulty_sets.size(), effective, [&](std::size_t index) {
            return immunity_task(faulty_sets[index], baseline, effective, split);
        });
        if (run.hit) {
            if (checkpoint != nullptr) checkpoint->finished = true;
            return std::move(run.hit->second);
        }
        if (run.verified < faulty_sets.size()) {
            // Truncated: the caller observes the expired grant and treats
            // the nullopt as kUnknown; the checkpoint seeks the retry.
            if (checkpoint != nullptr) checkpoint->immunity_next = run.verified;
            return std::nullopt;
        }
    }
    if (checkpoint != nullptr) checkpoint->immunity_done = true;
    // Part (b): no coalition gains against any disjoint faulty set.
    if (k == 0) {
        if (checkpoint != nullptr) checkpoint->finished = true;
        return std::nullopt;
    }
    const util::SubsetEnumerator coalitions(view_.num_players(), k);
    const auto effective = options.mode;
    const std::uint64_t split =
        sweep_intra_split_cells(coalitions.size(), max_scan_cells(view_, k + t));
    const std::size_t start = resume != nullptr && resume->immunity_done
                                  ? static_cast<std::size_t>(resume->next_task)
                                  : 0;
    auto run = run_tasks_from(start, coalitions.size(), effective, [&](std::size_t index) {
        return resilience_task(coalitions[index], 0, t, options.criterion, effective, split);
    });
    if (run.hit) {
        if (checkpoint != nullptr) checkpoint->finished = true;
        return std::move(run.hit->second);
    }
    if (checkpoint != nullptr) {
        if (run.verified == coalitions.size()) {
            checkpoint->finished = true;
        } else {
            checkpoint->next_task = run.verified;
        }
    }
    return std::nullopt;
}

BatchVerdict CoalitionSweep::batch_resilience(std::size_t max_k, GainCriterion criterion,
                                              game::SweepMode mode) const {
    BatchVerdict out;
    out.violations.assign(max_k, std::nullopt);
    if (max_k == 0) return out;
    const util::SubsetEnumerator coalitions(view_.num_players(), max_k);
    const auto effective = mode;
    const std::uint64_t split =
        sweep_intra_split_cells(coalitions.size(), max_scan_cells(view_, max_k));
    auto run = run_tasks(coalitions.size(), effective, [&](std::size_t index) {
        return resilience_task(coalitions[index], 0, 0, criterion, effective, split);
    });
    if (run.hit) {
        // Every probe with k >= |winning coalition| enumerates the same
        // prefix and stops at the same task; smaller k never reaches it.
        const std::size_t breaking = coalitions[run.hit->first].size();
        out.max_ok = breaking - 1;
        for (std::size_t k = breaking; k <= max_k; ++k) {
            out.violations[k - 1] = run.hit->second;
        }
        return out;
    }
    if (run.verified == coalitions.size()) {
        out.max_ok = max_k;
        return out;
    }
    // Grant truncation: the verified prefix covers every coalition
    // strictly smaller than the first unverified task's (size-major
    // order); larger sizes are unknown, not clean.
    out.max_ok = coalitions[run.verified].size() - 1;
    out.complete = false;
    return out;
}

FrontierVerdict CoalitionSweep::batch_robustness_frontier(std::size_t max_k,
                                                          std::size_t max_t,
                                                          GainCriterion criterion,
                                                          game::SweepMode mode) const {
    return batch_robustness_frontier(max_k, max_t, criterion, mode, nullptr, nullptr, nullptr);
}

FrontierVerdict CoalitionSweep::batch_robustness_frontier(
    std::size_t max_k, std::size_t max_t, GainCriterion criterion, game::SweepMode mode,
    const SweepCheckpoint* resume, SweepCheckpoint* checkpoint,
    const FrontierColumnSink& on_column) const {
    util::ExecutionGrant* const grant = util::active_grant();
    // An empty checkpoint (no progress recorded) is a fresh run.
    if (resume != nullptr && !resume->immunity_done && resume->immunity_next == 0) {
        resume = nullptr;
    }
    FrontierVerdict out;
    out.max_k = max_k;
    out.max_t = max_t;
    out.cells.assign((max_k + 1) * (max_t + 1), std::nullopt);
    const std::size_t stride = max_t + 1;

    // Part (a): one shared faulty-set sweep gives every t-column's
    // immunity verdict (the independent probes check immunity FIRST, so a
    // broken column takes the immunity witness for every k). A truncated
    // immunity sweep leaves the columns beyond its verified boundary
    // UNRESOLVED rather than broken. A resumed run whose checkpoint
    // already finished the phase reuses the recorded boundary: the broken
    // columns' witnesses were delivered by the run that finished it, so
    // THIS grid leaves them kUnknown.
    bool immunity_done = false;
    bool immunity_exact_now = false;  // phase finished THIS run: witnesses in hand
    std::size_t immunity_ok = 0;
    std::uint64_t immunity_next = 0;
    if (resume != nullptr && resume->immunity_done) {
        immunity_done = true;
        immunity_ok = resume->immunity_ok;
    } else {
        const ImmunityPhase phase =
            immunity_phase(max_t, mode, resume != nullptr ? resume->immunity_next : 0);
        immunity_done = phase.done;
        immunity_next = phase.next_task;
        immunity_ok = phase.verdict.max_ok;
        if (immunity_done) {
            immunity_exact_now = true;
            for (std::size_t t = immunity_ok + 1; t <= max_t; ++t) {
                for (std::size_t k = 0; k <= max_k; ++k) {
                    out.cells[k * stride + t] = phase.verdict.violations[t - 1];
                }
                if (on_column) {
                    on_column(t, 0,
                              phase.verdict.violations[t - 1]
                                  ? &*phase.verdict.violations[t - 1]
                                  : nullptr);
                }
            }
        }
    }

    // Part (b): the size-major coalition sweep resolves the surviving
    // columns. A task's cap is the highest still-unresolved column (the
    // unresolved set is always a t-prefix: every hit resolves a suffix,
    // and columns resolved by EARLIER resumed runs were suffixes then),
    // and a hit at faulty size s0 claims every column t >= s0 the task is
    // still the lowest index for. Resume soundness: a column still open
    // now was open during every earlier run too, so its cap covered it in
    // all tasks [0, start_b) — the seek changes no cap, winner, or scan.
    const std::size_t t_res = std::min(max_t, immunity_ok);
    // Per-column outcome. A resolved column either has a valid winning
    // task (breaking_k[t] = that coalition's size) or verified the whole
    // sweep clean (breaking_k[t] = max_k + 1); a column truncated by the
    // grant is clean only for k <= verified_k[t] and unknown above.
    std::vector<char> resolved(t_res + 1, 1);
    std::vector<std::size_t> verified_k(t_res + 1, max_k);
    std::vector<std::size_t> breaking_k(t_res + 1, max_k + 1);
    // Columns whose verdict (and witness) an earlier run already
    // delivered: out of play for caps and winners, kUnknown in this grid.
    std::vector<char> done_before(t_res + 1, 0);
    if (resume != nullptr && resume->immunity_done) {
        for (std::size_t t = 0; t <= t_res && t < resume->column_done.size(); ++t) {
            done_before[t] = resume->column_done[t] != 0 ? 1 : 0;
        }
    }
    const std::size_t start_b = resume != nullptr && resume->immunity_done
                                    ? static_cast<std::size_t>(resume->next_task)
                                    : 0;
    std::size_t next_task_out = 0;  // first unverified task rank, for the checkpoint
    if (max_k > 0) {  // k = 0 row: resilience is vacuous
        const util::SubsetEnumerator coalitions(view_.num_players(), max_k);
        const std::size_t num_tasks = coalitions.size();
        std::vector<std::optional<RobustnessViolation>> found(num_tasks);
        std::vector<std::size_t> winner(t_res + 1, num_tasks);
        const auto effective = mode;
        const std::uint64_t split =
            sweep_intra_split_cells(num_tasks, max_scan_cells(view_, max_k + t_res));
        auto& pool = util::global_pool();
        const std::size_t live_tasks = num_tasks > start_b ? num_tasks - start_b : 0;
        if (effective == game::SweepMode::kSerial || pool.size() <= 1 || live_tasks <= 1) {
            std::size_t reached = num_tasks;  // tasks [0, reached) ran untruncated
            for (std::size_t index = start_b; index < num_tasks; ++index) {
                std::size_t cap = 0;
                bool unresolved = false;
                for (std::size_t t = t_res + 1; t-- > 0;) {
                    if (!done_before[t] && winner[t] == num_tasks) {
                        cap = t;
                        unresolved = true;
                        break;
                    }
                }
                if (!unresolved) break;
                if (grant != nullptr && grant->expired()) {
                    reached = index;
                    break;
                }
                auto violation =
                    resilience_task(coalitions[index], 0, cap, criterion, effective, split);
                // A truncated task cannot vouch for its verdict (see
                // run_tasks); its hit is discarded too.
                if (grant != nullptr && grant->expired()) {
                    reached = index;
                    break;
                }
                if (violation) {
                    const std::size_t s0 = violation->faulty.size();
                    found[index] = std::move(violation);
                    for (std::size_t t = s0; t <= t_res; ++t) {
                        if (!done_before[t] && winner[t] == num_tasks) {
                            winner[t] = index;
                            // Serial in-order execution: the winner is
                            // final the moment it is pinned — stream it.
                            if (on_column) {
                                on_column(t, coalitions[index].size(), &*found[index]);
                            }
                        }
                    }
                }
            }
            next_task_out = reached;
            if (reached < num_tasks) {
                // In-order execution: winners found before the cutoff are
                // valid; every still-open column was live the whole time
                // (its cap covered it in every executed task), so its
                // clean prefix is exactly [0, reached).
                for (std::size_t t = 0; t <= t_res; ++t) {
                    if (!done_before[t] && winner[t] == num_tasks) {
                        resolved[t] = 0;
                        verified_k[t] = coalitions[reached].size() - 1;
                    }
                }
            } else if (on_column) {
                // Clean columns become final only when the sweep finishes.
                for (std::size_t t = 0; t <= t_res; ++t) {
                    if (!done_before[t] && winner[t] == num_tasks) {
                        on_column(t, max_k + 1, nullptr);
                    }
                }
            }
        } else {
            std::vector<std::atomic<std::size_t>> best(t_res + 1);
            for (std::size_t t = 0; t <= t_res; ++t) {
                // A column resolved by an earlier resumed run is out of
                // play: no task can win it and no cap covers it.
                best[t].store(done_before[t] ? 0 : num_tasks, std::memory_order_relaxed);
            }
            std::vector<std::exception_ptr> errors(num_tasks);
            // Under a grant: per-task outcome (see run_tasks) plus the cap
            // the task completed with — a clean task vouches only for the
            // columns its cap covered.
            std::vector<unsigned char> state(grant != nullptr ? num_tasks : 0, 0);
            std::vector<std::size_t> cap_done(grant != nullptr ? num_tasks : 0, 0);
            pool.run_blocks(live_tasks, [&](std::size_t offset) {
                const std::size_t index = start_b + offset;
                // Columns this task could still win form a prefix; its cap
                // is the highest of them. None -> early exit.
                std::size_t cap = 0;
                bool live = false;
                for (std::size_t t = t_res + 1; t-- > 0;) {
                    if (index < best[t].load(std::memory_order_acquire)) {
                        cap = t;
                        live = true;
                        break;
                    }
                }
                if (!live) {
                    if (grant != nullptr) state[index] = 2;
                    return;
                }
                try {
                    auto violation =
                        resilience_task(coalitions[index], 0, cap, criterion, effective, split);
                    if (grant != nullptr) {
                        if (grant->expired()) return;  // truncated: verdict untrusted
                        state[index] = 1;
                        cap_done[index] = cap;
                    }
                    if (violation) {
                        const std::size_t s0 = violation->faulty.size();
                        found[index] = std::move(violation);
                        for (std::size_t t = s0; t <= t_res; ++t) {
                            std::size_t current = best[t].load(std::memory_order_acquire);
                            while (index < current &&
                                   !best[t].compare_exchange_weak(
                                       current, index, std::memory_order_acq_rel)) {
                            }
                        }
                    }
                } catch (...) {
                    errors[index] = std::current_exception();
                    if (grant != nullptr) {
                        state[index] = 1;
                        cap_done[index] = cap;
                    }
                }
            });
            std::size_t reach = start_b;
            for (std::size_t t = 0; t <= t_res; ++t) {
                winner[t] = done_before[t] ? num_tasks : best[t].load(std::memory_order_acquire);
                if (!done_before[t]) reach = std::max(reach, winner[t]);
            }
            next_task_out = num_tasks;
            if (grant != nullptr && grant->expired()) {
                // Column-by-column completed-prefix resolution: task i
                // vouches for column t iff it completed untruncated with a
                // cap covering t and its first violation (if any) sits at
                // a faulty size beyond t. A winner stands iff every lower
                // live task vouches for its column (tasks below start_b
                // were vouched for by the earlier runs).
                for (std::size_t t = 0; t <= t_res; ++t) {
                    if (done_before[t]) continue;
                    std::size_t i = start_b;
                    for (; i < num_tasks; ++i) {
                        if (i == winner[t]) break;
                        const bool vouches = state[i] == 1 && cap_done[i] >= t &&
                                             (!found[i] || found[i]->faulty.size() > t);
                        if (!vouches) break;
                    }
                    if (i == num_tasks) continue;                           // clean, resolved
                    if (i == winner[t] && winner[t] < num_tasks) continue;  // broken, resolved
                    resolved[t] = 0;
                    winner[t] = num_tasks;  // an unvouched winner is discarded
                    verified_k[t] = coalitions[i].size() - 1;
                    next_task_out = std::min(next_task_out, i);
                }
                // Errors at tasks the budgeted serial loop would have
                // reached (before both the winner and the truncation
                // point) surface lowest-index first.
                std::size_t untruncated = start_b;
                while (untruncated < num_tasks && state[untruncated] != 0) ++untruncated;
                for (std::size_t index = start_b; index < std::min(reach, untruncated);
                     ++index) {
                    if (errors[index]) std::rethrow_exception(errors[index]);
                }
            } else {
                // Serial-equivalent error behavior: an error at a task the
                // serial loop would still have reached (below the last
                // column's winner, or anywhere when some column never
                // resolved) is rethrown, lowest index first; errors past
                // every winner are swallowed.
                for (std::size_t index = start_b; index < std::min(reach, num_tasks); ++index) {
                    if (errors[index]) std::rethrow_exception(errors[index]);
                }
            }
            if (on_column) {
                // Parallel execution pins winners out of order; columns
                // become final only once the vouch pass settles, so emit
                // them here in t order.
                for (std::size_t t = 0; t <= t_res; ++t) {
                    if (done_before[t] || resolved[t] == 0) continue;
                    if (winner[t] == num_tasks) {
                        on_column(t, max_k + 1, nullptr);
                    } else {
                        on_column(t, coalitions[winner[t]].size(), &*found[winner[t]]);
                    }
                }
            }
        }
        // Cell (k, t): the lowest winning task fits iff its coalition fits
        // in k (tasks are size-major, so "index < first size-(k+1) task"
        // and "size <= k" coincide).
        for (std::size_t t = 0; t <= t_res; ++t) {
            if (winner[t] == num_tasks) continue;
            breaking_k[t] = coalitions[winner[t]].size();
            for (std::size_t k = breaking_k[t]; k <= max_k; ++k) {
                out.cells[k * stride + t] = found[winner[t]];
            }
        }
    } else if (on_column) {
        // max_k == 0: resilience is vacuous, so every immune column is
        // final the moment the immunity phase covers it.
        for (std::size_t t = 0; t <= t_res; ++t) {
            if (!done_before[t]) on_column(t, max_k + 1, nullptr);
        }
    }

    // Checkpoint capture: enough to seek a later run past every verified
    // task and every column whose verdict has already been delivered.
    bool sweep_finished = immunity_done;
    for (std::size_t t = 0; t <= t_res && sweep_finished; ++t) {
        sweep_finished = done_before[t] != 0 || resolved[t] != 0;
    }
    if (checkpoint != nullptr) {
        *checkpoint = SweepCheckpoint{};
        checkpoint->finished = sweep_finished;
        checkpoint->immunity_done = immunity_done;
        checkpoint->immunity_next = immunity_next;
        checkpoint->immunity_ok = immunity_ok;
        if (immunity_done && !sweep_finished) {
            checkpoint->next_task = next_task_out;
            checkpoint->column_done.assign(t_res + 1, 0);
            for (std::size_t t = 0; t <= t_res; ++t) {
                checkpoint->column_done[t] = (done_before[t] != 0 || resolved[t] != 0) ? 1 : 0;
            }
        }
    }

    // Resolution bookkeeping: a fresh untruncated run resolves every cell
    // and keeps `states` in its empty "all resolved" form. A resumed run
    // never does — the columns earlier runs resolved stay kUnknown here
    // (merge_frontier reassembles the full grid).
    bool all_resolved = resume == nullptr && immunity_exact_now;
    for (std::size_t t = 0; t <= t_res && all_resolved; ++t) {
        all_resolved = resolved[t] != 0;
    }
    if (all_resolved) {
        out.cells_resolved = out.cells.size();
        return out;
    }
    out.states.assign(out.cells.size(), CellVerdict::kUnknown);
    for (std::size_t t = 0; t <= max_t; ++t) {
        if (t > t_res) {
            // Beyond the immunity boundary: broken everywhere when the
            // boundary became exact THIS run; unknown when it is still
            // truncated or when an earlier resumed run already delivered
            // those columns.
            if (immunity_exact_now) {
                for (std::size_t k = 0; k <= max_k; ++k) {
                    out.states[k * stride + t] = CellVerdict::kBroken;
                }
            }
            continue;
        }
        if (done_before[t]) continue;  // delivered by an earlier run
        if (resolved[t] != 0) {
            for (std::size_t k = 0; k <= max_k; ++k) {
                out.states[k * stride + t] =
                    k < breaking_k[t] ? CellVerdict::kRobust : CellVerdict::kBroken;
            }
        } else {
            for (std::size_t k = 0; k <= verified_k[t]; ++k) {
                out.states[k * stride + t] = CellVerdict::kRobust;
            }
        }
    }
    out.cells_resolved = 0;
    for (const CellVerdict s : out.states) {
        if (s != CellVerdict::kUnknown) ++out.cells_resolved;
    }
    return out;
}

BatchVerdict CoalitionSweep::batch_immunity(std::size_t max_t, game::SweepMode mode) const {
    return immunity_phase(max_t, mode, 0).verdict;
}

CoalitionSweep::ImmunityPhase CoalitionSweep::immunity_phase(std::size_t max_t,
                                                             game::SweepMode mode,
                                                             std::uint64_t start) const {
    ImmunityPhase phase;
    BatchVerdict& out = phase.verdict;
    out.violations.assign(max_t, std::nullopt);
    if (max_t == 0) {
        phase.done = true;
        return phase;
    }
    const std::vector<Rational> baseline = immunity_baseline();
    const util::SubsetEnumerator faulty_sets(view_.num_players(), max_t);
    const auto effective = mode;
    const std::uint64_t split =
        sweep_intra_split_cells(faulty_sets.size(), max_scan_cells(view_, max_t));
    auto run = run_tasks_from(static_cast<std::size_t>(start), faulty_sets.size(), effective,
                              [&](std::size_t index) {
                                  return immunity_task(faulty_sets[index], baseline, effective,
                                                       split);
                              });
    if (run.hit) {
        // Tasks below `start` were verified clean by the earlier runs, so
        // this hit is the global-first one — the witness an unbudgeted
        // sweep reports.
        const std::size_t breaking = faulty_sets[run.hit->first].size();
        out.max_ok = breaking - 1;
        for (std::size_t t = breaking; t <= max_t; ++t) {
            out.violations[t - 1] = run.hit->second;
        }
        phase.done = true;
        phase.next_task = faulty_sets.size();
        return phase;
    }
    if (run.verified == faulty_sets.size()) {
        out.max_ok = max_t;
        phase.done = true;
        phase.next_task = faulty_sets.size();
        return phase;
    }
    // Grant truncation: sizes beyond the verified prefix are unknown.
    out.max_ok = run.verified == 0 ? 0 : faulty_sets[run.verified].size() - 1;
    out.complete = false;
    phase.next_task = run.verified;
    return phase;
}

MaxKtResult CoalitionSweep::max_kt(std::size_t max_k, std::size_t max_t,
                                   GainCriterion criterion, game::SweepMode mode) const {
    return max_kt(max_k, max_t, criterion, mode, nullptr, nullptr);
}

MaxKtResult CoalitionSweep::max_kt(std::size_t max_k, std::size_t max_t,
                                   GainCriterion criterion, game::SweepMode mode,
                                   const SweepCheckpoint* resume,
                                   SweepCheckpoint* checkpoint) const {
    // An empty checkpoint (no progress recorded) is a fresh run.
    if (resume != nullptr && !resume->immunity_done && resume->immunity_next == 0) {
        resume = nullptr;
    }
    MaxKtResult out;
    out.max_k = max_k;
    out.max_t = max_t;
    // t-axis: the shared immunity sweep pins the last column holding any
    // robust cell. Resolves (0, immunity_ok) robust, and — when the
    // boundary is interior and the sweep untruncated — (0, immunity_ok+1)
    // broken. A resumed run restores the recorded boundary and walk
    // prefix, so the run that finally completes returns a result
    // bit-identical to one unbudgeted run (cells_resolved included: the
    // checkpoint carries the cumulative count).
    std::size_t t0 = 0;
    std::size_t k_prev = max_k;
    std::size_t col_start = 0;
    if (resume != nullptr && resume->immunity_done) {
        out.immunity_ok = resume->immunity_ok;
        out.immunity_exact = true;
        out.complete = true;
        out.cells_resolved = static_cast<std::size_t>(resume->walk_cells_resolved);
        out.k_of_t = resume->walk_k_of_t;
        t0 = resume->walk_t;
        k_prev = resume->walk_k_prev;
        col_start = static_cast<std::size_t>(resume->next_task);
    } else {
        const ImmunityPhase phase =
            immunity_phase(max_t, mode, resume != nullptr ? resume->immunity_next : 0);
        out.immunity_ok = phase.verdict.max_ok;
        out.immunity_exact = phase.done;
        out.complete = phase.done;
        out.cells_resolved = 1 + (out.immunity_ok < max_t && phase.done ? 1 : 0);
        if (!phase.done && checkpoint != nullptr) {
            // A resumable run truncated mid-immunity reports no columns:
            // the retry re-derives the walk from the exact boundary more
            // cheaply than re-walking a provisional one.
            *checkpoint = SweepCheckpoint{};
            checkpoint->immunity_next = phase.next_task;
            return out;
        }
    }
    out.k_of_t.reserve(out.immunity_ok + 1);

    const auto effective = mode;
    bool truncated_walk = false;
    std::uint64_t walk_next = 0;
    for (std::size_t t = t0; t <= out.immunity_ok; ++t) {
        // Every coalition of size <= k_prev is clean for faulty sizes
        // < t (that is what k_of_t[t-1] = k_prev certifies), so this
        // step sweeps ONLY faulty sets of size exactly t — nothing below
        // the current frontier is rescanned. Size-major order makes the
        // first violating task's size s pin kmax(t) = s - 1.
        if (k_prev == 0) {
            out.k_of_t.push_back(0);  // column survives on immunity alone
            col_start = 0;
            continue;
        }
        const util::SubsetEnumerator coalitions(view_.num_players(), k_prev);
        const std::uint64_t split =
            sweep_intra_split_cells(coalitions.size(), max_scan_cells(view_, k_prev + t));
        auto run = run_tasks_from(col_start, coalitions.size(), effective,
                                  [&](std::size_t index) {
                                      return resilience_task(coalitions[index], t, t, criterion,
                                                             effective, split);
                                  });
        col_start = 0;  // the seek applies only to the resumed column
        if (!run.hit && run.verified < coalitions.size()) {
            // Grant expired mid-step: this column's kmax is unresolved,
            // and nothing beyond it can be certified — the walk stops at
            // the last fully resolved column.
            out.complete = false;
            truncated_walk = true;
            walk_next = run.verified;
            break;
        }
        std::size_t kt = k_prev;
        if (run.hit) kt = coalitions[run.hit->first].size() - 1;
        out.k_of_t.push_back(kt);
        out.cells_resolved += 1 + (run.hit ? 1 : 0);
        k_prev = kt;
    }
    if (checkpoint != nullptr) {
        *checkpoint = SweepCheckpoint{};
        checkpoint->immunity_done = true;
        checkpoint->immunity_ok = out.immunity_ok;
        checkpoint->finished = !truncated_walk;
        if (truncated_walk) {
            checkpoint->walk_t = out.k_of_t.size();
            checkpoint->walk_k_prev = k_prev;
            checkpoint->walk_k_of_t = out.k_of_t;
            checkpoint->walk_cells_resolved = out.cells_resolved;
            checkpoint->next_task = walk_next;
        }
    }
    for (std::size_t t = 0; t < out.k_of_t.size(); ++t) {
        if (t + 1 == out.k_of_t.size() || out.k_of_t[t + 1] < out.k_of_t[t]) {
            out.maximal.emplace_back(out.k_of_t[t], t);
        }
    }
    return out;
}

}  // namespace bnash::core
