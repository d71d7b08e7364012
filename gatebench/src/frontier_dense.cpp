// frontier_dense: core::batch_robustness_frontier and core::max_kt on
// asymmetric 5-10 player games with 2-3 actions per player, pooled over
// every executor. Candidates are robust to a planted random depth, so a
// sweep costs anything from microseconds to tens of milliseconds: small
// items expose the pool's dispatch overhead, large ones its speed-up.
#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "core/robust/orbit_sweep.h"
#include "core/robust/robustness.h"
#include "game/game_view.h"
#include "game/symmetry.h"
#include "harness.h"
#include "inputs.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace gatebench {
namespace {

struct DenseItem final {
    PlantedGame planted;
    bool max_kt = false;  // else the full frontier grid
    std::size_t max_k = 1;
    std::size_t max_t = 0;
    std::size_t probe_k = 0;  // cell checked against core::reference::
    std::size_t probe_t = 0;
};

class FrontierDense final : public Workload {
public:
    void generate(const RunOptions& options) override {
        // The shape of every item (players, actions, grid, candidate and
        // planted profiles) comes from a fixed stream, so every seed runs
        // the same cost mix; the seed draws the other payoff values and the
        // order of the items.
        util::Rng shape(0xD15E);
        util::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 11);
        const auto count = static_cast<std::size_t>(std::ceil(240 * options.scale));
        items_.clear();
        for (std::size_t i = 0; i < count; ++i) {
            PlantedSpec spec;
            const std::size_t n = pick(shape, 5, 10);
            // Keep tensors under ~40k profiles so the schedule fits in memory.
            std::uint64_t profiles = 1;
            for (std::size_t p = 0; p < n; ++p) {
                const std::size_t actions = profiles * 3 <= 40000 && shape.next_bool(0.5) ? 3 : 2;
                spec.actions.push_back(actions);
                profiles *= actions;
            }
            DenseItem item;
            item.max_t = pick(shape, 0, n - 2);
            item.max_k = pick(shape, 1, n - 1 - item.max_t);
            const std::size_t reach = item.max_k + item.max_t + 1;
            spec.resilience_depth = shape.next_bool(0.5) ? 0 : pick(shape, 1, reach);
            spec.immunity_depth = shape.next_bool(0.5) ? 0 : pick(shape, 1, reach);
            item.max_kt = shape.next_bool(0.3);
            shape.shuffle(spec.actions);
            item.planted = plant_game(spec, shape, rng);
            item.probe_k = pick(shape, 0, item.max_k);
            item.probe_t = pick(shape, 0, item.max_t);
            items_.push_back(std::move(item));
        }
        rng.shuffle(items_);
    }

    void setup() override {
        for (const DenseItem& item : items_) {
            games_.push_back(to_game(item.planted.spec.actions, item.planted.payoffs));
            profiles_.push_back(core::as_exact_profile(games_.back(), item.planted.candidate));
        }
    }

    void teardown() override {
        games_.clear();
        profiles_.clear();
    }

    [[nodiscard]] std::size_t num_items() const override { return items_.size(); }

    // Pooled runs depend on the slowest vCPU: two full rotations.
    [[nodiscard]] std::size_t min_passes() const override { return 2 * allowed_cpus().size(); }

    [[nodiscard]] std::string run_item(std::size_t i) override {
        return answer(i, game::SweepMode::kAuto);
    }

    [[nodiscard]] std::string expected(std::size_t i) override {
        const DenseItem& item = items_[i];
        const std::string serial = answer(i, game::SweepMode::kSerial);
        const auto reference = core::reference::find_robustness_violation(
            games_[i], profiles_[i], item.probe_k, item.probe_t);
        core::RobustnessOptions options;
        options.mode = game::SweepMode::kSerial;
        const auto grid =
            core::batch_robustness_frontier(games_[i], profiles_[i], item.max_k, item.max_t,
                                            options);
        if (grid.robust(item.probe_k, item.probe_t) == reference.has_value()) {
            return "reference disagrees at cell (" + std::to_string(item.probe_k) + "," +
                   std::to_string(item.probe_t) + ")";
        }
        if (item.max_kt) {
            const auto walk = core::max_kt(games_[i], profiles_[i], item.max_k, item.max_t,
                                           options);
            for (std::size_t k = 0; k <= item.max_k; ++k) {
                for (std::size_t t = 0; t <= item.max_t; ++t) {
                    if (walk.robust(k, t) != grid.robust(k, t)) return "max_kt disagrees";
                }
            }
        }
        return serial;
    }

    void trace_layers(Tracer& tracer, LayerMetrics& out, double seconds) override {
        const std::size_t executors = util::global_pool().size();
        const Clock::time_point start = Clock::now();
        const double budget = seconds * 0.8;

        // Dispatch cost of an empty job on every executor.
        {
            const Tracer::Scope span(tracer, "util.pool.dispatch");
            std::vector<double> calls;
            const std::function<void(std::size_t)> noop = [](std::size_t) {};
            for (int round = 0; round < 2000; ++round) {
                const Clock::time_point t0 = Clock::now();
                util::global_pool().run_blocks(executors, noop);
                calls.push_back(seconds_between(t0, Clock::now()));
            }
            out["util.pool.dispatch_us"] = median(calls) * 1e6;
        }

        // Serial and pooled service times of the same items, and the
        // serial engine's exact cell counts.
        std::vector<double> serial;
        std::vector<double> pooled;
        double cells = 0;
        double pooled_cpu = 0;
        double pooled_wall = 0;
        std::size_t done = 0;
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (seconds_between(start, Clock::now()) > budget * 0.6) break;
            tracer.next_request();
            const util::WorkCounters before = util::work_counters_snapshot();
            {
                const Tracer::Scope span(tracer, "core.dense.serial");
                (void)answer(i, game::SweepMode::kSerial);
            }
            cells += static_cast<double>(util::work_counters_snapshot().cells_visited -
                                         before.cells_visited);
            const auto times = fastest_of(1, 2, [&](std::size_t) {
                (void)answer(i, game::SweepMode::kSerial);
            });
            serial.push_back(times[0]);
            const double cpu0 = process_cpu_seconds();
            const Clock::time_point wall0 = Clock::now();
            const auto auto_times = fastest_of(1, 2, [&](std::size_t) {
                const Tracer::Scope span(tracer, "util.pool.auto");
                (void)answer(i, game::SweepMode::kAuto);
            });
            pooled_cpu += process_cpu_seconds() - cpu0;
            pooled_wall += seconds_between(wall0, Clock::now());
            pooled.push_back(auto_times[0]);
            ++done;
        }
        const double items = static_cast<double>(std::max<std::size_t>(1, done));
        out["core.dense.cells_per_item"] = cells / items;
        out["core.dense.ns_per_cell"] = sum(serial) * 1e9 / std::max(1.0, cells);
        out["util.pool.speedup"] = sum(serial) / sum(pooled);
        out["util.pool.cpu_per_wall"] = pooled_cpu / pooled_wall;
        const double cut = median(serial);
        double small_serial = 0;
        double small_pooled = 0;
        for (std::size_t j = 0; j < serial.size(); ++j) {
            if (serial[j] < cut) {
                small_serial += serial[j];
                small_pooled += pooled[j];
            }
        }
        out["util.pool.small_item_speedup"] =
            small_pooled > 0 ? small_serial / small_pooled : 1.0;

        // Orbit engine over the trivial group against the dense engine, on
        // the frontier items (the parity gate for one robustness engine).
        double dense_s = 0;
        double orbit_s = 0;
        core::RobustnessOptions options;
        options.mode = game::SweepMode::kSerial;
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (seconds_between(start, Clock::now()) > budget) break;
            if (items_[i].max_kt) continue;
            const DenseItem& item = items_[i];
            const auto view = game::GameView::full(games_[i]);
            const auto group = game::SymmetryGroup::trivial(games_[i].num_players());
            const auto dense = fastest_of(1, 2, [&](std::size_t) {
                (void)core::batch_robustness_frontier(games_[i], profiles_[i], item.max_k,
                                                      item.max_t, options);
            });
            const auto orbit = fastest_of(1, 2, [&](std::size_t) {
                const Tracer::Scope span(tracer, "core.orbit.trivial");
                core::OrbitSweep sweep(game::build_quotient(view, group), group,
                                       item.planted.candidate);
                (void)sweep.batch_robustness_frontier(item.max_k, item.max_t,
                                                      options.criterion, options.mode);
            });
            dense_s += dense[0];
            orbit_s += orbit[0];
        }
        out["core.orbit.trivial_over_dense"] = dense_s > 0 ? orbit_s / dense_s : 1.0;
    }

private:
    [[nodiscard]] std::string answer(std::size_t i, game::SweepMode mode) const {
        const DenseItem& item = items_[i];
        core::RobustnessOptions options;
        options.mode = mode;
        if (item.max_kt) {
            return max_kt_text(
                core::max_kt(games_[i], profiles_[i], item.max_k, item.max_t, options));
        }
        return grid_text(core::batch_robustness_frontier(games_[i], profiles_[i], item.max_k,
                                                         item.max_t, options),
                         true);
    }

    std::vector<DenseItem> items_;
    std::vector<game::NormalFormGame> games_;
    std::vector<game::ExactMixedProfile> profiles_;
};

}  // namespace

std::unique_ptr<Workload> make_frontier_dense() { return std::make_unique<FrontierDense>(); }

}  // namespace gatebench
