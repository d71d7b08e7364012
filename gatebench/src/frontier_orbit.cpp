// frontier_orbit: symmetric items on one executor. Tensor-backed anonymous
// games (6-12 players) go through game::SymmetryGroup::detect and the
// routed core::batch_robustness_frontier; quotient-only anonymous games
// (16-60 players, no tensor) go straight through core::OrbitSweep. Symmetry
// detection, build_quotient and orbit ranking do the work; the dense
// engine does none.
#include <cmath>
#include <sstream>

#include "core/robust/anonymous.h"
#include "core/robust/orbit_sweep.h"
#include "core/robust/robustness.h"
#include "game/game_view.h"
#include "game/symmetry.h"
#include "harness.h"
#include "inputs.h"
#include "util/work_counters.h"

namespace gatebench {
namespace {

// Above this many players the dense cross-check costs more than the run.
constexpr std::size_t kDenseCheckPlayers = 8;

struct OrbitItem final {
    std::size_t n = 6;
    bool tensor = true;  // else quotient-only
    std::size_t base = 0;
    std::size_t max_k = 1;
    std::size_t max_t = 0;
    std::vector<std::vector<util::Rational>> table;  // [action][total ones]
};

class FrontierOrbit final : public Workload {
public:
    void generate(const RunOptions& options) override {
        util::Rng shape(0x0B17);
        util::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 23);
        const auto count = static_cast<std::size_t>(std::ceil(240 * options.scale));
        items_.clear();
        for (std::size_t i = 0; i < count; ++i) {
            OrbitItem item;
            item.tensor = shape.next_bool(0.5);
            item.n = item.tensor ? pick(shape, 6, 12) : pick(shape, 16, 60);
            item.base = shape.next_below(2);
            item.max_k =
                pick(shape, 1, std::min<std::size_t>(item.n - 1, item.tensor ? 5 : 24));
            item.max_t = pick(shape, 0,
                              std::min<std::size_t>(item.n - 1 - item.max_k, item.tensor ? 4 : 12));
            // Keeping the base action pays 10..15 (10 when nobody moved),
            // switching pays 4..9; planted: a gain for switchers when the
            // ones count reaches one depth, a hurt bystander at another.
            const std::size_t other = 1 - item.base;
            item.table.assign(2, std::vector<util::Rational>(item.n + 1));
            for (std::size_t ones = 0; ones <= item.n; ++ones) {
                item.table[item.base][ones] = util::Rational(10 + rng.next_int(0, 5));
                item.table[other][ones] = util::Rational(4 + rng.next_int(0, 5));
            }
            const std::size_t untouched = item.base == 0 ? 0 : item.n;
            item.table[item.base][untouched] = util::Rational(10);
            const std::size_t reach = item.max_k + item.max_t + 1;
            const auto moved = [&](std::size_t movers) {
                return item.base == 0 ? movers : item.n - movers;
            };
            if (shape.next_bool(0.6)) {
                item.table[other][moved(pick(shape, 1, reach))] = util::Rational(20);
            }
            if (shape.next_bool(0.5)) {
                item.table[item.base][moved(pick(shape, 1, reach))] = util::Rational(9);
            }
            items_.push_back(std::move(item));
        }
        rng.shuffle(items_);
    }

    void setup() override {
        for (const OrbitItem& item : items_) {
            anonymous_.push_back(core::AnonymousBinaryGame::from_table(item.table));
            if (item.tensor) {
                games_.push_back(anonymous_.back().to_normal_form());
                quotients_.emplace_back();
            } else {
                games_.emplace_back(std::vector<std::size_t>{1});
                quotients_.push_back(anonymous_.back().quotient());
            }
        }
    }

    void teardown() override {
        anonymous_.clear();
        games_.clear();
        quotients_.clear();
    }

    [[nodiscard]] std::size_t num_items() const override { return items_.size(); }

    [[nodiscard]] std::string run_item(std::size_t i) override {
        const OrbitItem& item = items_[i];
        if (item.tensor) {
            const auto view = game::GameView::full(games_[i]);
            const auto group = game::SymmetryGroup::detect(view);
            const auto profile = candidate(i);
            return text(i, core::batch_robustness_frontier(view, group, profile, item.max_k,
                                                           item.max_t));
        }
        core::OrbitSweep sweep(quotients_[i], game::SymmetryGroup::single_class(item.n),
                               {item.base});
        return text(i, sweep.batch_robustness_frontier(item.max_k, item.max_t));
    }

    [[nodiscard]] std::string expected(std::size_t i) override {
        const OrbitItem& item = items_[i];
        const core::AnonymousBinaryGame& closed = anonymous_[i];
        std::ostringstream out;
        out << "immune:";
        for (std::size_t t = 0; t <= item.max_t; ++t) {
            out << (t == 0 || closed.all_base_is_t_immune(item.base, t, game::SweepMode::kSerial)
                        ? 'R'
                        : 'B');
        }
        out << " resilient:";
        for (std::size_t k = 0; k <= item.max_k; ++k) {
            out << (k == 0 || closed.all_base_is_k_resilient(item.base, k,
                                                             core::GainCriterion::kAnyMemberGains,
                                                             game::SweepMode::kSerial)
                        ? 'R'
                        : 'B');
        }
        if (item.tensor && item.n <= kDenseCheckPlayers) {
            core::RobustnessOptions options;
            options.mode = game::SweepMode::kSerial;
            out << " grid:"
                << grid_text(core::batch_robustness_frontier(games_[i], candidate(i),
                                                             item.max_k, item.max_t, options),
                             false);
        }
        return out.str();
    }

    void trace_layers(Tracer& tracer, LayerMetrics& out, double seconds) override {
        const Clock::time_point start = Clock::now();
        std::vector<double> detect;
        std::vector<double> quotient;
        std::vector<double> sweep;
        double cells = 0;
        std::size_t done = 0;
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (seconds_between(start, Clock::now()) > seconds * 0.8) break;
            const OrbitItem& item = items_[i];
            tracer.next_request();
            const Tracer::Scope item_span(tracer, "item");
            game::QuotientGame q = quotients_[i];
            game::SymmetryGroup group = game::SymmetryGroup::single_class(item.n);
            if (item.tensor) {
                const auto view = game::GameView::full(games_[i]);
                detect.push_back(fastest_of(1, 2, [&](std::size_t) {
                    const Tracer::Scope span(tracer, "game.symmetry_detect");
                    group = game::SymmetryGroup::detect(view);
                })[0]);
                quotient.push_back(fastest_of(1, 2, [&](std::size_t) {
                    const Tracer::Scope span(tracer, "game.build_quotient");
                    q = game::build_quotient(view, group);
                })[0]);
            }
            std::vector<std::size_t> base(group.num_classes(), item.base);
            const core::OrbitSweep engine(q, group, base);
            const util::WorkCounters before = util::work_counters_snapshot();
            (void)engine.batch_robustness_frontier(item.max_k, item.max_t);
            cells += static_cast<double>(util::work_counters_snapshot().cells_visited -
                                         before.cells_visited);
            sweep.push_back(fastest_of(1, 2, [&](std::size_t) {
                const Tracer::Scope span(tracer, "core.orbit.sweep");
                (void)engine.batch_robustness_frontier(item.max_k, item.max_t);
            })[0]);
            ++done;
        }
        out["game.symmetry_detect_ms"] = mean(detect) * 1e3;
        out["game.build_quotient_ms"] = mean(quotient) * 1e3;
        out["core.orbit.cells_per_item"] =
            cells / static_cast<double>(std::max<std::size_t>(1, done));
        out["core.orbit.ns_per_cell"] = sum(sweep) * 1e9 / std::max(1.0, cells);
    }

private:
    [[nodiscard]] game::ExactMixedProfile candidate(std::size_t i) const {
        return core::as_exact_profile(games_[i],
                                      game::PureProfile(items_[i].n, items_[i].base));
    }

    // Row k = 0 (immunity) and column t = 0 (resilience) of the grid, which
    // the closed forms decide, plus the whole grid where dense can check it.
    [[nodiscard]] std::string text(std::size_t i, const core::FrontierVerdict& grid) const {
        const OrbitItem& item = items_[i];
        std::ostringstream out;
        out << "immune:";
        for (std::size_t t = 0; t <= item.max_t; ++t) out << (grid.robust(0, t) ? 'R' : 'B');
        out << " resilient:";
        for (std::size_t k = 0; k <= item.max_k; ++k) out << (grid.robust(k, 0) ? 'R' : 'B');
        if (item.tensor && item.n <= kDenseCheckPlayers) out << " grid:" << grid_text(grid, false);
        return out.str();
    }

    std::vector<OrbitItem> items_;
    std::vector<core::AnonymousBinaryGame> anonymous_;
    std::vector<game::NormalFormGame> games_;
    std::vector<game::QuotientGame> quotients_;
};

}  // namespace

std::unique_ptr<Workload> make_frontier_orbit() { return std::make_unique<FrontierOrbit>(); }

}  // namespace gatebench
