// E8: the symmetry-reduction layer — orbit-indexed sweeps vs the dense
// exhaustive-tensor engine.
//
// PR-7 acceptance blocks:
//   R-SYM1: the full (k,t) frontier on the 12-player bargaining game,
//          all-stay profile (resilient at every coalition size, so the
//          dense engine fully quantifies every coalition) — the orbit
//          sweep over the single-class quotient vs the dense
//          CoalitionSweep over the 2^12-profile tensor (target: >= 50x
//          fewer cells_visited, verdict grids bit-identical cell for
//          cell).
//   R-SYM2: the n = 60 anonymous frontier under an ExecutionGrant budget
//          the dense sweep cannot even enter — the dense tensor alone
//          holds 2^60 profiles, twelve orders of magnitude past the
//          grant, while the orbit sweep completes the whole grid inside
//          it.
//
// Serial bench rows report the CI-stable work counters (cells_visited /
// offsets_advanced) that scripts/bench_diff.py gates on.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "core/robust/anonymous.h"
#include "core/robust/orbit_sweep.h"
#include "core/robust/robustness.h"
#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/strategy.h"
#include "game/symmetry.h"
#include "util/execution_grant.h"
#include "util/rational.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/work_counters.h"

namespace {

using namespace bnash;
using bnash::bench::CounterScope;
using bnash::bench::measure_ns;

void print_orbit_vs_dense_acceptance() {
    // The bargaining all-stay profile is resilient at EVERY coalition
    // size, so the dense engine must fully quantify sum_{s<=8} C(12,s)
    // = 3797 coalitions; the orbit engine walks 8 coalition orbits.
    std::cout << "=== R-SYM1: (k,t) frontier k=0..8, t=0..3, 12-player bargaining game, "
                 "all-stay — orbit sweep vs dense CoalitionSweep ===\n";
    const auto abg = core::AnonymousBinaryGame::bargaining(12);
    const game::NormalFormGame g = abg.to_normal_form();
    const auto profile = core::as_exact_profile(g, game::PureProfile(12, 0));
    const std::size_t max_k = 8, max_t = 3;
    const core::RobustnessOptions serial_opts{core::GainCriterion::kAnyMemberGains,
                                              game::SweepMode::kSerial};
    const core::OrbitSweep sweep(abg.quotient(), game::SymmetryGroup::single_class(12), {0});

    util::work_counters_reset();
    const auto dense = core::batch_robustness_frontier(g, profile, max_k, max_t, serial_opts);
    const auto dense_work = util::work_counters_snapshot();
    util::work_counters_reset();
    const auto orbit = sweep.batch_robustness_frontier(
        max_k, max_t, core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial);
    const auto orbit_work = util::work_counters_snapshot();
    util::work_counters_reset();

    bool identical = dense.complete() && orbit.complete();
    for (std::size_t k = 0; k <= max_k; ++k) {
        for (std::size_t t = 0; t <= max_t; ++t) {
            identical = identical && dense.robust(k, t) == orbit.robust(k, t);
        }
    }

    const double dense_ns = measure_ns([&] {
        benchmark::DoNotOptimize(
            core::batch_robustness_frontier(g, profile, max_k, max_t, serial_opts));
    });
    const double orbit_ns = measure_ns([&] {
        benchmark::DoNotOptimize(sweep.batch_robustness_frontier(
            max_k, max_t, core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial));
    });
    util::Table table({"engine", "cells visited", "offsets advanced", "ns/op"});
    table.add_row({"dense CoalitionSweep", util::Table::fmt(dense_work.cells_visited),
                   util::Table::fmt(dense_work.offsets_advanced), util::Table::fmt(dense_ns)});
    table.add_row({"orbit sweep (1 class)", util::Table::fmt(orbit_work.cells_visited),
                   util::Table::fmt(orbit_work.offsets_advanced), util::Table::fmt(orbit_ns)});
    table.print(std::cout);

    const double cell_ratio = static_cast<double>(dense_work.cells_visited) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  orbit_work.cells_visited, 1));
    std::cout << "-> verdict grids bit-identical cell for cell ("
              << (identical ? "PASS" : "MISS") << ")\n";
    std::cout << "-> acceptance: orbit frontier visits >= 50x fewer cells ("
              << util::Table::fmt(cell_ratio, 1) << "x, "
              << (cell_ratio >= 50.0 ? "PASS" : "MISS") << "); wall-clock "
              << util::Table::fmt(dense_ns / orbit_ns, 1) << "x\n\n";
}

void print_budget_wall_acceptance() {
    std::cout << "=== R-SYM2: n = 60 anonymous frontier (k<=4, t<=2) under a 1M-cell "
                 "grant — past the dense-tensor wall ===\n";
    const std::uint64_t budget = 1'000'000;
    // The dense engine cannot take the FIRST step at this budget: its
    // tensor holds 2^60 profiles before any sweep begins.
    const double dense_tensor_cells = std::pow(2.0, 60);

    util::Table table({"game", "grid complete?", "cells charged", "budget left"});
    bool pass = true;
    for (const bool attack : {true, false}) {
        const auto abg = attack ? core::AnonymousBinaryGame::attack(60)
                                : core::AnonymousBinaryGame::bargaining(60);
        const core::OrbitSweep sweep(abg.quotient(), game::SymmetryGroup::single_class(60),
                                     {0});
        util::ExecutionGrant grant(budget);
        core::FrontierVerdict frontier;
        {
            util::GrantScope scope(&grant);
            frontier = sweep.batch_robustness_frontier(
                4, 2, core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial);
        }
        const bool complete = frontier.complete() && !grant.expired();
        pass = pass && complete;
        // Closed-form cross-check: the grid must match the anonymous
        // boundary probes cell for cell.
        const std::size_t breaking = abg.min_breaking_coalition(0, 4);
        for (std::size_t k = 0; k <= 4; ++k) {
            for (std::size_t t = 0; t <= 2; ++t) {
                const bool expect_robust = t == 0 && (breaking == 0 || k < breaking);
                pass = pass && frontier.robust(k, t) == expect_robust;
            }
        }
        table.add_row({attack ? "attack(60)" : "bargaining(60)",
                       util::Table::fmt(complete), util::Table::fmt(grant.charged()),
                       util::Table::fmt(budget - grant.charged())});
    }
    table.print(std::cout);
    std::cout << "-> dense tensor alone: 2^60 = " << util::Table::fmt(dense_tensor_cells)
              << " profiles, " << util::Table::fmt(dense_tensor_cells /
                                                   static_cast<double>(budget))
              << "x the whole grant before the first cell is swept\n";
    std::cout << "-> acceptance: both n = 60 grids complete inside the grant, matching the "
                 "closed-form boundaries ("
              << (pass ? "PASS" : "MISS") << ")\n\n";
}

// Orbit frontier trajectory rows, serial with CI-gated work counters:
// the per-op work is a pure function of (n, max_k, max_t).
void bench_orbit_frontier_serial(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto abg = core::AnonymousBinaryGame::bargaining(n);
    const core::OrbitSweep sweep(abg.quotient(), game::SymmetryGroup::single_class(n), {0});
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sweep.batch_robustness_frontier(
            4, 2, core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial));
    }
}
BENCHMARK(bench_orbit_frontier_serial)->Arg(12)->Arg(30)->Arg(60)
    ->Unit(benchmark::kMicrosecond);

// The dense engine on the same 12-player workload: the denominator of
// the R-SYM1 ratio, tracked so the gap itself is diffable across PRs.
void bench_dense_frontier_serial(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto abg = core::AnonymousBinaryGame::bargaining(n);
    const game::NormalFormGame g = abg.to_normal_form();
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 0));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::batch_robustness_frontier(g, profile, 4, 2, options));
    }
}
BENCHMARK(bench_dense_frontier_serial)->Arg(10)->Arg(12)->Unit(benchmark::kMillisecond);

// max_kt boundary walk over orbits, serial gated counters.
void bench_orbit_max_kt_serial(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto abg = core::AnonymousBinaryGame::bargaining(n);
    const core::OrbitSweep sweep(abg.quotient(), game::SymmetryGroup::single_class(n), {0});
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sweep.max_kt(6, 3, core::GainCriterion::kAnyMemberGains,
                                              game::SweepMode::kSerial));
    }
}
BENCHMARK(bench_orbit_max_kt_serial)->Arg(12)->Arg(60)->Unit(benchmark::kMicrosecond);

// The routed entry points on a materialized symmetric tensor: detection
// + quotient build + orbit sweep, the cost a caller actually pays.
void bench_routed_frontier(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto abg = core::AnonymousBinaryGame::attack(n);
    const game::NormalFormGame g = abg.to_normal_form();
    const game::GameView view = game::GameView::full(g);
    const game::SymmetryGroup group = game::SymmetryGroup::detect(view);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 0));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::batch_robustness_frontier(view, group, profile, 4, 2, options));
    }
}
BENCHMARK(bench_routed_frontier)->Arg(8)->Arg(10)->Unit(benchmark::kMicrosecond);

// Symmetry detection alone on the materialized attack(n) tensor: the
// step in front of every routed orbit sweep, which reads each of the
// n * 2^n payoffs once.
void bench_detect(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const game::NormalFormGame g = core::AnonymousBinaryGame::attack(n).to_normal_form();
    const game::GameView view = game::GameView::full(g);
    for (auto _ : state) {
        benchmark::DoNotOptimize(game::SymmetryGroup::detect(view));
    }
}
BENCHMARK(bench_detect)->Arg(8)->Arg(10)->Arg(12)->Unit(benchmark::kMicrosecond);

// n two-action players with seeded payoffs, exchangeable in players 0 and
// 1 only. `late` changes u_0 at the last profile, where the pair's payoffs
// must agree, so every check on the pair fails only there.
game::NormalFormGame pair_exchangeable_game(std::size_t n, bool late) {
    util::Rng rng{n};
    game::NormalFormGame g(std::vector<std::size_t>(n, 2));
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const game::PureProfile a = g.profile_unrank(rank);
        if (a[0] > a[1]) continue;
        game::PureProfile swapped = a;
        std::swap(swapped[0], swapped[1]);
        for (std::size_t q = 0; q < n; ++q) {
            const util::Rational value{rng.next_int(-50, 50)};
            g.set_payoff(a, q, value);
            g.set_payoff(swapped, q < 2 ? 1 - q : q, value);
        }
    }
    if (late) {
        const game::PureProfile last(n, 1);
        g.set_payoff(last, 0, g.payoff(last, 0) + util::Rational{1});
    }
    return g;
}

// Detection with the pair bucketed together and every other player on
// its own, as serve's canonical key buckets two tied players: a candidate
// with a single join, passing (late = 0) or failing at the last profile.
void bench_detect_pair(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const game::NormalFormGame g = pair_exchangeable_game(n, state.range(1) != 0);
    const game::GameView view = game::GameView::full(g);
    std::vector<std::size_t> bucket(n);
    for (std::size_t p = 0; p < n; ++p) bucket[p] = p == 1 ? 0 : p;
    for (auto _ : state) {
        benchmark::DoNotOptimize(game::SymmetryGroup::detect(view, bucket));
    }
}
BENCHMARK(bench_detect_pair)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({12, 0})
    ->Args({12, 1})
    ->Unit(benchmark::kMicrosecond);

// attack(n) with u_{n-1} changed at the last profile: a candidate with
// n - 1 joins whose one-pass check fails only at the end, so the greedy
// transposition path runs after a nearly full pass.
void bench_detect_late(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    game::NormalFormGame g = core::AnonymousBinaryGame::attack(n).to_normal_form();
    const game::PureProfile last(n, 1);
    g.set_payoff(last, n - 1, g.payoff(last, n - 1) + util::Rational{1});
    const game::GameView view = game::GameView::full(g);
    for (auto _ : state) {
        benchmark::DoNotOptimize(game::SymmetryGroup::detect(view));
    }
}
BENCHMARK(bench_detect_late)->Arg(8)->Arg(12)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
    print_orbit_vs_dense_acceptance();
    print_budget_wall_acceptance();
    bnash::bench::initialize_with_json_output(argc, argv, "BENCH_symmetry.json");
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
