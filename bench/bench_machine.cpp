// E7 + E9: computational games. The primality game's compute-vs-safe
// crossover (Example 3.1) and computational roshambo's nonexistence sweep
// (Example 3.3).
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_json.h"
#include "core/machine/machine_game.h"
#include "core/machine/primality.h"
#include "solver/zero_sum.h"
#include "game/catalog.h"
#include "util/table.h"
#include "util/work_counters.h"

namespace {

using namespace bnash;

void print_primality_table() {
    std::cout << "=== E7: Example 3.1, the primality game ===\n";
    std::cout << "(inputs half prime / half composite; see DESIGN.md)\n";
    util::Table table({"bits", "step price", "MR utility", "MR mulmods", "safe utility",
                       "equilibrium machine"});
    for (const unsigned bits : {8u, 16u, 24u, 32u, 48u, 60u}) {
        for (const double price : {0.001, 0.02}) {
            core::PrimalityParams params;
            params.bits = bits;
            params.step_price = price;
            params.samples = 300;
            const auto mr = core::evaluate_primality_machine(
                core::PrimalityMachineKind::kMillerRabin, params);
            const auto safe = core::evaluate_primality_machine(
                core::PrimalityMachineKind::kPlaySafe, params);
            table.add_row({util::Table::fmt(std::size_t{bits}), util::Table::fmt(price, 3),
                           util::Table::fmt(mr.expected_utility, 2),
                           util::Table::fmt(mr.average_steps, 0),
                           util::Table::fmt(safe.expected_utility, 2),
                           core::to_string(core::best_primality_machine(params))});
        }
    }
    table.print(std::cout);
    std::cout << "-> at a positive step price the equilibrium flips from compute to"
                 " play-safe as inputs grow: Nash equilibrium without computation costs"
                 " mispredicts.\n\n";
}

void print_roshambo_table() {
    std::cout << "=== E9: Example 3.3, computational roshambo ===\n";
    std::cout << "baseline (standard game) mixed equilibrium via LP: value "
              << solver::solve_zero_sum(game::catalog::roshambo()).value << "\n";
    util::Table table(
        {"randomization surcharge", "#machine equilibria", "BR cycle length"});
    for (const double surcharge : {0.0, 0.25, 0.5, 1.0, 2.0}) {
        auto game = core::computational_roshambo(surcharge);
        const auto equilibria = game.machine_equilibria();
        const auto cycle = game.best_response_cycle({0, 0});
        table.add_row({util::Table::fmt(surcharge, 2), util::Table::fmt(equilibria.size()),
                       util::Table::fmt(cycle.size())});
    }
    table.print(std::cout);
    std::cout << "-> any positive surcharge on randomization destroys every equilibrium:"
                 " machine games need not have Nash equilibria.\n\n";
}

void bench_miller_rabin(benchmark::State& state) {
    const auto bits = static_cast<unsigned>(state.range(0));
    util::Rng rng{7};
    const std::uint64_t lo = std::uint64_t{1} << (bits - 1);
    std::vector<std::uint64_t> inputs;
    for (int i = 0; i < 64; ++i) inputs.push_back(lo + rng.next_below(lo));
    for (auto _ : state) {
        for (const auto x : inputs) {
            benchmark::DoNotOptimize(core::is_prime_u64(x));
        }
    }
}
BENCHMARK(bench_miller_rabin)->Arg(16)->Arg(32)->Arg(48)->Arg(60);

void bench_primality_sweep(benchmark::State& state) {
    core::PrimalityParams params;
    params.bits = static_cast<unsigned>(state.range(0));
    params.samples = 100;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::best_primality_machine(params));
    }
}
BENCHMARK(bench_primality_sweep)->Arg(16)->Arg(32)->Arg(60)->Unit(benchmark::kMillisecond);

void bench_machine_equilibrium_enumeration(benchmark::State& state) {
    auto game = core::computational_roshambo(1.0);
    // Serial scan: the SupportPlan utility's cells_visited /
    // offsets_advanced per enumeration are deterministic and CI-gated.
    const bench::CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(game.machine_equilibria(1e-9, game::SweepMode::kSerial));
    }
}
BENCHMARK(bench_machine_equilibrium_enumeration)->Unit(benchmark::kMicrosecond);

void print_sparse_utility_comparison() {
    std::cout << "=== E9b: machine utility -- SupportPlan walk vs dense reference"
                 " (roshambo, surcharge 1.0) ===\n";
    auto game = core::computational_roshambo(1.0);
    util::Table table({"path", "cells visited", "equilibrium scan agrees"});
    const auto serial = game.machine_equilibria(1e-9, game::SweepMode::kSerial);
    const auto pooled = game.machine_equilibria(1e-9, game::SweepMode::kAuto);
    double sparse_cells = 0;
    double dense_cells = 0;
    {
        const auto before = util::work_counters_snapshot();
        for (std::size_t m0 = 0; m0 < game.num_machines(0); ++m0) {
            for (std::size_t m1 = 0; m1 < game.num_machines(1); ++m1) {
                benchmark::DoNotOptimize(game.utility({m0, m1}, 0));
            }
        }
        const auto mid = util::work_counters_snapshot();
        for (std::size_t m0 = 0; m0 < game.num_machines(0); ++m0) {
            for (std::size_t m1 = 0; m1 < game.num_machines(1); ++m1) {
                benchmark::DoNotOptimize(game.utility_reference({m0, m1}, 0));
            }
        }
        const auto after = util::work_counters_snapshot();
        sparse_cells = static_cast<double>(mid.cells_visited - before.cells_visited);
        dense_cells = static_cast<double>(after.cells_visited - mid.cells_visited);
    }
    table.add_row({"sparse (SupportPlan)", util::Table::fmt(sparse_cells, 0),
                   util::Table::fmt(serial == pooled)});
    table.add_row({"dense (reference)", util::Table::fmt(dense_cells, 0), "-"});
    table.print(std::cout);
    std::cout << "-> deterministic machines are point masses: the sparse walk touches"
                 " one cell per (type, machine pair) support tuple instead of the full"
                 " action tensor.\n\n";
}

}  // namespace

int main(int argc, char** argv) {
    return bnash::bench::run_bench_main(argc, argv, "BENCH_machine.json", print_primality_table,
                                        print_roshambo_table, print_sparse_utility_comparison);
}
