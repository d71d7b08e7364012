// E1 + E14: the classical Nash machinery the paper measures its concepts
// against. Prints Example 3.2's payoff table with its unique equilibrium
// (E1), then times the solver stack on random games (E14).
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_json.h"
#include "game/catalog.h"
#include "solver/learning.h"
#include "solver/lemke_howson.h"
#include "solver/support_enumeration.h"
#include "solver/verification.h"
#include "solver/zero_sum.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace bnash;

void print_tables() {
    std::cout << "=== E1: prisoner's dilemma (Example 3.2 payoff table) ===\n";
    const auto pd = game::catalog::prisoners_dilemma();
    std::cout << pd.to_string();
    const auto equilibria = solver::support_enumeration(pd);
    std::cout << equilibria.size() << " Nash equilibrium(s) found\n";
    for (const auto& eq : equilibria) {
        std::cout << "equilibrium: " << game::to_string(game::to_double(eq.profile[0]))
                  << " x " << game::to_string(game::to_double(eq.profile[1]))
                  << ", payoffs (" << eq.payoffs[0].to_string() << ", "
                  << eq.payoffs[1].to_string() << ")\n";
    }
    std::cout << "(C,C) Pareto-dominates it: " << solver::is_pareto_dominated(pd, {1, 1})
              << "\n\n";

    std::cout << "=== E14: equilibrium counts on random games (5 seeds each) ===\n";
    util::Table table({"shape", "avg #NE (support enum)", "LH found", "FP converged"});
    for (const std::size_t size : {2u, 3u, 4u, 5u, 6u}) {
        double total_eq = 0;
        int lh_found = 0;
        int fp_conv = 0;
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            util::Rng rng{seed * 977 + size};
            const auto g = game::NormalFormGame::random({size, size}, rng);
            total_eq += static_cast<double>(solver::support_enumeration(g).size());
            lh_found += solver::lemke_howson(g, 0).has_value();
            solver::LearningOptions options;
            options.max_iterations = 3000;
            options.target_regret = 0.05;
            fp_conv += solver::fictitious_play(g, options).converged;
        }
        table.add_row({std::to_string(size) + "x" + std::to_string(size),
                       util::Table::fmt(total_eq / 5.0, 2), std::to_string(lh_found) + "/5",
                       std::to_string(fp_conv) + "/5"});
    }
    table.print(std::cout);
    std::cout << std::endl;
}

void bench_support_enumeration(benchmark::State& state) {
    util::Rng rng{42};
    const auto size = static_cast<std::size_t>(state.range(0));
    const auto g = game::NormalFormGame::random({size, size}, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(solver::support_enumeration(g));
    }
}
BENCHMARK(bench_support_enumeration)->DenseRange(2, 7)->Unit(benchmark::kMillisecond);

void bench_lemke_howson(benchmark::State& state) {
    util::Rng rng{42};
    const auto size = static_cast<std::size_t>(state.range(0));
    const auto g = game::NormalFormGame::random({size, size}, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(solver::lemke_howson(g, 0));
    }
}
BENCHMARK(bench_lemke_howson)->DenseRange(2, 12)->Unit(benchmark::kMillisecond);

void bench_fictitious_play(benchmark::State& state) {
    util::Rng rng{42};
    const auto size = static_cast<std::size_t>(state.range(0));
    const auto g = game::NormalFormGame::random({size, size}, rng);
    solver::LearningOptions options;
    options.max_iterations = 1000;
    options.target_regret = 0.05;
    for (auto _ : state) {
        benchmark::DoNotOptimize(solver::fictitious_play(g, options));
    }
}
BENCHMARK(bench_fictitious_play)->DenseRange(2, 12)->Unit(benchmark::kMillisecond);

void bench_zero_sum_lp(benchmark::State& state) {
    util::Rng rng{42};
    const auto size = static_cast<std::size_t>(state.range(0));
    util::MatrixQ a(size, size);
    for (std::size_t r = 0; r < size; ++r) {
        for (std::size_t c = 0; c < size; ++c) a(r, c) = rng.next_int(-9, 9);
    }
    const auto g = game::NormalFormGame::zero_sum(a);
    for (auto _ : state) {
        benchmark::DoNotOptimize(solver::solve_zero_sum(g));
    }
}
BENCHMARK(bench_zero_sum_lp)->DenseRange(2, 12)->Unit(benchmark::kMillisecond);

void bench_pure_nash_enumeration(benchmark::State& state) {
    util::Rng rng{42};
    const auto players = static_cast<std::size_t>(state.range(0));
    const auto g = game::NormalFormGame::random(std::vector<std::size_t>(players, 2), rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(solver::pure_nash_equilibria(g));
    }
}
BENCHMARK(bench_pure_nash_enumeration)->DenseRange(2, 10)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    return bnash::bench::run_bench_main(argc, argv, "BENCH_solvers.json", print_tables);
}
