// E10 + E11: games with awareness. The Figure 1-3 p-sweep (A's move flips
// at p = 1/2) and the virtual-move sweep, plus generalized-equilibrium
// computation timings.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_json.h"
#include "core/awareness/awareness_game.h"
#include "game/catalog.h"
#include "util/table.h"

namespace {

using namespace bnash;
using util::Rational;

void print_figure1_sweep() {
    std::cout << "=== E10: Figures 1-3, A's equilibrium move vs p ===\n";
    util::Table table({"p (B unaware)", "A plays", "A's subjective EU(across)", "verified"});
    for (int numerator = 0; numerator <= 10; ++numerator) {
        const Rational p{numerator, 10};
        const auto fig = core::figure1_awareness_game(p);
        const auto profile = fig.game.solve_by_best_response();
        const auto& a_strategy = profile[fig.gamma_a][fig.a_infoset_in_gamma_a];
        const double eu_across = 2.0 * (1.0 - p.to_double());
        table.add_row({p.to_string(), a_strategy[1] > 0.5 ? "across_A" : "down_A",
                       util::Table::fmt(eu_across, 2),
                       util::Table::fmt(fig.game.is_generalized_nash(profile))});
    }
    table.print(std::cout);
    std::cout << "-> crossover at p = 1/2 (EU(across) = 2 - 2p vs down_A's 1); Nash"
                 " equilibrium of the one-game model cannot express this.\n\n";
}

void print_virtual_move_sweep() {
    std::cout << "=== E11: awareness of unawareness (virtual move) ===\n";
    util::Table table({"believed uA", "believed uB", "B's conjectured move", "A plays"});
    for (const std::int64_t ub : {-1, 1, 3}) {
        for (const std::int64_t ua : {0, 2, 4}) {
            const auto aware = core::virtual_move_game(Rational{ua}, Rational{ub});
            const auto profile = aware.solve_by_best_response();
            const auto a_set = *aware.game_at(1).find_info_set("A");
            const auto b_set = *aware.game_at(1).find_info_set("B+virtual");
            const auto& b_strategy = profile[1][b_set];
            std::string conjecture = "down_B";
            if (b_strategy[1] > 0.5) conjecture = "across_B";
            if (b_strategy[2] > 0.5) conjecture = "virtual";
            table.add_row({util::Table::fmt(ua), util::Table::fmt(ub), conjecture,
                           profile[1][a_set][1] > 0.5 ? "across_A" : "down_A"});
        }
    }
    table.print(std::cout);
    std::cout << "-> when A credits B with a strong unknown move (uB = 3), A's own move"
                 " hinges on the believed payoff uA: the paper's peace-overture effect.\n\n";
}

void bench_solve_figure1(benchmark::State& state) {
    const auto fig = core::figure1_awareness_game(Rational{1, 4});
    for (auto _ : state) {
        benchmark::DoNotOptimize(fig.game.solve_by_best_response());
    }
}
BENCHMARK(bench_solve_figure1)->Unit(benchmark::kMicrosecond);

void bench_verify_figure1(benchmark::State& state) {
    const auto fig = core::figure1_awareness_game(Rational{1, 4});
    const auto profile = fig.game.solve_by_best_response();
    for (auto _ : state) {
        benchmark::DoNotOptimize(fig.game.is_generalized_nash(profile));
    }
}
BENCHMARK(bench_verify_figure1)->Unit(benchmark::kMicrosecond);

void bench_pure_enumeration(benchmark::State& state) {
    const auto fig = core::figure1_awareness_game(Rational{1, 4});
    // Candidate assignments per enumeration (cells_visited) are a pure
    // function of the game: CI-gated.
    const bench::CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fig.game.pure_generalized_equilibria());
    }
}
BENCHMARK(bench_pure_enumeration)->Unit(benchmark::kMillisecond);

void bench_canonical_equivalence(benchmark::State& state) {
    const auto aware = core::AwarenessGame::canonical(game::catalog::figure1_game());
    const bench::CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(aware.pure_generalized_equilibria());
    }
}
BENCHMARK(bench_canonical_equivalence)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
    return bnash::bench::run_bench_main(argc, argv, "BENCH_awareness.json", print_figure1_sweep,
                                        print_virtual_move_sweep);
}
