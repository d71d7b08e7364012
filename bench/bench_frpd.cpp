// E8 + E13: finitely repeated prisoner's dilemma. The (N, delta,
// memory-price) equilibrium region of Example 3.2 and the Axelrod
// tournament where tit-for-tat "does exceedingly well".
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_json.h"
#include "core/machine/frpd.h"
#include "game/catalog.h"
#include "repeated/repeated_game.h"
#include "util/table.h"

namespace {

using namespace bnash;

void print_equilibrium_region() {
    std::cout << "=== E8: where (TfT, TfT) is a computational equilibrium ===\n";
    std::cout << "cell = yes iff 2*delta^N <= memory_price * ceil(log2 N); price = 0.1\n";
    util::Table table({"N \\ delta", "0.60", "0.75", "0.90", "0.99"});
    for (const std::size_t rounds : {2u, 5u, 10u, 25u, 50u, 100u, 200u}) {
        std::vector<std::string> row{util::Table::fmt(rounds)};
        for (const double delta : {0.60, 0.75, 0.90, 0.99}) {
            core::FrpdParams params;
            params.rounds = rounds;
            params.delta = delta;
            params.memory_price = 0.1;
            row.push_back(
                util::Table::fmt(core::analyze_tft_equilibrium(params).tft_pair_is_equilibrium));
        }
        table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << "-> longer games and heavier discounting both favor cooperation, exactly"
                 " the Example 3.2 region.\n\n";

    std::cout << "=== E8b: asymmetric bounded/free players ===\n";
    util::Table asym({"N", "(TfT, defect-last) equilibrium?"});
    for (const std::size_t rounds : {10u, 25u, 50u, 100u}) {
        core::FrpdParams params;
        params.rounds = rounds;
        params.delta = 0.9;
        params.memory_price = 0.2;
        asym.add_row({util::Table::fmt(rounds),
                      util::Table::fmt(core::asymmetric_equilibrium_holds(params))});
    }
    asym.print(std::cout);
    std::cout << std::endl;
}

void print_tournament() {
    std::cout << "=== E13: Axelrod round-robin (N = 200, 5% noise, 8 trials) ===\n";
    repeated::TournamentOptions options;
    options.rounds = 200;
    options.noise = 0.05;
    options.trials = 8;
    const auto entries =
        repeated::round_robin(game::catalog::prisoners_dilemma(), repeated::classic_lineup(),
                              options);
    util::Table table({"rank", "strategy", "total score", "avg/match", "wins"});
    for (std::size_t i = 0; i < entries.size(); ++i) {
        table.add_row({util::Table::fmt(i + 1), entries[i].name,
                       util::Table::fmt(entries[i].total_score, 1),
                       util::Table::fmt(entries[i].average_score, 1),
                       util::Table::fmt(entries[i].wins)});
    }
    table.print(std::cout);
    std::cout << "-> reciprocal strategies (TfT/Grim/Pavlov) dominate the exploiters, as"
                 " in Axelrod's tournaments.\n\n";
}

void bench_match(benchmark::State& state) {
    const auto rounds = static_cast<std::size_t>(state.range(0));
    repeated::RepeatedGame game(game::catalog::prisoners_dilemma(), rounds, 0.95);
    const auto a = repeated::tit_for_tat();
    const auto b = repeated::grim_trigger();
    util::Rng rng{3};
    // Rounds per match: a pure function of the argument — CI-gated like
    // the cheap-talk protocol counters.
    state.counters["rounds"] = benchmark::Counter(static_cast<double>(rounds));
    for (auto _ : state) {
        const auto s0 = a->clone();
        const auto s1 = b->clone();
        benchmark::DoNotOptimize(game.play(*s0, *s1, rng));
    }
}
BENCHMARK(bench_match)->Arg(100)->Arg(1000)->Arg(10000);

void bench_meta_game(benchmark::State& state) {
    const auto rounds = static_cast<std::size_t>(state.range(0));
    repeated::RepeatedGame game(game::catalog::prisoners_dilemma(), rounds);
    for (auto _ : state) {
        auto set = core::frpd_machine_set(rounds);
        benchmark::DoNotOptimize(game.meta_game(set));
    }
}
BENCHMARK(bench_meta_game)->Arg(10)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

void bench_tournament(benchmark::State& state) {
    repeated::TournamentOptions options;
    options.rounds = static_cast<std::size_t>(state.range(0));
    options.trials = 2;
    options.noise = 0.05;
    for (auto _ : state) {
        benchmark::DoNotOptimize(repeated::round_robin(game::catalog::prisoners_dilemma(),
                                                       repeated::classic_lineup(), options));
    }
}
BENCHMARK(bench_tournament)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

void bench_frpd_analysis(benchmark::State& state) {
    core::FrpdParams params;
    params.rounds = static_cast<std::size_t>(state.range(0));
    params.delta = 0.9;
    params.memory_price = 0.1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::analyze_tft_equilibrium(params));
    }
}
BENCHMARK(bench_frpd_analysis)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    return bnash::bench::run_bench_main(argc, argv, "BENCH_frpd.json", print_equilibrium_region,
                                        print_tournament);
}
