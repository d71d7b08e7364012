// E12: scrip systems. The welfare/money-supply curve with its crash, the
// effect of hoarders and altruists, and simulator throughput.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "bench_json.h"
#include "scrip/scrip_system.h"
#include "util/table.h"

namespace {

using namespace bnash;

scrip::ScripParams base_params() {
    scrip::ScripParams params;
    params.num_agents = 200;
    params.rounds = 150'000;
    params.alpha = 1.0;
    params.gamma = 3.0;
    params.seed = 13;
    return params;
}

void print_money_supply_curve() {
    std::cout << "=== E12a: welfare vs money supply (threshold 4, n = 200) ===\n";
    util::Table table({"money/capita", "satisfied", "welfare/round", "scrip gini"});
    auto params = base_params();
    for (const double m : {0.25, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0, 5.0, 8.0}) {
        params.money_per_capita = m;
        const auto result = scrip::simulate_uniform(params, 4);
        table.add_row(
            {util::Table::fmt(m, 2), util::Table::fmt(result.satisfied_fraction, 3),
             util::Table::fmt(result.social_welfare_per_round, 3),
             util::Table::fmt(result.scrip_gini, 3)});
    }
    table.print(std::cout);
    std::cout << "-> throughput climbs with liquidity, then crashes once holdings reach"
                 " the threshold: the Kash-Friedman-Halpern monetary crash.\n\n";
}

void print_irrational_types() {
    std::cout << "=== E12b: hoarders and altruists ===\n";
    auto params = base_params();
    params.money_per_capita = 2.0;
    util::Table table({"hoarders", "altruists", "satisfied", "welfare/round", "gini"});
    for (const auto& [hoarders, altruists] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {0, 0}, {20, 0}, {60, 0}, {0, 20}, {0, 60}, {30, 30}}) {
        std::vector<scrip::AgentSpec> specs(
            params.num_agents, scrip::AgentSpec{scrip::BehaviorKind::kThreshold, 4});
        for (std::size_t i = 0; i < hoarders; ++i) {
            specs[i] = scrip::AgentSpec{scrip::BehaviorKind::kHoarder, 0};
        }
        for (std::size_t i = 0; i < altruists; ++i) {
            specs[hoarders + i] = scrip::AgentSpec{scrip::BehaviorKind::kAltruist, 0};
        }
        const auto result = scrip::simulate(params, specs);
        table.add_row({util::Table::fmt(hoarders), util::Table::fmt(altruists),
                       util::Table::fmt(result.satisfied_fraction, 3),
                       util::Table::fmt(result.social_welfare_per_round, 3),
                       util::Table::fmt(result.scrip_gini, 3)});
    }
    table.print(std::cout);
    std::cout << "-> hoarders strangle trade; altruists substitute for money. A robust"
                 " solution concept must price in both (Section 5).\n\n";

    std::cout << "=== E12c: empirical best-response threshold (population at 4) ===\n";
    auto br = base_params();
    br.num_agents = 100;
    br.rounds = 100'000;
    br.money_per_capita = 2.0;
    const auto curve = scrip::threshold_best_response_curve(br, 4, 8);
    util::Table response({"candidate threshold", "agent-0 utility"});
    for (std::size_t k = 0; k < curve.size(); ++k) {
        response.add_row({util::Table::fmt(k), util::Table::fmt(curve[k], 1)});
    }
    response.print(std::cout);
    std::cout << std::endl;
}

void bench_simulation(benchmark::State& state) {
    auto params = base_params();
    params.num_agents = static_cast<std::size_t>(state.range(0));
    params.rounds = 50'000;
    params.money_per_capita = 2.0;
    // Satisfied-request count: a pure function of the seed, so it gates
    // in CI like the sweep engines' work counters.
    const auto result = scrip::simulate_uniform(params, 4);
    state.counters["satisfied"] = benchmark::Counter(static_cast<double>(
        std::llround(result.satisfied_fraction * static_cast<double>(params.rounds))));
    for (auto _ : state) {
        benchmark::DoNotOptimize(scrip::simulate_uniform(params, 4));
    }
}
BENCHMARK(bench_simulation)->Arg(50)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

void bench_best_response_curve(benchmark::State& state) {
    // The pooled candidate scan (common random numbers preserved by
    // per-candidate reseeding).
    auto params = base_params();
    params.num_agents = 100;
    params.rounds = 20'000;
    params.money_per_capita = 2.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(scrip::threshold_best_response_curve(params, 4, 8));
    }
}
BENCHMARK(bench_best_response_curve)->Unit(benchmark::kMillisecond);

void bench_mixed_population(benchmark::State& state) {
    auto params = base_params();
    params.rounds = 50'000;
    params.money_per_capita = 2.0;
    std::vector<scrip::AgentSpec> specs(params.num_agents,
                                        scrip::AgentSpec{scrip::BehaviorKind::kThreshold, 4});
    for (std::size_t i = 0; i < 40; ++i) {
        specs[i] = scrip::AgentSpec{i % 2 == 0 ? scrip::BehaviorKind::kHoarder
                                               : scrip::BehaviorKind::kAltruist,
                                    0};
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(scrip::simulate(params, specs));
    }
}
BENCHMARK(bench_mixed_population)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    return bnash::bench::run_bench_main(argc, argv, "BENCH_scrip.json", print_money_supply_curve,
                                        print_irrational_types);
}
