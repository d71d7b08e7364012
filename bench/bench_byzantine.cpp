// E4: Byzantine agreement protocols -- rounds and message complexity vs
// (n, t), correctness at the thresholds, and the t >= n/3 failure anchor.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_json.h"
#include "dist/byzantine.h"
#include "dist/network.h"
#include "util/table.h"

namespace {

using namespace bnash;
using dist::AdversaryKind;

std::vector<AdversaryKind> with_liars(std::size_t n, std::size_t t) {
    std::vector<AdversaryKind> behaviors(n, AdversaryKind::kHonest);
    for (std::size_t i = 0; i < t; ++i) {
        behaviors[n - 1 - i] =
            (i % 2 == 0) ? AdversaryKind::kEquivocate : AdversaryKind::kRandomLies;
    }
    return behaviors;
}

void print_tables() {
    std::cout << "=== E4a: EIG consensus, t traitors active ===\n";
    util::Table eig({"n", "t", "rounds", "messages", "payload words", "agreement+validity"});
    for (const auto& [n, t] : std::vector<std::pair<std::size_t, std::size_t>>{
             {4, 1}, {5, 1}, {7, 1}, {7, 2}, {8, 2}, {10, 3}}) {
        std::vector<std::uint64_t> inputs(n, 1);
        std::vector<bool> honest(n, true);
        for (std::size_t i = 0; i < t; ++i) honest[n - 1 - i] = false;
        const auto run = dist::run_eig_consensus(t, inputs, with_liars(n, t), 5);
        const bool correct = dist::agreement_holds(run, honest) &&
                             dist::validity_holds(run, honest, inputs);
        eig.add_row({util::Table::fmt(n), util::Table::fmt(t),
                     util::Table::fmt(run.metrics.rounds),
                     util::Table::fmt(run.metrics.messages),
                     util::Table::fmt(run.metrics.payload_words), util::Table::fmt(correct)});
    }
    eig.print(std::cout);
    std::cout << "-> payload grows exponentially in t (the EIG tree), correctness holds"
                 " whenever n > 3t.\n\n";

    std::cout << "=== E4b: Phase-King (n > 4t): polynomial messages ===\n";
    util::Table pk({"n", "t", "rounds", "messages", "payload words", "agreement+validity"});
    for (const auto& [n, t] : std::vector<std::pair<std::size_t, std::size_t>>{
             {5, 1}, {7, 1}, {9, 2}, {13, 3}}) {
        std::vector<std::uint64_t> inputs(n, 1);
        std::vector<bool> honest(n, true);
        for (std::size_t i = 0; i < t; ++i) honest[n - 1 - i] = false;
        const auto run = dist::run_phase_king(t, inputs, with_liars(n, t), 5);
        const bool correct = dist::agreement_holds(run, honest) &&
                             dist::validity_holds(run, honest, inputs);
        pk.add_row({util::Table::fmt(n), util::Table::fmt(t),
                    util::Table::fmt(run.metrics.rounds),
                    util::Table::fmt(run.metrics.messages),
                    util::Table::fmt(run.metrics.payload_words), util::Table::fmt(correct)});
    }
    pk.print(std::cout);
    std::cout << "\n=== E4c: Dolev-Strong with a PKI: any t < n ===\n";
    util::Table ds({"n", "t", "general", "rounds", "messages", "agreement"});
    for (const auto& [n, t] : std::vector<std::pair<std::size_t, std::size_t>>{
             {4, 1}, {4, 2}, {5, 2}, {7, 3}}) {
        std::vector<AdversaryKind> behaviors(n, AdversaryKind::kHonest);
        behaviors[0] = AdversaryKind::kEquivocate;
        std::vector<bool> honest(n, true);
        honest[0] = false;
        const auto run = dist::run_dolev_strong(t, 0, 1, behaviors, 5);
        ds.add_row({util::Table::fmt(n), util::Table::fmt(t), "two-faced",
                    util::Table::fmt(run.metrics.rounds),
                    util::Table::fmt(run.metrics.messages),
                    util::Table::fmt(dist::agreement_holds(run, honest))});
    }
    ds.print(std::cout);

    std::cout << "\n=== E4d: the impossibility anchor (n = 3, t = 1) ===\n";
    std::vector<AdversaryKind> three(3, AdversaryKind::kHonest);
    three[2] = AdversaryKind::kZeroLies;
    const auto broken = dist::run_eig_consensus(1, {1, 1, 0}, three);
    std::cout << "EIG at n = 3t: validity "
              << (dist::validity_holds(broken, {true, true, false}, {1, 1, 0})
                      ? "holds (unexpected!)"
                      : "VIOLATED, as the FLP/PSL bound demands")
              << "\n\n";
}

// Protocol complexity counters attached to the JSON rows: rounds,
// delivered messages, and payload words per consensus run are exact and
// machine-independent (fixed adversary schedule, seeded coins), so CI
// gates them tightly where wall time would flap.
void attach_metrics(benchmark::State& state, const dist::NetworkMetrics& total) {
    state.counters["rounds"] = benchmark::Counter(static_cast<double>(total.rounds),
                                                  benchmark::Counter::kAvgIterations);
    state.counters["messages"] = benchmark::Counter(static_cast<double>(total.messages),
                                                    benchmark::Counter::kAvgIterations);
    state.counters["payload_words"] =
        benchmark::Counter(static_cast<double>(total.payload_words),
                           benchmark::Counter::kAvgIterations);
}

void bench_eig(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto t = static_cast<std::size_t>(state.range(1));
    std::vector<std::uint64_t> inputs(n, 1);
    const auto behaviors = with_liars(n, t);
    dist::NetworkMetrics total;
    for (auto _ : state) {
        const auto run = dist::run_eig_consensus(t, inputs, behaviors, 5);
        benchmark::DoNotOptimize(&run);
        total.rounds += run.metrics.rounds;
        total.messages += run.metrics.messages;
        total.payload_words += run.metrics.payload_words;
    }
    attach_metrics(state, total);
}
BENCHMARK(bench_eig)->Args({4, 1})->Args({7, 2})->Args({10, 3})->Unit(benchmark::kMillisecond);

void bench_phase_king(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto t = static_cast<std::size_t>(state.range(1));
    std::vector<std::uint64_t> inputs(n, 1);
    const auto behaviors = with_liars(n, t);
    dist::NetworkMetrics total;
    for (auto _ : state) {
        const auto run = dist::run_phase_king(t, inputs, behaviors, 5);
        benchmark::DoNotOptimize(&run);
        total.rounds += run.metrics.rounds;
        total.messages += run.metrics.messages;
        total.payload_words += run.metrics.payload_words;
    }
    attach_metrics(state, total);
}
BENCHMARK(bench_phase_king)
    ->Args({5, 1})
    ->Args({9, 2})
    ->Args({13, 3})
    ->Args({21, 5})
    ->Unit(benchmark::kMillisecond);

void bench_dolev_strong(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto t = static_cast<std::size_t>(state.range(1));
    std::vector<AdversaryKind> behaviors(n, AdversaryKind::kHonest);
    behaviors[0] = AdversaryKind::kEquivocate;
    dist::NetworkMetrics total;
    for (auto _ : state) {
        const auto run = dist::run_dolev_strong(t, 0, 1, behaviors, 5);
        benchmark::DoNotOptimize(&run);
        total.rounds += run.metrics.rounds;
        total.messages += run.metrics.messages;
        total.payload_words += run.metrics.payload_words;
    }
    attach_metrics(state, total);
}
BENCHMARK(bench_dolev_strong)
    ->Args({4, 1})
    ->Args({7, 3})
    ->Args({10, 5})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    return bnash::bench::run_bench_main(argc, argv, "BENCH_byzantine.json", print_tables);
}
