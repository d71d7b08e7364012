// E5 + E6: the mediator-implementation frontier (the paper's nine-bullet
// theorem list as a table) and the measured cost of the cheap-talk
// pipeline that realizes the possible cases.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_json.h"
#include "core/robust/cheap_talk.h"
#include "core/robust/feasibility.h"
#include "core/robust/mediator.h"
#include "game/catalog.h"
#include "util/combinatorics.h"
#include "util/table.h"
#include "util/work_counters.h"

namespace {

using namespace bnash;

void print_feasibility_frontier() {
    std::cout << "=== E5: mediator implementability frontier (k = 1, t = 1) ===\n";
    core::Capabilities none;
    core::Capabilities full;
    full.utilities_known = true;
    full.punishment_strategy = true;
    full.broadcast_channel = true;
    full.cryptography = true;
    full.pki = true;
    core::Capabilities punish;
    punish.utilities_known = true;
    punish.punishment_strategy = true;

    util::Table table({"n", "bare", "punish+utilities", "everything", "deciding theorem"});
    for (std::size_t n = 2; n <= 8; ++n) {
        const auto bare = core::classify(n, 1, 1, none);
        const auto mid = core::classify(n, 1, 1, punish);
        const auto best = core::classify(n, 1, 1, full);
        table.add_row({util::Table::fmt(n), core::to_string(bare.guarantee),
                       core::to_string(mid.guarantee), core::to_string(best.guarantee),
                       best.theorem});
    }
    table.print(std::cout);

    std::cout << "\n=== E5b: the nine bullets, one row each ===\n";
    util::Table bullets({"condition", "example (n,k,t)", "verdict", "running time"});
    struct Row final {
        const char* condition;
        std::size_t n, k, t;
        core::Capabilities caps;
    };
    core::Capabilities broadcast;
    broadcast.broadcast_channel = true;
    core::Capabilities crypto;
    crypto.cryptography = true;
    core::Capabilities pki = crypto;
    pki.pki = true;
    const Row rows[] = {
        {"n > 3k+3t", 7, 1, 1, none},
        {"n <= 3k+3t, bare", 6, 1, 1, none},
        {"2k+3t < n <= 3k+3t, punish", 6, 1, 1, punish},
        {"n <= 2k+3t, punish", 5, 1, 1, punish},
        {"n > 2k+2t, broadcast", 5, 1, 1, broadcast},
        {"n <= 2k+2t, broadcast", 4, 1, 1, broadcast},
        {"n > k+3t, crypto", 5, 1, 1, crypto},
        {"n <= k+3t, crypto", 4, 1, 1, crypto},
        {"n > k+t, crypto+PKI", 3, 1, 1, pki},
    };
    for (const auto& row : rows) {
        const auto verdict = core::classify(row.n, row.k, row.t, row.caps);
        bullets.add_row({row.condition,
                         "(" + std::to_string(row.n) + "," + std::to_string(row.k) + "," +
                             std::to_string(row.t) + ")",
                         core::to_string(verdict.guarantee),
                         core::to_string(verdict.running_time)});
    }
    bullets.print(std::cout);
    std::cout << std::endl;
}

void print_cheap_talk_costs() {
    std::cout << "=== E6: cheap-talk implementation cost (k = 1, t = 1) ===\n";
    util::Table table(
        {"n", "phases", "messages", "payload words", "mul gates", "BA instances", "correct"});
    for (const std::size_t n : {7u, 8u, 9u, 10u, 12u}) {
        const auto game = game::catalog::byzantine_agreement_game(n);
        const auto policy = core::MediatorPolicy::byzantine_consensus(game);
        core::CheapTalkParams params;
        params.k = 1;
        params.t = 1;
        game::TypeProfile types(n, 0);
        types[0] = 1;
        const std::vector<core::CheapTalkBehavior> honest(n,
                                                          core::CheapTalkBehavior::kHonest);
        const auto outcome = core::run_cheap_talk(policy, types, honest, params);
        bool correct = true;
        for (std::size_t i = 0; i < n; ++i) {
            correct &= outcome.recommendations[i].has_value() &&
                       *outcome.recommendations[i] == 1;
        }
        table.add_row({util::Table::fmt(n), util::Table::fmt(outcome.phases),
                       util::Table::fmt(outcome.metrics.messages),
                       util::Table::fmt(outcome.metrics.payload_words),
                       util::Table::fmt(outcome.mul_gates),
                       util::Table::fmt(outcome.ba_instances), util::Table::fmt(correct)});
    }
    table.print(std::cout);
    std::cout << "-> every honest player receives the mediator's exact recommendation;"
                 " traffic grows quadratically in n.\n\n";

    std::cout << "=== E6b: ablation -- broadcast channel vs point-to-point coin"
                 " agreement (randomized policy, k = 1, t = 1) ===\n";
    util::Table ablation({"n", "channel", "messages", "BA instances", "consistent"});
    for (const std::size_t n : {5u, 7u, 9u}) {
        const auto game = game::catalog::byzantine_agreement_game(n);
        core::MediatorPolicy policy(game);
        util::product_for_each(game.type_counts(), [&](const game::TypeProfile& types) {
            policy.set_recommendation(types, game::PureProfile(n, 0), util::Rational{1, 2});
            policy.set_recommendation(types, game::PureProfile(n, 1), util::Rational{1, 2});
            return true;
        });
        const std::vector<core::CheapTalkBehavior> honest(n,
                                                          core::CheapTalkBehavior::kHonest);
        for (const bool broadcast : {false, true}) {
            if (!broadcast && n <= 6) continue;  // point-to-point needs n > 3k+3t
            core::CheapTalkParams params;
            params.k = 1;
            params.t = 1;
            params.broadcast_channel = broadcast;
            const auto outcome =
                core::run_cheap_talk(policy, game::TypeProfile(n, 0), honest, params);
            bool consistent = true;
            for (std::size_t i = 1; i < n; ++i) {
                consistent &= outcome.recommendations[i] == outcome.recommendations[0];
            }
            ablation.add_row({util::Table::fmt(n), broadcast ? "broadcast" : "p2p+BA",
                              util::Table::fmt(outcome.metrics.messages),
                              util::Table::fmt(outcome.ba_instances),
                              util::Table::fmt(consistent)});
        }
    }
    ablation.print(std::cout);
    std::cout << "-> a physical broadcast removes every BA instance and admits n > 2k+2t"
                 " (n = 5 works); point-to-point needs the n > 3k+3t headroom.\n\n";
}

void bench_cheap_talk(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto game = game::catalog::byzantine_agreement_game(n);
    const auto policy = core::MediatorPolicy::byzantine_consensus(game);
    core::CheapTalkParams params;
    params.k = 1;
    params.t = 1;
    game::TypeProfile types(n, 1);
    types[0] = 1;
    const std::vector<core::CheapTalkBehavior> honest(n, core::CheapTalkBehavior::kHonest);
    // Protocol complexity is a pure function of (n, k, t, behaviors):
    // CI-gated rows, like the sweep engines' work counters.
    const auto outcome = core::run_cheap_talk(policy, types, honest, params);
    state.counters["rounds"] = benchmark::Counter(static_cast<double>(outcome.phases));
    state.counters["messages"] =
        benchmark::Counter(static_cast<double>(outcome.metrics.messages));
    state.counters["payload_words"] =
        benchmark::Counter(static_cast<double>(outcome.metrics.payload_words));
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::run_cheap_talk(policy, types, honest, params));
    }
}
BENCHMARK(bench_cheap_talk)->DenseRange(7, 11)->Unit(benchmark::kMillisecond);

void bench_cheap_talk_with_faults(benchmark::State& state) {
    constexpr std::size_t kN = 8;
    const auto game = game::catalog::byzantine_agreement_game(kN);
    const auto policy = core::MediatorPolicy::byzantine_consensus(game);
    core::CheapTalkParams params;
    params.k = 1;
    params.t = 1;
    game::TypeProfile types(kN, 0);
    std::vector<core::CheapTalkBehavior> behaviors(kN, core::CheapTalkBehavior::kHonest);
    behaviors[6] = core::CheapTalkBehavior::kCorruptShares;
    behaviors[7] = core::CheapTalkBehavior::kCrashAfterShare;
    const auto outcome = core::run_cheap_talk(policy, types, behaviors, params);
    state.counters["rounds"] = benchmark::Counter(static_cast<double>(outcome.phases));
    state.counters["messages"] =
        benchmark::Counter(static_cast<double>(outcome.metrics.messages));
    state.counters["payload_words"] =
        benchmark::Counter(static_cast<double>(outcome.metrics.payload_words));
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::run_cheap_talk(policy, types, behaviors, params));
    }
}
BENCHMARK(bench_cheap_talk_with_faults)->Unit(benchmark::kMillisecond);

void bench_mediator_equilibrium_check(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto game = game::catalog::byzantine_agreement_game(n);
    const auto policy = core::MediatorPolicy::byzantine_consensus(game);
    // Serial sweep: the per-op deviation-map evaluation count
    // (cells_visited) is deterministic and CI-gated.
    const bench::CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy.is_truthful_resilient_independent(
            1, core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial));
    }
}
BENCHMARK(bench_mediator_equilibrium_check)->DenseRange(3, 6)->Unit(benchmark::kMillisecond);

void bench_mediator_resilience(benchmark::State& state) {
    // The acceptance row: k = 2 coalition sweep on the 3-player consensus
    // policy, serial mode so the counters gate.
    const auto game = game::catalog::byzantine_agreement_game(3);
    const auto policy = core::MediatorPolicy::byzantine_consensus(game);
    const bench::CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy.is_truthful_resilient_independent(
            2, core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial));
    }
}
BENCHMARK(bench_mediator_resilience)->Unit(benchmark::kMillisecond);

void print_sweep_vs_naive() {
    std::cout << "=== E6c: resilience checker -- deviation-map evaluations,"
                 " sweep vs naive (byzantine consensus policy) ===\n";
    util::Table table({"n", "k", "naive maps", "sweep maps", "ratio", "verdicts agree"});
    for (const std::size_t n : {3u, 4u}) {
        const auto game = game::catalog::byzantine_agreement_game(n);
        const auto policy = core::MediatorPolicy::byzantine_consensus(game);
        for (std::size_t k = 1; k <= 2; ++k) {
            const auto start = util::work_counters_snapshot();
            const bool naive = core::reference::is_truthful_resilient_independent(policy, k);
            const auto mid = util::work_counters_snapshot();
            const bool sweep = policy.is_truthful_resilient_independent(
                k, core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial);
            const auto end = util::work_counters_snapshot();
            const auto naive_maps = mid.cells_visited - start.cells_visited;
            const auto sweep_maps = end.cells_visited - mid.cells_visited;
            const double ratio = static_cast<double>(naive_maps) /
                                 static_cast<double>(sweep_maps ? sweep_maps : 1);
            table.add_row({util::Table::fmt(n), util::Table::fmt(k),
                           util::Table::fmt(naive_maps), util::Table::fmt(sweep_maps),
                           util::Table::fmt(ratio), util::Table::fmt(naive == sweep)});
        }
    }
    table.print(std::cout);
    std::cout << "-> relevance pruning holds unreachable response entries fixed: >= 3x"
                 " fewer deviation-map evaluations at n = 3, identical verdicts.\n\n";
}

}  // namespace

int main(int argc, char** argv) {
    return bnash::bench::run_bench_main(argc, argv, "BENCH_mediator.json",
                                        print_feasibility_frontier, print_cheap_talk_costs,
                                        print_sweep_vs_naive);
}
