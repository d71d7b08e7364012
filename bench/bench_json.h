// Shared helpers for the bench binaries:
//   - initialize_with_json_output: injects --benchmark_out=<path> (JSON)
//     into the google-benchmark flags unless the caller already chose an
//     output, so every bench binary drops a BENCH_<name>.json next to the
//     working directory and future PRs can track the perf trajectory.
//   - measure_ns: the acceptance tables' timing harness — ONE definition
//     so speedup numbers stay comparable across bench binaries.
//   - CounterScope: attaches the work-counter deltas of a timing loop to
//     the JSON row — ONE definition so the gated cells_visited /
//     offsets_advanced metrics stay comparable across bench binaries.
//   - run_bench_main: every bench binary's main — acceptance tables
//     unless a --benchmark_filter narrows the run, then the timed rows.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "util/work_counters.h"

namespace bnash::bench {

// Records util::work_counters deltas over the enclosing scope into the
// benchmark's JSON counters (per-iteration averages). Attach only to
// rows whose per-op work is deterministic — serial sweeps, or parallel
// sweeps without early exit — so the counters are CI-gateable.
class CounterScope final {
public:
    explicit CounterScope(benchmark::State& state)
        : state_(state), before_(util::work_counters_snapshot()) {}
    ~CounterScope() {
        const auto after = util::work_counters_snapshot();
        state_.counters["cells_visited"] = benchmark::Counter(
            static_cast<double>(after.cells_visited - before_.cells_visited),
            benchmark::Counter::kAvgIterations);
        state_.counters["offsets_advanced"] = benchmark::Counter(
            static_cast<double>(after.offsets_advanced - before_.offsets_advanced),
            benchmark::Counter::kAvgIterations);
    }
    CounterScope(const CounterScope&) = delete;
    CounterScope& operator=(const CounterScope&) = delete;

private:
    benchmark::State& state_;
    util::WorkCounters before_;
};

// Wall-clock ns/op with geometric rep growth until the sample is stable.
template <typename Fn>
double measure_ns(Fn&& fn) {
    using clock = std::chrono::steady_clock;
    fn();  // warm-up
    std::size_t reps = 1;
    while (true) {
        const auto start = clock::now();
        for (std::size_t r = 0; r < reps; ++r) fn();
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start);
        if (elapsed.count() > 100'000'000 || reps > (std::size_t{1} << 22)) {
            return static_cast<double>(elapsed.count()) / static_cast<double>(reps);
        }
        reps *= 2;
    }
}

inline void initialize_with_json_output(int argc, char** argv, const char* default_path) {
    bool has_out = false;
    for (int i = 0; i < argc; ++i) {
        // Exact flag only: --benchmark_out_format alone must not suppress
        // the injected JSON output path.
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
            std::strcmp(argv[i], "--benchmark_out") == 0) {
            has_out = true;
        }
    }
    static std::vector<std::string> storage;
    storage.assign(argv, argv + argc);
    if (!has_out) {
        storage.push_back(std::string("--benchmark_out=") + default_path);
        storage.push_back("--benchmark_out_format=json");
    }
    static std::vector<char*> args;
    args.clear();
    for (auto& arg : storage) args.push_back(arg.data());
    int injected_argc = static_cast<int>(args.size());
    benchmark::Initialize(&injected_argc, args.data());
}

// The whole main of a bench binary: prints the acceptance tables (in
// argument order), then initializes google-benchmark with the JSON
// output injected and runs the rows the flags select. A run given
// --benchmark_filter skips the tables — it asked for specific timed rows,
// and some tables (the dense 12-player frontiers) take minutes. Row names
// and the unfiltered output are unchanged.
template <typename... Printers>
int run_bench_main(int argc, char** argv, const char* default_path, Printers&&... printers) {
    bool filtered = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_filter", 18) == 0) filtered = true;
    }
    if (!filtered) (printers(), ...);
    initialize_with_json_output(argc, argv, default_path);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

}  // namespace bnash::bench
