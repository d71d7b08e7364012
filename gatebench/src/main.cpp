// End-to-end benchmark driver. One process runs one workload as a closed
// loop: the seeded schedule is generated, the program is set up, then the
// items are timed pass after pass with the driver thread moving to the
// next CPU each pass; each item's service time is its fastest pass.
// Between passes the program is torn down and set up again in timed
// blocks (setup_s is the median of the blocks' fastest set-ups). Every
// answer is compared with an independent untimed computation.
//
//   gatebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <share>] [--corrupt-expected]
//
// The last line of standard output is the result object; the line before
// it is the host context. Exit code 0 only when every answer matched.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "util/thread_pool.h"

namespace gb = gatebench;

namespace {

struct Args final {
    std::string workload;
    gb::RunOptions run;
    bool trace = false;
    bool corrupt = false;
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "gatebench: " << why
              << "\nusage: gatebench --workload <serve_socket|frontier_dense|frontier_orbit|"
                 "concepts_mix> --seed <n> --seconds <s> --trace <0|1> [--scale <share>]"
                 " [--corrupt-expected]\n";
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt-expected") {
            args.corrupt = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.run.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.run.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
            end = const_cast<char*>(value.c_str()) + (value == "0" || value == "1" ? 1 : 0);
        } else if (flag == "--scale") {
            args.run.scale = std::strtod(value.c_str(), &end);
        } else {
            usage("unknown flag " + flag);
        }
        if (end != nullptr && *end != '\0') usage("bad value for " + flag + ": " + value);
    }
    if (args.workload.empty() || !have_seed) usage("--workload and --seed are required");
    if (!(args.run.seconds > 0) || !(args.run.scale > 0) || args.run.scale > 1) {
        usage("--seconds must be > 0 and --scale in (0, 1]");
    }
    return args;
}

std::unique_ptr<gb::Workload> make_workload(const std::string& name) {
    if (name == "serve_socket") return gb::make_serve_socket();
    if (name == "frontier_dense") return gb::make_frontier_dense();
    if (name == "frontier_orbit") return gb::make_frontier_orbit();
    if (name == "concepts_mix") return gb::make_concepts_mix();
    usage("unknown workload " + name);
}

std::string json_number(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

// Units of every metric the benchmark can print.
const std::map<std::string, std::string>& units() {
    static const std::map<std::string, std::string> table = {
        {"setup_s", "s"},
        {"p50_ms", "ms"},
        {"p95_ms", "ms"},
        {"items_per_s", "1/s"},
        {"peak_rss_mb", "MiB"},
        {"socket.self_ms", "ms"},
        {"serve.session_ms", "ms"},
        {"serve.parse_ms", "ms"},
        {"serve.canonical_key_ms", "ms"},
        {"serve.server_self_ms", "ms"},
        {"serve.cache_hit_share", "share"},
        {"serve.degraded_share", "share"},
        {"serve.cells_per_request", "count"},
        {"core.sweep_ms", "ms"},
        {"game.symmetry_detect_ms", "ms"},
        {"game.build_quotient_ms", "ms"},
        {"core.dense.cells_per_item", "count"},
        {"core.dense.ns_per_cell", "ns"},
        {"core.orbit.cells_per_item", "count"},
        {"core.orbit.ns_per_cell", "ns"},
        {"core.orbit.trivial_over_dense", "ratio"},
        {"util.pool.dispatch_us", "us"},
        {"util.pool.small_item_speedup", "ratio"},
        {"util.pool.speedup", "ratio"},
        {"util.pool.cpu_per_wall", "ratio"},
        {"core.mediator_ms", "ms"},
        {"core.machine_ms", "ms"},
        {"core.awareness_ms", "ms"},
        {"scrip.curve_ms", "ms"},
        {"dist.consensus_ms", "ms"},
        {"repeated.meta_game_ms", "ms"},
        {"core.concepts.cells_per_item", "count"},
        {"dist.messages_per_run", "count"},
        {"trace.overhead_share", "share"},
    };
    return table;
}

// Ratio of the service times a few ranks above and below quantile q: a
// large ratio means the percentile sits on a gap between item classes and
// will jump between seeds.
double gap_ratio(const std::vector<double>& times, double q) {
    std::vector<double> sorted = times;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t window = std::max<std::size_t>(1, sorted.size() / 100);
    const auto at = static_cast<std::size_t>(pos);
    const std::size_t lo = at >= window ? at - window : 0;
    const std::size_t hi = std::min(sorted.size() - 1, at + 1 + window);
    return sorted[hi] / sorted[lo];
}

struct Tally final {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> expected;
};

// Compares one pass's answers with the independent ones (computed on
// first use, untimed).
void check_pass(gb::Workload& workload, const std::vector<std::string>& answers, bool corrupt,
                Tally& tally) {
    if (tally.expected.empty()) {
        tally.expected.reserve(answers.size());
        for (std::size_t i = 0; i < answers.size(); ++i) {
            std::string want = workload.expected(i);
            if (corrupt && i == 0) want += " (corrupted)";
            tally.expected.push_back(std::move(want));
        }
    }
    for (std::size_t i = 0; i < answers.size(); ++i) {
        ++tally.attempted;
        if (answers[i] != tally.expected[i]) {
            if (++tally.failed <= 5) {
                std::cerr << "gatebench: item " << i << " answered '" << answers[i]
                          << "', expected '" << tally.expected[i] << "'\n";
            }
        }
    }
}

// One timed pass: threads are created unpinned, then the driver is
// pinned to `cpu` for the items.
std::vector<double> timed_pass(gb::Workload& workload, int cpu, std::vector<std::string>& answers,
                               gb::Tracer* tracer) {
    const std::size_t items = workload.num_items();
    std::vector<double> times(items);
    answers.assign(items, {});
    workload.begin_pass();
    gb::pin_driver_to(cpu);
    for (std::size_t i = 0; i < items; ++i) {
        const gb::Clock::time_point start = gb::Clock::now();
        try {
            if (tracer != nullptr) {
                tracer->next_request();
                const gb::Tracer::Scope span(*tracer, "item");
                answers[i] = workload.run_item(i);
            } else {
                answers[i] = workload.run_item(i);
            }
        } catch (const std::exception& error) {
            answers[i] = std::string("error: ") + error.what();
        }
        times[i] = gb::seconds_between(start, gb::Clock::now());
    }
    gb::unpin_driver();
    workload.end_pass();
    return times;
}

void min_into(std::vector<double>& best, const std::vector<double>& times) {
    if (best.empty()) {
        best = times;
        return;
    }
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], times[i]);
}

// setup_s samples. Each is the fastest of a block of complete set-ups,
// one on each CPU in turn (at least three), in whole rotations until the
// block's set-ups took kSetupBlockSeconds: at any moment some vCPUs of a
// shared host run up to ~1.5x slower than others, for stretches of a
// fraction of a second, and set-ups of tens of microseconds (a socket
// front) also vary with how fast a new thread gets a CPU. Blocks are spread over the run, between timed
// passes. Before each set-up the driver is moved to its CPU and its full
// mask restored at once: it keeps running there, while threads the set-up
// creates inherit the full mask. Teardowns are not timed; the last set-up
// stays in place for the next pass.
//
// A block runs whole rotations until its set-ups took this long.
constexpr double kSetupBlockSeconds = 5e-3;
// Set-up blocks may take this share of the timed passes' time...
constexpr double kSetupShare = 0.25;
// ... at most this many between two passes ...
constexpr std::size_t kSetupBlocksPerPause = 16;
// ... and are topped up to this many after the last pass.
constexpr std::size_t kMinSetupSamples = 12;

class SetupSampler final {
public:
    SetupSampler(gb::Workload& workload, const std::vector<int>& cpus)
        : workload_(workload), cpus_(cpus) {}

    void block() {
        const gb::Clock::time_point block_start = gb::Clock::now();
        double fastest = 0.0;
        double spent = 0.0;
        for (std::size_t round = 0;
             round < std::max<std::size_t>(3, cpus_.size()) || round % cpus_.size() != 0 ||
             spent < kSetupBlockSeconds;
             ++round) {
            if (set_up_) workload_.teardown();
            gb::pin_driver_to(cpus_[round % cpus_.size()]);
            gb::unpin_driver();
            const gb::Clock::time_point start = gb::Clock::now();
            workload_.setup();
            const double took = gb::seconds_between(start, gb::Clock::now());
            fastest = round == 0 ? took : std::min(fastest, took);
            spent += took;
            set_up_ = true;
        }
        samples_.push_back(fastest);
        wall_ += gb::seconds_between(block_start, gb::Clock::now());
    }

    // Wall time of all blocks, teardowns included.
    [[nodiscard]] double wall() const { return wall_; }
    [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

private:
    gb::Workload& workload_;
    const std::vector<int>& cpus_;
    std::vector<double> samples_;
    double wall_ = 0.0;
    bool set_up_ = false;
};

void print_result(const Tally& tally, const std::map<std::string, double>& metrics) {
    std::ostringstream out;
    out << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
        << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : metrics) {
        if (!first) out << ", ";
        first = false;
        const auto unit = units().find(name);
        out << json_string(name) << ": {\"value\": " << json_number(value)
            << ", \"unit\": " << json_string(unit == units().end() ? "" : unit->second) << "}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    const std::vector<int>& cpus = gb::allowed_cpus();  // before any thread exists
    const std::size_t executors = bnash::util::global_pool().size();

    std::ostringstream context;
    context << "{\"context\": {\"workload\": " << json_string(args.workload)
            << ", \"seed\": " << args.run.seed << ", \"seconds\": " << args.run.seconds
            << ", \"scale\": " << args.run.scale
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpus_allowed\": " << cpus.size() << ", \"executors\": " << executors
            << ", \"compiler\": " << json_string(GATEBENCH_COMPILER)
            << ", \"build_type\": " << json_string(GATEBENCH_BUILD_TYPE) << ", \"commit\": "
            << json_string(std::getenv("GATEBENCH_COMMIT") ? std::getenv("GATEBENCH_COMMIT")
                                                           : "unknown")
            << ", \"calibration_ms\": {";
    for (std::size_t c = 0; c < cpus.size(); ++c) {
        context << (c == 0 ? "" : ", ") << "\"cpu" << cpus[c]
                << "\": " << json_number(gb::calibrate_cpu(cpus[c]) * 1e3);
    }
    context << "}";

    auto workload = make_workload(args.workload);
    workload->generate(args.run);

    SetupSampler setup(*workload, cpus);
    setup.block();  // ready for the first pass

    Tally tally;
    std::vector<std::string> answers;
    std::map<std::string, double> metrics;
    const std::size_t items = workload->num_items();

    if (!args.trace) {
        std::vector<double> best;
        double timed = 0.0;
        double slowest_pass = 0.0;
        std::size_t passes = 0;
        while (passes < workload->min_passes() ||
               (timed + slowest_pass <= args.run.seconds && passes < 1000)) {
            const gb::Clock::time_point start = gb::Clock::now();
            const auto times =
                timed_pass(*workload, cpus[(passes + args.run.seed) % cpus.size()], answers,
                           nullptr);
            const double took = gb::seconds_between(start, gb::Clock::now());
            timed += took;
            slowest_pass = std::max(slowest_pass, took);
            ++passes;
            min_into(best, times);
            check_pass(*workload, answers, args.corrupt, tally);
            for (std::size_t blocks = 0;
                 blocks < kSetupBlocksPerPause && setup.wall() < kSetupShare * timed; ++blocks) {
                setup.block();
            }
        }
        while (setup.samples().size() < kMinSetupSamples) setup.block();
        metrics["setup_s"] = gb::median(setup.samples());
        metrics["p50_ms"] = gb::quantile(best, 0.50) * 1e3;
        metrics["p95_ms"] = gb::quantile(best, 0.95) * 1e3;
        metrics["items_per_s"] = static_cast<double>(items) / gb::sum(best);
        metrics["peak_rss_mb"] = gb::peak_rss_mb();
        context << ", \"items\": " << items << ", \"passes\": " << passes
                << ", \"timed_s\": " << json_number(timed)
                << ", \"samples_beyond_p95\": " << (items - static_cast<std::size_t>(0.95 * items))
                << ", \"gap_p50\": " << json_number(gap_ratio(best, 0.50))
                << ", \"gap_p95\": " << json_number(gap_ratio(best, 0.95))
                << ", \"failed_share\": "
                << json_number(static_cast<double>(tally.failed) /
                               static_cast<double>(std::max<std::uint64_t>(1, tally.attempted)));
    } else {
        // Tracing overhead: the same items, alternating untraced and traced
        // passes, each side reduced to its fastest-of-passes total.
        std::vector<double> plain;
        std::vector<double> traced;
        gb::Tracer item_tracer;
        // One untimed pass first, so neither side pays for first touches.
        (void)timed_pass(*workload, cpus[0], answers, nullptr);
        check_pass(*workload, answers, args.corrupt, tally);
        // Pairs of passes until half of --seconds is spent, at least one.
        const gb::Clock::time_point pairs_start = gb::Clock::now();
        for (std::size_t round = 0;
             round % 2 == 1 || round == 0 ||
             gb::seconds_between(pairs_start, gb::Clock::now()) < args.run.seconds / 2;
             ++round) {
            const bool with_spans = round % 2 == 1;
            const auto times = timed_pass(*workload, cpus[(round / 2) % cpus.size()], answers,
                                          with_spans ? &item_tracer : nullptr);
            min_into(with_spans ? traced : plain, times);
            check_pass(*workload, answers, args.corrupt, tally);
        }
        gb::LayerMetrics layers;
        gb::Tracer tracer;
        workload->trace_layers(tracer, layers, args.run.seconds);
        tracer.write_summary(std::cerr);
        for (const auto& [name, value] : layers) metrics[name] = value;
        metrics["trace.overhead_share"] = gb::sum(traced) / gb::sum(plain) - 1.0;
        context << ", \"items\": " << items;
    }
    context << ", \"setup_samples_s\": [";
    for (std::size_t i = 0; i < setup.samples().size(); ++i) {
        context << (i == 0 ? "" : ", ") << json_number(setup.samples()[i]);
    }
    context << "]}}";
    std::cout << context.str() << std::endl;
    print_result(tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}
