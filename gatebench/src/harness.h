// Shared machinery of the end-to-end benchmark: CPU rotation, the
// fastest-of-passes timing loop, percentiles, span tracing, and the
// workload interface each of the four workloads implements.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace bnash {}

namespace gatebench {

using namespace bnash;  // the benchmark only calls into the library

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// --- CPUs --------------------------------------------------------------------
// The CPUs this process may run on, read once at start-up before any
// thread is pinned. Threads inherit their creator's mask, so every
// program object that owns threads (the pool, servers, socket fronts) is
// created while the driver thread holds this full mask.
[[nodiscard]] const std::vector<int>& allowed_cpus();
void pin_driver_to(int cpu);
void unpin_driver();

// Seconds one fixed ALU + pointer-chasing loop takes on `cpu`.
[[nodiscard]] double calibrate_cpu(int cpu);

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double process_cpu_seconds();

// --- statistics ----------------------------------------------------------------
// Linear interpolation between closest ranks (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double sum(const std::vector<double>& values);
[[nodiscard]] double mean(const std::vector<double>& values);

// --- tracing ---------------------------------------------------------------------
// Spans recorded around calls into the library, kept in memory: name,
// request id, parent span, start and end. Layer metrics are read from the
// scopes as they close; the summary written at the end gives each span
// name's count, total and self time (duration minus the part covered by
// child spans).
class Tracer final {
public:
    class Scope final {
    public:
        Scope(Tracer& tracer, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        // Seconds since the scope opened.
        [[nodiscard]] double elapsed() const;

    private:
        Tracer* tracer_;
        std::size_t index_;
    };

    // Starts a new request id (one per request / item).
    void next_request() { ++request_; }

    // One line per span name: count, total ms, self ms.
    void write_summary(std::ostream& out) const;

private:
    struct Span final {
        const char* name;
        std::uint64_t request;
        std::size_t parent;  // index into spans_, or kNone
        Clock::time_point start;
        Clock::time_point end;
    };
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    std::vector<Span> spans_;
    std::size_t open_ = kNone;
    std::uint64_t request_ = 0;
};

// --- workloads ---------------------------------------------------------------------
struct RunOptions final {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    // Share of the workload's full input schedule to generate (the traced
    // run measures the other workloads' layers on a slice).
    double scale = 1.0;
};

// Per-layer metric values by name.
using LayerMetrics = std::map<std::string, double>;

class Workload {
public:
    virtual ~Workload() = default;

    // Builds the seeded input schedule. Not timed and not part of set-up.
    virtual void generate(const RunOptions& options) = 0;
    // Program calls made once before the first timed item (constructing
    // games, servers, sockets). Run several times with the driver
    // unpinned; its median is setup_s. Must leave the workload ready to
    // run items.
    virtual void setup() = 0;
    // Undoes setup() before the next set-up round. Not timed.
    virtual void teardown() = 0;
    [[nodiscard]] virtual std::size_t num_items() const = 0;

    // Called with the driver unpinned before / after each timed pass, so
    // threads created here get the full CPU mask.
    virtual void begin_pass() {}
    virtual void end_pass() {}

    // Runs item i through the program and returns a canonical text of the
    // answer. Timed. Returns "error: ..." when the program failed.
    [[nodiscard]] virtual std::string run_item(std::size_t i) = 0;
    // The same answer, derived by an independent untimed computation.
    [[nodiscard]] virtual std::string expected(std::size_t i) = 0;

    // Minimum timed passes: pooled workloads depend on the slowest CPU
    // and need more of them.
    [[nodiscard]] virtual std::size_t min_passes() const { return allowed_cpus().size(); }

    // Per-layer split of the same inputs (traced run only).
    virtual void trace_layers(Tracer& tracer, LayerMetrics& out, double seconds) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_serve_socket();
[[nodiscard]] std::unique_ptr<Workload> make_frontier_dense();
[[nodiscard]] std::unique_ptr<Workload> make_frontier_orbit();
[[nodiscard]] std::unique_ptr<Workload> make_concepts_mix();

// Fastest-of-passes timing of `fn(i)` for every item; the driver moves to
// the next CPU each pass. Returns the per-item fastest times (seconds).
template <typename Fn>
std::vector<double> fastest_of(std::size_t items, std::size_t passes, Fn&& fn) {
    std::vector<double> best(items, 1e300);
    const std::vector<int>& cpus = allowed_cpus();
    for (std::size_t pass = 0; pass < passes; ++pass) {
        pin_driver_to(cpus[pass % cpus.size()]);
        for (std::size_t i = 0; i < items; ++i) {
            const Clock::time_point start = Clock::now();
            fn(i);
            const double took = seconds_between(start, Clock::now());
            if (took < best[i]) best[i] = took;
        }
    }
    unpin_driver();
    return best;
}

}  // namespace gatebench
