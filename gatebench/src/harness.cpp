#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <map>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

namespace gatebench {

namespace {

std::vector<int> read_allowed_cpus() {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
        }
    }
    if (cpus.empty()) cpus.push_back(0);
    return cpus;
}

void set_mask(const std::vector<int>& cpus) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (const int cpu : cpus) CPU_SET(cpu, &mask);
    // A refused mask (a CPU taken away mid-run) leaves the thread where it
    // was: timings lose the rotation, results stay correct.
    (void)pthread_setaffinity_np(pthread_self(), sizeof mask, &mask);
}

}  // namespace

const std::vector<int>& allowed_cpus() {
    static const std::vector<int> cpus = read_allowed_cpus();
    return cpus;
}

void pin_driver_to(int cpu) { set_mask({cpu}); }

void unpin_driver() { set_mask(allowed_cpus()); }

double calibrate_cpu(int cpu) {
    pin_driver_to(cpu);
    // 1 MiB of a random cyclic permutation: half ALU, half cache misses,
    // the two behaviours whose speed differs between the vCPUs.
    constexpr std::size_t kSlots = 1 << 18;
    std::vector<std::uint32_t> next(kSlots);
    std::iota(next.begin(), next.end(), 0U);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = kSlots - 1; i > 0; --i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        std::swap(next[i], next[state % i]);
    }
    double best = 1e300;
    for (int round = 0; round < 3; ++round) {
        const Clock::time_point start = Clock::now();
        std::uint32_t at = 0;
        std::uint64_t acc = 1;
        for (std::size_t step = 0; step < (1U << 20); ++step) {
            at = next[at];
            acc = acc * 6364136223846793005ULL + at;
        }
        const double took = seconds_between(start, Clock::now());
        if (acc == 42) best = -1;  // keeps the loop observable
        best = std::min(best, took);
    }
    unpin_driver();
    return best;
}

double peak_rss_mb() {
    // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
    // would report the launching process's peak whenever that is larger.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

double process_cpu_seconds() {
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) throw std::invalid_argument("quantile of no values");
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double sum(const std::vector<double>& values) {
    return std::accumulate(values.begin(), values.end(), 0.0);
}

double mean(const std::vector<double>& values) {
    return values.empty() ? 0.0 : sum(values) / static_cast<double>(values.size());
}

// --- Tracer --------------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(&tracer), index_(tracer.spans_.size()) {
    tracer.spans_.push_back(Span{name, tracer.request_, tracer.open_, Clock::now(), {}});
    tracer.open_ = index_;
}

Tracer::Scope::~Scope() {
    Span& span = tracer_->spans_[index_];
    span.end = Clock::now();
    tracer_->open_ = span.parent;
}

double Tracer::Scope::elapsed() const {
    return seconds_between(tracer_->spans_[index_].start, Clock::now());
}

void Tracer::write_summary(std::ostream& out) const {
    struct Totals final {
        std::size_t count = 0;
        double total = 0;
        double self = 0;
    };
    std::map<std::string, Totals> by_name;
    for (const Span& span : spans_) {
        const double took = seconds_between(span.start, span.end);
        Totals& totals = by_name[span.name];
        ++totals.count;
        totals.total += took;
        totals.self += took;
        if (span.parent != kNone) by_name[spans_[span.parent].name].self -= took;
    }
    for (const auto& [name, totals] : by_name) {
        out << "span " << name << " count=" << totals.count << " total_ms=" << totals.total * 1e3
            << " self_ms=" << totals.self * 1e3 << "\n";
    }
}

}  // namespace gatebench
