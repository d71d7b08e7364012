// Enumeration helpers shared by the coalition checkers and solvers.
//
// The robustness definitions of Section 2 quantify over coalitions
// (subsets of players of size <= k) and over joint deviations (elements of
// a Cartesian product of action sets). These helpers centralize the
// enumeration so every checker walks identical, deterministic orders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace bnash::util {

// All subsets of {0..n-1} with exactly `size` elements, lexicographic.
[[nodiscard]] std::vector<std::vector<std::size_t>> subsets_of_size(std::size_t n,
                                                                    std::size_t size);

// All subsets with 1 <= |S| <= max_size, ordered by size then lexicographic.
[[nodiscard]] std::vector<std::vector<std::size_t>> subsets_up_to_size(std::size_t n,
                                                                       std::size_t max_size);

// Number of subsets enumerated by subsets_up_to_size (for bench reporting).
[[nodiscard]] std::uint64_t count_subsets_up_to_size(std::size_t n, std::size_t max_size);

// Cached view of subsets_up_to_size(n, max_size): the subset list is
// materialized once per (n, max_size) and shared, immutable, across every
// enumerator instance and every thread. The robustness checkers construct
// one per call (max_resilience probes k = 1..n, each probe quantifying
// over the same coalition lists), so the cache turns an O(2^n)
// re-materialization per call into a pointer copy.
//
// Memory: entries live for the process and the (n, k) list overlaps the
// (n, k-1) list, so a full k = 1..n probe retains O(n * 2^n) subsets in
// the worst case. Fine at the sizes the exponential checkers can sweep
// at all (n <= ~16); revisit with per-size layers if a workload ever
// enumerates subsets of large ground sets through this cache.
class SubsetEnumerator final {
public:
    SubsetEnumerator(std::size_t n, std::size_t max_size);

    [[nodiscard]] std::size_t size() const noexcept { return subsets_->size(); }
    [[nodiscard]] const std::vector<std::size_t>& operator[](std::size_t index) const {
        return (*subsets_)[index];
    }
    [[nodiscard]] auto begin() const noexcept { return subsets_->begin(); }
    [[nodiscard]] auto end() const noexcept { return subsets_->end(); }
    // The shared backing list (tests assert cache hits by pointer identity).
    [[nodiscard]] const std::vector<std::vector<std::size_t>>& items() const noexcept {
        return *subsets_;
    }

    // Drops every cached list (isolation between cache-behavior tests).
    static void clear_cache();

private:
    std::shared_ptr<const std::vector<std::vector<std::size_t>>> subsets_;
};

// Odometer over a mixed-radix space: visits every tuple t with
// 0 <= t[i] < radices[i], in row-major order. `visit` returns false to stop
// early; product_for_each returns false iff stopped early.
bool product_for_each(const std::vector<std::size_t>& radices,
                      const std::function<bool(const std::vector<std::size_t>&)>& visit);

// Ranged overload: visits only the tuples with row-major ranks in
// [begin, end), in order, with the same early-exit contract.
// Concatenating disjoint ranges reproduces the full enumeration, which
// is what makes the odometer block-decomposable — the punishment search
// parallelizes over candidate rank blocks through this overload (the
// robustness engine's intra-coalition ranged blocks use the offset-aware
// util::OffsetWalker::seek instead). Contract pinned by test_util.
bool product_for_each(const std::vector<std::size_t>& radices, std::uint64_t begin,
                      std::uint64_t end,
                      const std::function<bool(const std::vector<std::size_t>&)>& visit);

// Total number of tuples in the product space (throws std::overflow_error
// if it exceeds uint64).
[[nodiscard]] std::uint64_t product_size(const std::vector<std::size_t>& radices);

// Row-major rank of a tuple in the product space and its inverse.
[[nodiscard]] std::uint64_t product_rank(const std::vector<std::size_t>& radices,
                                         const std::vector<std::size_t>& tuple);
[[nodiscard]] std::vector<std::size_t> product_unrank(const std::vector<std::size_t>& radices,
                                                      std::uint64_t rank);
// Row-major strides: rank = sum_i tuple[i] * strides[i].
[[nodiscard]] std::vector<std::uint64_t> product_strides(const std::vector<std::size_t>& radices);

// n choose k without overflow for the sizes used here (throws otherwise).
[[nodiscard]] std::uint64_t binomial(std::size_t n, std::size_t k);

}  // namespace bnash::util
