#include "util/combinatorics.h"

#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace bnash::util {

std::vector<std::vector<std::size_t>> subsets_of_size(std::size_t n, std::size_t size) {
    std::vector<std::vector<std::size_t>> out;
    if (size > n) return out;
    std::vector<std::size_t> current(size);
    for (std::size_t i = 0; i < size; ++i) current[i] = i;
    while (true) {
        out.push_back(current);
        // Advance to the next combination in lexicographic order.
        std::size_t i = size;
        while (i > 0 && current[i - 1] == n - size + (i - 1)) --i;
        if (i == 0) break;
        ++current[i - 1];
        for (std::size_t j = i; j < size; ++j) current[j] = current[j - 1] + 1;
    }
    return out;
}

std::vector<std::vector<std::size_t>> subsets_up_to_size(std::size_t n, std::size_t max_size) {
    std::vector<std::vector<std::size_t>> out;
    for (std::size_t size = 1; size <= max_size && size <= n; ++size) {
        auto layer = subsets_of_size(n, size);
        out.insert(out.end(), std::make_move_iterator(layer.begin()),
                   std::make_move_iterator(layer.end()));
    }
    return out;
}

std::uint64_t count_subsets_up_to_size(std::size_t n, std::size_t max_size) {
    std::uint64_t total = 0;
    for (std::size_t size = 1; size <= max_size && size <= n; ++size) {
        total += binomial(n, size);
    }
    return total;
}

namespace {

std::mutex& subset_cache_mutex() {
    static std::mutex mutex;
    return mutex;
}

using SubsetCache =
    std::map<std::pair<std::size_t, std::size_t>,
             std::shared_ptr<const std::vector<std::vector<std::size_t>>>>;

SubsetCache& subset_cache() {
    static SubsetCache cache;
    return cache;
}

}  // namespace

SubsetEnumerator::SubsetEnumerator(std::size_t n, std::size_t max_size) {
    const std::pair<std::size_t, std::size_t> key{n, max_size};
    std::lock_guard<std::mutex> lock(subset_cache_mutex());
    auto& slot = subset_cache()[key];
    if (!slot) {
        slot = std::make_shared<const std::vector<std::vector<std::size_t>>>(
            subsets_up_to_size(n, max_size));
    }
    subsets_ = slot;
}

void SubsetEnumerator::clear_cache() {
    std::lock_guard<std::mutex> lock(subset_cache_mutex());
    subset_cache().clear();
}

bool product_for_each(const std::vector<std::size_t>& radices,
                      const std::function<bool(const std::vector<std::size_t>&)>& visit) {
    for (const std::size_t radix : radices) {
        if (radix == 0) return true;  // empty product space: nothing to visit
    }
    std::vector<std::size_t> tuple(radices.size(), 0);
    while (true) {
        if (!visit(tuple)) return false;
        std::size_t pos = radices.size();
        while (pos > 0) {
            --pos;
            if (++tuple[pos] < radices[pos]) break;
            tuple[pos] = 0;
            if (pos == 0) return true;
        }
        if (radices.empty()) return true;
    }
}

bool product_for_each(const std::vector<std::size_t>& radices, std::uint64_t begin,
                      std::uint64_t end,
                      const std::function<bool(const std::vector<std::size_t>&)>& visit) {
    const std::uint64_t total = product_size(radices);
    if (end > total) throw std::out_of_range("product_for_each: range past end");
    if (begin >= end) return true;
    auto tuple = product_unrank(radices, begin);
    for (std::uint64_t rank = begin; rank < end; ++rank) {
        if (!visit(tuple)) return false;
        for (std::size_t pos = radices.size(); pos-- > 0;) {
            if (++tuple[pos] < radices[pos]) break;
            tuple[pos] = 0;
        }
    }
    return true;
}

std::uint64_t product_size(const std::vector<std::size_t>& radices) {
    std::uint64_t total = 1;
    for (const std::size_t radix : radices) {
        if (radix != 0 && total > std::numeric_limits<std::uint64_t>::max() / radix) {
            throw std::overflow_error("product_size overflow");
        }
        total *= radix;
    }
    return total;
}

std::uint64_t product_rank(const std::vector<std::size_t>& radices,
                           const std::vector<std::size_t>& tuple) {
    if (radices.size() != tuple.size()) {
        throw std::invalid_argument("product_rank: size mismatch");
    }
    std::uint64_t rank = 0;
    for (std::size_t i = 0; i < radices.size(); ++i) {
        if (tuple[i] >= radices[i]) throw std::out_of_range("product_rank: digit out of range");
        rank = rank * radices[i] + tuple[i];
    }
    return rank;
}

std::vector<std::uint64_t> product_strides(const std::vector<std::size_t>& radices) {
    std::vector<std::uint64_t> strides(radices.size(), 1);
    for (std::size_t i = radices.size(); i-- > 1;) strides[i - 1] = strides[i] * radices[i];
    return strides;
}

std::vector<std::size_t> product_unrank(const std::vector<std::size_t>& radices,
                                        std::uint64_t rank) {
    std::vector<std::size_t> tuple(radices.size(), 0);
    for (std::size_t i = radices.size(); i > 0; --i) {
        const std::size_t radix = radices[i - 1];
        if (radix == 0) throw std::invalid_argument("product_unrank: zero radix");
        tuple[i - 1] = static_cast<std::size_t>(rank % radix);
        rank /= radix;
    }
    if (rank != 0) throw std::out_of_range("product_unrank: rank out of range");
    return tuple;
}

std::uint64_t binomial(std::size_t n, std::size_t k) {
    if (k > n) return 0;
    if (k > n - k) k = n - k;
    std::uint64_t result = 1;
    for (std::size_t i = 1; i <= k; ++i) {
        const std::uint64_t numerator = n - k + i;
        if (result > std::numeric_limits<std::uint64_t>::max() / numerator) {
            throw std::overflow_error("binomial overflow");
        }
        result = result * numerator / i;  // divisible at every step
    }
    return result;
}

}  // namespace bnash::util
