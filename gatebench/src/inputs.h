// Seeded input builders shared by the workloads, and canonical text forms
// of the library's answers (what the correctness check compares).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "core/robust/robustness.h"
#include "game/normal_form.h"
#include "util/rational.h"
#include "util/rng.h"

namespace gatebench {

// A game whose candidate profile is (k,t)-robust up to a planted depth.
// Payoffs are integers: the candidate pays every player 10, a player who
// deviates alone never gains and a player who keeps the candidate action
// is never hurt, except at two planted profiles: one where a deviator
// gains (`resilience_depth` players deviate) and one where a bystander is
// hurt (`immunity_depth` players deviate). A depth of 0 plants nothing.
struct PlantedSpec final {
    std::vector<std::size_t> actions;
    std::size_t resilience_depth = 0;
    std::size_t immunity_depth = 0;
};

struct PlantedGame final {
    PlantedSpec spec;
    game::PureProfile candidate;
    // Flat payoff table, profile rank-major then player (the protocol's
    // `payoffs` order).
    std::vector<util::Rational> payoffs;
};

// `shape` draws the candidate and the planted profiles (which fix the
// sweep's cost); `values` draws the remaining payoff values.
[[nodiscard]] PlantedGame plant_game(const PlantedSpec& spec, util::Rng& shape,
                                     util::Rng& values);
[[nodiscard]] game::NormalFormGame to_game(const std::vector<std::size_t>& actions,
                                           const std::vector<util::Rational>& payoffs);

[[nodiscard]] std::string grid_text(const core::FrontierVerdict& grid, bool with_witnesses);
[[nodiscard]] std::string max_kt_text(const core::MaxKtResult& result);

// Uniform integer in [lo, hi].
[[nodiscard]] inline std::size_t pick(util::Rng& rng, std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng.next_below(hi - lo + 1));
}

}  // namespace gatebench
