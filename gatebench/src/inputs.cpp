#include "inputs.h"

#include <sstream>

#include "util/combinatorics.h"

namespace gatebench {

namespace {

// A random profile in which exactly the players of `movers` leave the
// candidate action.
game::PureProfile deviate(const PlantedSpec& spec, const game::PureProfile& candidate,
                          const std::vector<std::size_t>& movers, util::Rng& rng) {
    game::PureProfile out = candidate;
    for (const std::size_t player : movers) {
        const std::size_t shift = 1 + rng.next_below(spec.actions[player] - 1);
        out[player] = (candidate[player] + shift) % spec.actions[player];
    }
    return out;
}

std::vector<std::size_t> random_subset(std::size_t n, std::size_t size, util::Rng& rng) {
    std::vector<std::size_t> players(n);
    for (std::size_t i = 0; i < n; ++i) players[i] = i;
    rng.shuffle(players);
    players.resize(size);
    return players;
}

}  // namespace

PlantedGame plant_game(const PlantedSpec& spec, util::Rng& rng, util::Rng& values) {
    const std::size_t n = spec.actions.size();
    PlantedGame out;
    out.spec = spec;
    out.candidate.resize(n);
    for (std::size_t i = 0; i < n; ++i) out.candidate[i] = rng.next_below(spec.actions[i]);

    std::uint64_t profiles = 1;
    for (const std::size_t count : spec.actions) profiles *= count;
    out.payoffs.resize(profiles * n, util::Rational(0));
    for (std::uint64_t rank = 0; rank < profiles; ++rank) {
        const game::PureProfile profile = util::product_unrank(spec.actions, rank);
        for (std::size_t i = 0; i < n; ++i) {
            // Keeping the candidate action pays 10..15, leaving it 5..10:
            // nobody gains by deviating and no bystander is hurt.
            const auto spread = static_cast<std::int64_t>(values.next_below(6));
            out.payoffs[rank * n + i] =
                util::Rational(profile[i] == out.candidate[i] ? 10 + spread : 10 - spread);
        }
    }
    const std::uint64_t candidate_rank = util::product_rank(spec.actions, out.candidate);
    for (std::size_t i = 0; i < n; ++i) out.payoffs[candidate_rank * n + i] = 10;

    if (spec.resilience_depth > 0) {
        const auto movers = random_subset(n, spec.resilience_depth, rng);
        const auto profile = deviate(spec, out.candidate, movers, rng);
        const std::size_t gainer = movers[rng.next_below(movers.size())];
        out.payoffs[util::product_rank(spec.actions, profile) * n + gainer] = 17;
    }
    if (spec.immunity_depth > 0 && spec.immunity_depth < n) {
        const auto movers = random_subset(n, spec.immunity_depth, rng);
        const auto profile = deviate(spec, out.candidate, movers, rng);
        std::vector<std::size_t> bystanders;
        for (std::size_t i = 0; i < n; ++i) {
            if (profile[i] == out.candidate[i]) bystanders.push_back(i);
        }
        const std::size_t hurt = bystanders[rng.next_below(bystanders.size())];
        out.payoffs[util::product_rank(spec.actions, profile) * n + hurt] = 9;
    }
    return out;
}

game::NormalFormGame to_game(const std::vector<std::size_t>& actions,
                             const std::vector<util::Rational>& payoffs) {
    game::NormalFormGame game(actions);
    const std::size_t n = actions.size();
    for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
        const game::PureProfile profile = game.profile_unrank(rank);
        for (std::size_t i = 0; i < n; ++i) {
            game.set_payoff(profile, i, payoffs[rank * n + i]);
        }
    }
    return game;
}

std::string grid_text(const core::FrontierVerdict& grid, bool with_witnesses) {
    std::ostringstream out;
    for (std::size_t k = 0; k <= grid.max_k; ++k) {
        for (std::size_t t = 0; t <= grid.max_t; ++t) {
            out << "RBU"[static_cast<int>(grid.verdict(k, t))];
        }
        out << '/';
    }
    if (with_witnesses) {
        for (const auto& cell : grid.cells) {
            if (cell) out << ' ' << cell->to_string();
        }
    }
    return out.str();
}

std::string max_kt_text(const core::MaxKtResult& result) {
    std::ostringstream out;
    out << "imm=" << result.immunity_ok << " k_of_t=";
    for (const std::size_t k : result.k_of_t) out << k << ',';
    out << " complete=" << result.complete;
    return out.str();
}

}  // namespace gatebench
