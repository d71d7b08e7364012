// Fixture: NormalFormGame twins of GameView entry points — must trigger
// twin-overload exactly three times (the free checker, the constructor,
// and the multi-line declaration after a digit-separated default).
#pragma once

#include <cstddef>

namespace bnash::game {
class NormalFormGame;
class GameView;
}  // namespace bnash::game

namespace bnash::core {

bool is_fixture_robust(const game::NormalFormGame& game, std::size_t k);
bool is_fixture_robust(game::GameView view, std::size_t k);

std::size_t fixture_walk(const game::GameView& view, std::size_t cap = 100'000);
std::size_t fixture_walk(
    const game::NormalFormGame& game, std::size_t cap = 100'000);

class FixtureSweep final {
public:
    FixtureSweep(const game::NormalFormGame& game, std::size_t width);
    FixtureSweep(game::GameView view, std::size_t width);
};

// The archived oracles keep their NormalFormGame form: exempt.
namespace reference {
bool is_fixture_robust(const game::NormalFormGame& game, std::size_t k);
bool is_fixture_robust(const game::GameView& view, std::size_t k);
}  // namespace reference

}  // namespace bnash::core
