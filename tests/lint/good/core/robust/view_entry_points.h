// Fixture: GameView-only entry points stay quiet under twin-overload, as
// do a NormalFormGame function with no view twin, a deleted rvalue
// guard, a same-named view function in ANOTHER namespace, and the
// exempt reference:: oracles.
#pragma once

#include <cstddef>

namespace bnash::game {
class NormalFormGame;
class GameView;
}  // namespace bnash::game

namespace bnash::core {

bool is_fixture_robust(game::GameView view, std::size_t k);
std::size_t fixture_max(const game::NormalFormGame& game, std::size_t cap);

class FixtureSweep final {
public:
    FixtureSweep(game::GameView view, std::size_t width);
    FixtureSweep(const game::NormalFormGame&& game, std::size_t width) = delete;
};

namespace reference {
bool is_fixture_robust(const game::NormalFormGame& game, std::size_t k);
bool is_fixture_robust(const game::GameView& view, std::size_t k);
}  // namespace reference

}  // namespace bnash::core

namespace bnash::solver {

std::size_t fixture_max(const game::GameView& view, std::size_t cap);

}  // namespace bnash::solver
