// concepts_mix: the paper's other solution concepts on one executor —
// mediator resilience under both gain criteria, machine-game equilibria,
// awareness (pure generalized equilibria of canonical representations),
// scrip threshold best responses, Byzantine agreement (EIG batches,
// Phase-King, Dolev-Strong) and repeated-game meta-games. These layers go
// unmeasured otherwise; each item's size is drawn from a continuous range
// so the mix has no gap at the reported percentiles.
#include <cmath>
#include <functional>
#include <sstream>

#include "core/awareness/awareness_game.h"
#include "core/machine/machine_game.h"
#include "core/robust/mediator.h"
#include "dist/byzantine.h"
#include "game/catalog.h"
#include "game/extensive.h"
#include "harness.h"
#include "inputs.h"
#include "repeated/repeated_game.h"
#include "repeated/strategies.h"
#include "scrip/scrip_system.h"
#include "util/combinatorics.h"
#include "util/work_counters.h"

namespace gatebench {
namespace {

enum class Concept { kMediator, kMachine, kAwareness, kScrip, kConsensus, kRepeated };
constexpr const char* kConceptSpans[] = {"core.mediator",     "core.machine",
                                         "core.awareness",    "scrip.curve",
                                         "dist.consensus",    "repeated.meta_game"};

enum class Protocol { kEigBatch, kPhaseKing, kDolevStrong };

struct ConceptItem final {
    Concept kind = Concept::kMediator;
    std::size_t size = 0;   // players / machines / tree depth / agents / processes / lineup
    std::size_t param = 0;  // k / actions / branching / rounds / t / rounds
    std::uint64_t seed = 0;        // draws values: payoffs, inputs, coins
    std::uint64_t shape_seed = 0;  // draws structure: trees, policies, traitors
    // scrip
    std::size_t threshold = 2;
    std::size_t max_threshold = 3;
    // mediator
    bool consensus_policy = true;
    // consensus
    Protocol protocol = Protocol::kEigBatch;
    std::size_t batch = 1;
    std::uint64_t value = 0;
};

// --- item builders (program objects, built in setup) -------------------------

core::MediatorPolicy make_policy(const game::BayesianGame& game, const ConceptItem& item) {
    if (item.consensus_policy) return core::MediatorPolicy::byzantine_consensus(game);
    core::MediatorPolicy policy(game);
    util::Rng rng(item.shape_seed);
    for (std::uint64_t rank = 0; rank < game.num_type_profiles(); ++rank) {
        const auto types = util::product_unrank(game.type_counts(), rank);
        // Mostly the consensus recommendation, sometimes a stray profile:
        // a mix of resilient and non-resilient policies.
        const std::uint64_t general = types[0];
        game::PureProfile follow(game.num_players(), general);
        game::PureProfile stray(game.num_players());
        for (auto& action : stray) action = rng.next_below(2);
        policy.set_recommendation(types, follow, util::Rational(3, 4));
        policy.set_recommendation(types, stray, util::Rational(1, 4));
        if (stray == follow) policy.set_recommendation(types, follow, util::Rational(1));
    }
    return policy;
}

game::ExtensiveGame random_tree(const ConceptItem& item) {
    util::Rng rng(item.shape_seed);
    util::Rng values(item.seed);
    const std::size_t players = 2 + item.shape_seed % 2;
    game::ExtensiveGame tree(players);
    std::size_t labels = 0;
    const std::function<game::ExtensiveGame::NodeId(std::size_t, std::size_t)> grow =
        [&](std::size_t depth, std::size_t mover) -> game::ExtensiveGame::NodeId {
        if (depth == 0) {
            std::vector<util::Rational> payoffs;
            for (std::size_t p = 0; p < players; ++p) payoffs.emplace_back(values.next_int(0, 9));
            return tree.add_terminal(std::move(payoffs));
        }
        std::vector<std::string> actions;
        for (std::size_t a = 0; a < item.param; ++a) actions.push_back(std::to_string(a));
        const auto node = tree.add_decision(mover, std::to_string(labels++), actions);
        for (std::size_t a = 0; a < item.param; ++a) {
            // Uneven depths keep the number of decision nodes continuous.
            const std::size_t next = depth - 1 - (rng.next_bool(0.3) && depth > 1 ? 1 : 0);
            tree.set_child(node, a, grow(next, (mover + 1) % players));
        }
        return node;
    };
    (void)grow(item.size, 0);
    tree.finalize();
    return tree;
}

core::MachineGame make_machine_game(const ConceptItem& item) {
    util::Rng rng(item.seed);
    const std::size_t actions = item.param;
    auto base = game::NormalFormGame::random({actions, actions}, rng);
    core::MachineCost cost;
    cost.per_state = 0.05;
    cost.randomized_surcharge = 0.5;
    core::MachineGame game(core::lift_to_bayesian(base), cost);
    for (std::size_t player = 0; player < 2; ++player) {
        for (std::size_t m = 0; m < item.size; ++m) {
            if (m < actions) {
                game.add_machine(player, core::constant_machine(m));
            } else if (m == actions) {
                game.add_machine(player, core::uniform_random_machine());
            } else {
                game.add_machine(player,
                                 core::table_machine({rng.next_below(actions)},
                                                     "table" + std::to_string(m)));
            }
        }
    }
    return game;
}

std::vector<std::unique_ptr<repeated::Strategy>> make_lineup(const ConceptItem& item) {
    std::vector<std::unique_ptr<repeated::Strategy>> lineup;
    lineup.push_back(repeated::always_cooperate());
    lineup.push_back(repeated::always_defect());
    lineup.push_back(repeated::tit_for_tat());
    lineup.push_back(repeated::grim_trigger());
    lineup.push_back(repeated::pavlov());
    for (std::size_t k = 1; lineup.size() < item.size; ++k) {
        lineup.push_back(repeated::tft_defect_last_k(item.param, k));
    }
    lineup.resize(item.size);
    return lineup;
}

std::vector<dist::AdversaryKind> make_behaviors(const ConceptItem& item) {
    std::vector<dist::AdversaryKind> behaviors(item.size, dist::AdversaryKind::kHonest);
    util::Rng rng(item.shape_seed);
    static constexpr dist::AdversaryKind kLiars[] = {dist::AdversaryKind::kZeroLies,
                                                     dist::AdversaryKind::kRandomLies,
                                                     dist::AdversaryKind::kEquivocate};
    // Traitors never include process 0 (the Dolev-Strong general).
    for (std::size_t f = 0; f < item.param; ++f) {
        behaviors[item.size - 1 - f] = kLiars[rng.next_below(3)];
    }
    return behaviors;
}

std::string decisions_text(const dist::ConsensusRun& run,
                           const std::vector<dist::AdversaryKind>& behaviors) {
    std::ostringstream out;
    for (std::size_t p = 0; p < run.decisions.size(); ++p) {
        if (behaviors[p] != dist::AdversaryKind::kHonest) continue;
        out << (run.decisions[p] ? std::to_string(*run.decisions[p]) : "-") << ',';
    }
    return out.str();
}

// Pure Nash equilibria of a normal-form game, straight from the
// definition.
std::size_t count_pure_nash(const game::NormalFormGame& game) {
    std::size_t count = 0;
    for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
        const game::PureProfile profile = game.profile_unrank(rank);
        bool stable = true;
        for (std::size_t p = 0; p < game.num_players() && stable; ++p) {
            game::PureProfile deviation = profile;
            for (std::size_t a = 0; a < game.num_actions(p) && stable; ++a) {
                deviation[p] = a;
                if (game.payoff(deviation, p) > game.payoff(profile, p)) stable = false;
            }
        }
        if (stable) ++count;
    }
    return count;
}

class ConceptsMix final : public Workload {
public:
    void generate(const RunOptions& options) override {
        util::Rng shape(0xC0C0);
        util::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 41);
        const auto count = static_cast<std::size_t>(std::ceil(240 * options.scale));
        items_.clear();
        for (std::size_t i = 0; i < count; ++i) {
            ConceptItem item;
            item.kind = static_cast<Concept>(i % 6);
            item.seed = rng.next_u64();
            item.shape_seed = shape.next_u64();
            switch (item.kind) {
                case Concept::kMediator:
                    item.size = pick(shape, 3, 5);
                    item.param = pick(shape, 1, 2);
                    item.consensus_policy = shape.next_bool(0.5);
                    break;
                case Concept::kMachine:
                    item.param = pick(shape, 2, 4);
                    item.size = pick(shape, item.param + 1, 12);
                    break;
                case Concept::kAwareness:
                    item.param = pick(shape, 2, 3);
                    item.size = item.param == 2 ? pick(shape, 2, 4) : 2;
                    break;
                case Concept::kScrip:
                    item.size = pick(shape, 10, 40);
                    item.param = pick(shape, 500, 4000);
                    item.threshold = pick(shape, 2, 5);
                    item.max_threshold = pick(shape, 3, 7);
                    break;
                case Concept::kConsensus:
                    item.protocol = static_cast<Protocol>(shape.next_below(3));
                    item.param = pick(shape, 1, 2);  // traitors t
                    item.size = item.protocol == Protocol::kPhaseKing
                                    ? 4 * item.param + pick(shape, 1, 3)
                                    : 3 * item.param + pick(shape, 1, 2);
                    item.batch = pick(shape, 1, 6);
                    item.value = rng.next_below(2);
                    break;
                case Concept::kRepeated:
                    item.size = pick(shape, 3, 9);
                    item.param = pick(shape, 10, 200);
                    break;
            }
            items_.push_back(item);
        }
        rng.shuffle(items_);
    }

    void setup() override {
        for (const ConceptItem& item : items_) {
            switch (item.kind) {
                case Concept::kMediator:
                    bayesian_.push_back(std::make_unique<game::BayesianGame>(
                        game::catalog::byzantine_agreement_game(item.size)));
                    policies_.push_back(std::make_unique<core::MediatorPolicy>(
                        make_policy(*bayesian_.back(), item)));
                    break;
                case Concept::kMachine:
                    machines_.push_back(
                        std::make_unique<core::MachineGame>(make_machine_game(item)));
                    break;
                case Concept::kAwareness:
                    trees_.push_back(random_tree(item));
                    aware_.push_back(core::AwarenessGame::canonical(trees_.back()));
                    break;
                case Concept::kRepeated:
                    stages_.push_back(std::make_unique<repeated::RepeatedGame>(
                        game::catalog::prisoners_dilemma(), item.param));
                    break;
                default:
                    break;
            }
        }
        slot_.assign(items_.size(), 0);
        std::size_t counters[6] = {};
        for (std::size_t i = 0; i < items_.size(); ++i) {
            slot_[i] = counters[static_cast<int>(items_[i].kind)]++;
        }
    }

    void teardown() override {
        bayesian_.clear();
        policies_.clear();
        machines_.clear();
        aware_.clear();
        trees_.clear();
        stages_.clear();
    }

    [[nodiscard]] std::size_t num_items() const override { return items_.size(); }

    [[nodiscard]] std::string run_item(std::size_t i) override { return answer(i, nullptr); }

    [[nodiscard]] std::string expected(std::size_t i) override {
        const ConceptItem& item = items_[i];
        const std::size_t s = slot_[i];
        std::ostringstream out;
        switch (item.kind) {
            case Concept::kMediator: {
                const auto& policy = *policies_[s];
                out << core::reference::is_truthful_resilient_independent(
                           policy, item.param, core::GainCriterion::kAnyMemberGains)
                    << core::reference::is_truthful_resilient_independent(
                           policy, item.param, core::GainCriterion::kAllMembersGain);
                break;
            }
            case Concept::kMachine: {
                const core::MachineGame& game = *machines_[s];
                // Equilibria from the archived dense utility: no player gains
                // more than the tolerance by switching machines.
                for (std::size_t m0 = 0; m0 < item.size; ++m0) {
                    for (std::size_t m1 = 0; m1 < item.size; ++m1) {
                        const std::vector<std::size_t> profile = {m0, m1};
                        bool stable = true;
                        for (std::size_t p = 0; p < 2 && stable; ++p) {
                            const double own = game.utility_reference(profile, p);
                            std::vector<std::size_t> alt = profile;
                            for (std::size_t m = 0; m < item.size && stable; ++m) {
                                alt[p] = m;
                                stable = game.utility_reference(alt, p) <= own + 1e-9;
                            }
                        }
                        if (stable) out << m0 << ',' << m1 << ",;";
                    }
                }
                break;
            }
            case Concept::kAwareness:
                out << count_pure_nash(trees_[s].to_normal_form());
                break;
            case Concept::kScrip: {
                const scrip::ScripParams params = scrip_params(item);
                for (std::size_t c = 0; c <= item.max_threshold; ++c) {
                    std::vector<scrip::AgentSpec> specs(
                        params.num_agents, {scrip::BehaviorKind::kThreshold, item.threshold});
                    specs[0] = {scrip::BehaviorKind::kThreshold, c};
                    out << scrip::simulate(params, specs).utility[0] << ',';
                }
                break;
            }
            case Concept::kConsensus: {
                const auto behaviors = make_behaviors(item);
                if (item.protocol == Protocol::kEigBatch) {
                    // Each instance run on its own network.
                    const auto [inputs, seeds] = eig_inputs(item);
                    for (std::size_t j = 0; j < inputs.size(); ++j) {
                        const auto run = dist::run_eig_consensus(item.param, inputs[j],
                                                                 behaviors, seeds[j]);
                        out << decisions_text(run, behaviors) << '|';
                    }
                } else {
                    // Validity: every honest process decides the common
                    // honest input (the honest general's value).
                    for (const auto behavior : behaviors) {
                        if (behavior == dist::AdversaryKind::kHonest) out << item.value << ',';
                    }
                }
                break;
            }
            case Concept::kRepeated: {
                const auto lineup = make_lineup(item);
                const std::size_t count = lineup.size();
                util::Rng unused(0);
                for (std::size_t a = 0; a < count; ++a) {
                    for (std::size_t b = 0; b < count; ++b) {
                        auto s0 = lineup[a]->clone();
                        auto s1 = lineup[b]->clone();
                        s0->reset();
                        s1->reset();
                        // The match, played out round by round.
                        double total0 = 0;
                        double total1 = 0;
                        std::size_t last0 = 0;
                        std::size_t last1 = 0;
                        const auto stage = game::catalog::prisoners_dilemma();
                        for (std::size_t round = 0; round < item.param; ++round) {
                            const std::size_t a0 = s0->act(round, last1, unused);
                            const std::size_t a1 = s1->act(round, last0, unused);
                            total0 += stage.payoff_d({a0, a1}, 0);
                            total1 += stage.payoff_d({a0, a1}, 1);
                            last0 = a0;
                            last1 = a1;
                        }
                        out << util::Rational::from_double(total0).to_string() << ' '
                            << util::Rational::from_double(total1).to_string() << ',';
                    }
                }
                break;
            }
        }
        return out.str();
    }

    void trace_layers(Tracer& tracer, LayerMetrics& out, double seconds) override {
        const Clock::time_point start = Clock::now();
        double cells = 0;
        double messages = 0;
        double runs = 0;
        std::vector<std::vector<double>> per_kind(6);
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (seconds_between(start, Clock::now()) > seconds * 0.8) break;
            const ConceptItem& item = items_[i];
            tracer.next_request();
            const util::WorkCounters before = util::work_counters_snapshot();
            std::uint64_t sent = 0;
            (void)answer(i, &sent);
            cells += static_cast<double>(util::work_counters_snapshot().cells_visited -
                                         before.cells_visited);
            if (item.kind == Concept::kConsensus) {
                messages += static_cast<double>(sent);
                runs += 1;
            }
            const char* span_name = kConceptSpans[static_cast<int>(item.kind)];
            per_kind[static_cast<int>(item.kind)].push_back(fastest_of(1, 2, [&](std::size_t) {
                const Tracer::Scope span(tracer, span_name);
                (void)answer(i, nullptr);
            })[0]);
        }
        for (int kind = 0; kind < 6; ++kind) {
            out[std::string(kConceptSpans[kind]) + "_ms"] = mean(per_kind[kind]) * 1e3;
        }
        std::size_t done = 0;
        for (const auto& times : per_kind) done += times.size();
        out["core.concepts.cells_per_item"] =
            cells / static_cast<double>(std::max<std::size_t>(1, done));
        out["dist.messages_per_run"] = messages / std::max(1.0, runs);
    }

private:
    [[nodiscard]] static scrip::ScripParams scrip_params(const ConceptItem& item) {
        scrip::ScripParams params;
        params.num_agents = item.size;
        params.rounds = item.param;
        params.seed = item.seed;
        return params;
    }

    // Per-instance inputs and network seeds of an EIG batch.
    using EigInputs =
        std::pair<std::vector<std::vector<std::uint64_t>>, std::vector<std::uint64_t>>;
    [[nodiscard]] static EigInputs eig_inputs(const ConceptItem& item) {
        util::Rng rng(item.seed);
        std::vector<std::vector<std::uint64_t>> inputs(item.batch,
                                                       std::vector<std::uint64_t>(item.size));
        std::vector<std::uint64_t> seeds(item.batch);
        for (std::size_t j = 0; j < item.batch; ++j) {
            for (auto& input : inputs[j]) input = rng.next_below(2);
            seeds[j] = rng.next_u64();
        }
        return {inputs, seeds};
    }

    // The library's answer to item i as text; `messages` receives the
    // network's delivered message count for consensus items.
    [[nodiscard]] std::string answer(std::size_t i, std::uint64_t* messages) const {
        const ConceptItem& item = items_[i];
        const std::size_t s = slot_[i];
        const game::SweepMode mode = game::SweepMode::kAuto;
        std::ostringstream out;
        switch (item.kind) {
            case Concept::kMediator: {
                const auto& policy = *policies_[s];
                out << policy.is_truthful_resilient_independent(
                           item.param, core::GainCriterion::kAnyMemberGains, mode)
                    << policy.is_truthful_resilient_independent(
                           item.param, core::GainCriterion::kAllMembersGain, mode);
                break;
            }
            case Concept::kMachine:
                for (const auto& profile : machines_[s]->machine_equilibria(1e-9, mode)) {
                    for (const std::size_t m : profile) out << m << ',';
                    out << ';';
                }
                break;
            case Concept::kAwareness:
                out << aware_[s].pure_generalized_equilibria().size();
                break;
            case Concept::kScrip: {
                const auto curve = scrip::threshold_best_response_curve(
                    scrip_params(item), item.threshold, item.max_threshold);
                for (const double value : curve) out << value << ',';
                break;
            }
            case Concept::kConsensus: {
                const auto behaviors = make_behaviors(item);
                if (item.protocol == Protocol::kEigBatch) {
                    const auto [inputs, seeds] = eig_inputs(item);
                    const auto batch =
                        dist::run_eig_consensus_batch(item.param, inputs, behaviors, seeds);
                    for (const auto& decisions : batch.decisions) {
                        out << decisions_text({decisions, {}}, behaviors) << '|';
                    }
                    if (messages != nullptr) *messages = batch.metrics.messages;
                } else {
                    const std::vector<std::uint64_t> inputs(item.size, item.value);
                    const auto run =
                        item.protocol == Protocol::kPhaseKing
                            ? dist::run_phase_king(item.param, inputs, behaviors, item.seed)
                            : dist::run_dolev_strong(item.param, 0, item.value, behaviors,
                                                     item.seed);
                    out << decisions_text(run, behaviors);
                    if (messages != nullptr) *messages = run.metrics.messages;
                }
                break;
            }
            case Concept::kRepeated: {
                const auto meta = stages_[s]->meta_game(make_lineup(item));
                for (std::size_t a = 0; a < item.size; ++a) {
                    for (std::size_t b = 0; b < item.size; ++b) {
                        out << meta.payoff({a, b}, 0).to_string() << ' '
                            << meta.payoff({a, b}, 1).to_string() << ',';
                    }
                }
                break;
            }
        }
        return out.str();
    }

    std::vector<ConceptItem> items_;
    std::vector<std::size_t> slot_;  // index into the per-concept object lists
    std::vector<std::unique_ptr<game::BayesianGame>> bayesian_;
    std::vector<std::unique_ptr<core::MediatorPolicy>> policies_;
    std::vector<std::unique_ptr<core::MachineGame>> machines_;
    std::vector<game::ExtensiveGame> trees_;
    std::vector<core::AwarenessGame> aware_;
    std::vector<std::unique_ptr<repeated::RepeatedGame>> stages_;
};

}  // namespace

std::unique_ptr<Workload> make_concepts_mix() { return std::make_unique<ConceptsMix>(); }

}  // namespace gatebench
