// serve_socket: one loopback connection to serve::run_socket_front, the
// only path a networked user takes. Each request pipelines its upload
// lines and an `ask` or `frontier` line in one write, then reads the
// replies. The mix: asymmetric 3-6 player games and symmetric catalog
// games with 4-8 players; about half are relabelled, rescaled re-uploads
// of an earlier game (canonical cache hits), about 10% are budget-starved
// asks and about 5% streamed frontiers. Sweeps are tiny, so the socket and
// serve layers do almost all of the work: this is the bypass case for
// changes to the sweep core.
//
// The front never sets TCP_NODELAY, so the replies to a pipelined request
// wait for the client's delayed ACK: every request costs tens of
// milliseconds. The benchmark records that stall; it does not work
// around it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/robust/robustness.h"
#include "game/catalog.h"
#include "harness.h"
#include "inputs.h"
#include "serve/canonical.h"
#include "serve/server.h"
#include "serve/socket_front.h"
#include "serve/text_front.h"
#include "util/combinatorics.h"

namespace gatebench {
namespace {

// The front rejects longer lines.
constexpr std::size_t kMaxLineBytes = 1 << 16;

enum class Kind { kAsk, kStarved, kFrontier };

struct Request final {
    Kind kind = Kind::kAsk;
    std::vector<std::size_t> actions;
    std::vector<util::Rational> payoffs;  // flat, profile rank-major then player
    game::PureProfile profile;
    std::size_t k = 1;  // max_k for frontiers
    std::size_t t = 0;
    std::optional<std::size_t> original;  // index of the request this re-uploads
    std::vector<std::string> lines;
};

std::string rational_text(const util::Rational& value) {
    return value.is_integer() ? std::to_string(value.num())
                              : std::to_string(value.num()) + "/" + std::to_string(value.den());
}

std::vector<util::Rational> flat_payoffs(const game::NormalFormGame& game) {
    std::vector<util::Rational> out;
    out.reserve(game.num_profiles() * game.num_players());
    for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
        for (std::size_t i = 0; i < game.num_players(); ++i) out.push_back(game.payoff_at(rank, i));
    }
    return out;
}

// The same game with players relabelled by `perm` (new player j is old
// player perm[j]) and each player's payoffs mapped by a positive affine
// map: every (k,t) verdict is unchanged.
Request relabel(const Request& from, util::Rng& rng) {
    const std::size_t n = from.actions.size();
    std::vector<std::size_t> perm(n);
    for (std::size_t j = 0; j < n; ++j) perm[j] = j;
    rng.shuffle(perm);
    std::vector<util::Rational> scale(n);
    std::vector<util::Rational> shift(n);
    for (std::size_t j = 0; j < n; ++j) {
        scale[j] = util::Rational(static_cast<std::int64_t>(1 + rng.next_below(3)),
                                  static_cast<std::int64_t>(1 + rng.next_below(2)));
        shift[j] = util::Rational(rng.next_int(-3, 3));
    }
    Request out = from;
    for (std::size_t j = 0; j < n; ++j) {
        out.actions[j] = from.actions[perm[j]];
        out.profile[j] = from.profile[perm[j]];
    }
    std::uint64_t profiles = 1;
    for (const std::size_t count : out.actions) profiles *= count;
    out.payoffs.assign(profiles * n, util::Rational(0));
    game::PureProfile old_profile(n);
    for (std::uint64_t rank = 0; rank < profiles; ++rank) {
        const game::PureProfile profile = util::product_unrank(out.actions, rank);
        for (std::size_t j = 0; j < n; ++j) old_profile[perm[j]] = profile[j];
        const std::uint64_t old_rank = util::product_rank(from.actions, old_profile);
        for (std::size_t j = 0; j < n; ++j) {
            out.payoffs[rank * n + j] = from.payoffs[old_rank * n + perm[j]] * scale[j] + shift[j];
        }
    }
    return out;
}

void render(Request& request) {
    std::ostringstream game;
    game << "game " << request.actions.size();
    for (const std::size_t count : request.actions) game << ' ' << count;
    std::ostringstream payoffs;
    payoffs << "payoffs";
    for (const auto& value : request.payoffs) payoffs << ' ' << rational_text(value);
    std::ostringstream profile;
    profile << "profile";
    for (const std::size_t action : request.profile) profile << ' ' << action;
    std::ostringstream query;
    switch (request.kind) {
        case Kind::kAsk: query << "ask " << request.k << ' ' << request.t; break;
        // One cell of budget cannot cover the immunity baseline: the
        // answer must come back degraded with a resume token.
        case Kind::kStarved: query << "ask " << request.k << ' ' << request.t << " 1"; break;
        case Kind::kFrontier: query << "frontier " << request.k << ' ' << request.t; break;
    }
    request.lines = {game.str(), payoffs.str(), profile.str(), query.str()};
    for (const auto& line : request.lines) {
        if (line.size() + 1 > kMaxLineBytes) throw std::logic_error("request line over 64 KiB");
    }
}

// Reduces reply lines to the fields the check compares: the verdict and
// status of an ask (cache path and cells vary with the pass), the column
// breaking sizes of a frontier.
std::string reply_text(Kind kind, const std::vector<std::string>& replies) {
    std::ostringstream out;
    std::size_t oks = 0;
    std::vector<std::string> columns;
    for (const auto& line : replies) {
        if (line == "ok") {
            ++oks;
        } else if (line.rfind("verdict=", 0) == 0) {
            std::istringstream fields(line);
            std::string verdict;
            std::string status;
            fields >> verdict >> status;
            out << verdict << ' ' << status;
            if (line.find(" token=") != std::string::npos) out << " token";
        } else if (line.rfind("col ", 0) == 0) {
            columns.push_back(line.substr(4));
        } else if (line.rfind("done", 0) == 0) {
            out << "done";
        } else {
            out << "unexpected '" << line << "'";
        }
    }
    if (kind == Kind::kFrontier) {
        std::sort(columns.begin(), columns.end());
        out << " cols";
        for (const auto& column : columns) out << " [" << column << ']';
    }
    if (oks != 3) out << " oks=" << oks;
    return out.str();
}

bool terminal(Kind kind, const std::string& line) {
    if (line.rfind("error", 0) == 0) return true;
    if (kind == Kind::kFrontier) {
        return line.rfind("done", 0) == 0 || line.rfind("degraded", 0) == 0;
    }
    return line.rfind("verdict=", 0) == 0;
}

// A running socket front over a fresh server, and one client connection.
class Front final {
public:
    Front() : thread_([this] { serve(); }) {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return port_ != 0 || !error_.empty(); });
        if (!error_.empty()) throw std::runtime_error(error_);
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port_);
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
            if (fd_ >= 0) ::close(fd_);
            stop_.store(true);
            throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
        }
    }

    ~Front() {
        if (fd_ >= 0) ::close(fd_);
        stop_.store(true);
    }

    Front(const Front&) = delete;
    Front& operator=(const Front&) = delete;

    // Sends the request in one write and reads replies up to the terminal
    // line.
    std::vector<std::string> round_trip(const Request& request) {
        std::string payload;
        for (const auto& line : request.lines) payload += line + '\n';
        for (std::size_t sent = 0; sent < payload.size();) {
            const ssize_t n =
                ::send(fd_, payload.data() + sent, payload.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) return {"error: send failed"};
            sent += static_cast<std::size_t>(n);
        }
        std::vector<std::string> replies;
        while (true) {
            const std::size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                replies.push_back(buffer_.substr(0, newline));
                buffer_.erase(0, newline + 1);
                if (terminal(request.kind, replies.back())) return replies;
                continue;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0) {
                replies.push_back("error: connection closed");
                return replies;
            }
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    void serve() {
        serve::SocketFrontOptions options;
        options.on_listen = [this](std::uint16_t port) {
            const std::lock_guard<std::mutex> lock(mutex_);
            port_ = port;
            ready_.notify_all();
        };
        try {
            (void)serve::run_socket_front(server_, options, stop_);
        } catch (const std::exception& error) {
            const std::lock_guard<std::mutex> lock(mutex_);
            error_ = error.what();
            ready_.notify_all();
        }
    }

    serve::RobustnessServer server_;
    std::atomic<bool> stop_{false};
    std::mutex mutex_;
    std::condition_variable ready_;
    std::uint16_t port_ = 0;
    std::string error_;
    int fd_ = -1;
    std::string buffer_;
    std::jthread thread_;  // last: joins before the members it uses go away
};

class ServeSocket final : public Workload {
public:
    void generate(const RunOptions& options) override {
        util::Rng shape(0x50C7);
        util::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 37);
        const auto count = static_cast<std::size_t>(std::ceil(220 * options.scale));
        requests_.clear();
        for (std::size_t i = 0; i < count; ++i) {
            Request request;
            const double roll = shape.next_double();
            request.kind = roll < 0.10 ? Kind::kStarved
                                       : (roll < 0.15 ? Kind::kFrontier : Kind::kAsk);
            // Re-uploads point at an earlier plain ask, so they hit its
            // cached verdict.
            std::vector<std::size_t> asks;
            for (std::size_t j = 0; j < requests_.size(); ++j) {
                if (requests_[j].kind == Kind::kAsk && !requests_[j].original) asks.push_back(j);
            }
            if (request.kind == Kind::kAsk && !asks.empty() && shape.next_bool(0.55)) {
                const std::size_t from = asks[shape.next_below(asks.size())];
                Request copy = relabel(requests_[from], rng);
                copy.original = from;
                render(copy);
                requests_.push_back(std::move(copy));
                continue;
            }
            if (request.kind == Kind::kStarved || shape.next_bool(0.5)) {
                const std::size_t n = pick(shape, 3, 6);
                PlantedSpec spec;
                for (std::size_t p = 0; p < n; ++p) spec.actions.push_back(pick(shape, 2, 3));
                // Starved asks need a candidate with no violation at all.
                if (request.kind != Kind::kStarved) {
                    spec.resilience_depth = shape.next_bool(0.5) ? 0 : pick(shape, 1, n);
                    spec.immunity_depth = shape.next_bool(0.5) ? 0 : pick(shape, 1, n - 1);
                }
                const PlantedGame planted = plant_game(spec, shape, rng);
                request.actions = spec.actions;
                request.payoffs = planted.payoffs;
                request.profile = planted.candidate;
            } else {
                const std::size_t n = pick(shape, 4, 8);
                const std::size_t which = shape.next_below(3);
                const game::NormalFormGame game =
                    which == 0 ? game::catalog::gnutella_sharing_game(n)
                               : (which == 1 ? game::catalog::attack_coordination_game(n)
                                             : game::catalog::bargaining_game(n));
                request.actions = game.action_counts();
                request.payoffs = flat_payoffs(game);
                request.profile.assign(n, shape.next_below(2));
            }
            const std::size_t n = request.actions.size();
            request.k = pick(shape, 1, std::min<std::size_t>(3, n - 1));
            request.t = pick(shape, 0, std::min<std::size_t>(2, n - 1 - request.k));
            if (request.kind == Kind::kStarved) request.t = std::max<std::size_t>(request.t, 1);
            render(request);
            requests_.push_back(std::move(request));
        }
    }

    // The program-side set-up of a pass: a server, a listening front and a
    // connected client. No request is sent, so the delayed-ACK stall stays
    // out of setup_s. The last set-up's front serves the first pass.
    void setup() override { front_.emplace(); }
    void teardown() override { front_.reset(); }

    [[nodiscard]] std::size_t num_items() const override { return requests_.size(); }

    // The delayed-ACK stall dominates and is steady; two rotations are
    // enough and keep the run inside its time budget.
    [[nodiscard]] std::size_t min_passes() const override { return 2; }

    void begin_pass() override {
        if (!front_) front_.emplace();
    }
    void end_pass() override { front_.reset(); }

    [[nodiscard]] std::string run_item(std::size_t i) override {
        return reply_text(requests_[i].kind, front_->round_trip(requests_[i]));
    }

    [[nodiscard]] std::string expected(std::size_t i) override {
        const Request& request = requests_[i];
        // Verdicts come from the game as first uploaded, not from the
        // relabelled copy the server saw.
        const Request& source = request.original ? requests_[*request.original] : request;
        const game::NormalFormGame game = to_game(source.actions, source.payoffs);
        const auto profile = core::as_exact_profile(game, source.profile);
        core::RobustnessOptions options;
        options.mode = game::SweepMode::kSerial;
        std::ostringstream out;
        switch (request.kind) {
            case Kind::kStarved:
                out << "verdict=unknown status=degraded token";
                break;
            case Kind::kAsk:
                out << "verdict="
                    << (core::is_kt_robust(game, profile, request.k, request.t, options)
                            ? "robust"
                            : "broken")
                    << " status=resolved";
                break;
            case Kind::kFrontier: {
                std::vector<std::string> columns;
                for (std::size_t t = 0; t <= request.t; ++t) {
                    std::size_t breaking = request.k + 1;
                    for (std::size_t k = 0; k <= request.k; ++k) {
                        if (!core::is_kt_robust(game, profile, k, t, options)) {
                            breaking = k;
                            break;
                        }
                    }
                    columns.push_back(std::to_string(t) + " " + std::to_string(breaking));
                }
                std::sort(columns.begin(), columns.end());
                out << "done cols";
                for (const auto& column : columns) out << " [" << column << ']';
                break;
            }
        }
        return out.str();
    }

    void trace_layers(Tracer& tracer, LayerMetrics& out, double seconds) override;

private:
    std::vector<Request> requests_;
    std::optional<Front> front_;
};

void ServeSocket::trace_layers(Tracer& tracer, LayerMetrics& out, double seconds) {
    const Clock::time_point start = Clock::now();
    // Requests sent over the socket: as many as fit in about a third of the
    // budget (each costs the stall).
    std::size_t covered = requests_.size();
    std::vector<double> socket_best(covered, 1e300);
    for (std::size_t pass = 0; pass < 2; ++pass) {
        Front front;
        pin_driver_to(allowed_cpus()[pass % allowed_cpus().size()]);
        for (std::size_t i = 0; i < covered; ++i) {
            if (seconds_between(start, Clock::now()) > seconds * 0.35 * (pass + 1) / 2) {
                covered = i;
                break;
            }
            const Tracer::Scope span(tracer, "socket.request");
            (void)front.round_trip(requests_[i]);
            socket_best[i] = std::min(socket_best[i], span.elapsed());
        }
        unpin_driver();
    }
    socket_best.resize(covered);

    // Every request's lines replayed in process through a LineSession,
    // fastest of three fresh servers; parse = the three upload lines.
    const std::size_t all = requests_.size();
    std::vector<double> session_best(all, 1e300);
    std::vector<double> parse_best(all, 1e300);
    double hits = 0;
    double asks = 0;
    double degraded = 0;
    double cells = 0;
    std::vector<bool> miss(all, false);
    for (std::size_t pass = 0; pass < 3; ++pass) {
        serve::RobustnessServer server;
        serve::LineSession session(server);
        pin_driver_to(allowed_cpus()[pass % allowed_cpus().size()]);
        for (std::size_t i = 0; i < all; ++i) {
            tracer.next_request();
            std::vector<std::string> replies;
            const auto sink = [&replies](const std::string& line) {
                replies.push_back(line);
                return true;
            };
            const Tracer::Scope request_span(tracer, "serve.session");
            {
                const Tracer::Scope parse_span(tracer, "serve.parse");
                for (std::size_t l = 0; l < 3; ++l) {
                    (void)session.handle_line(requests_[i].lines[l], sink);
                }
                parse_best[i] = std::min(parse_best[i], parse_span.elapsed());
            }
            (void)session.handle_line(requests_[i].lines[3], sink);
            session_best[i] = std::min(session_best[i], request_span.elapsed());
            if (pass > 0) continue;
            const std::string& last = replies.back();
            if (requests_[i].kind != Kind::kFrontier) {
                asks += 1;
                if (last.find("cache=hit") != std::string::npos) hits += 1;
                miss[i] = last.find("cache=miss") != std::string::npos &&
                          last.find("status=resolved") != std::string::npos;
            } else {
                miss[i] = true;
            }
            if (last.find("degraded") != std::string::npos) degraded += 1;
            const std::size_t at = last.find("cells=");
            if (at != std::string::npos) cells += std::stod(last.substr(at + 6));
        }
        unpin_driver();
    }

    // Canonical key of every ask, and the sweep behind every miss, called
    // directly.
    double key_total = 0;
    double sweep_total = 0;
    std::size_t sweeps = 0;
    for (std::size_t i = 0; i < all; ++i) {
        const Request& request = requests_[i];
        const game::NormalFormGame game = to_game(request.actions, request.payoffs);
        const auto profile = core::as_exact_profile(game, request.profile);
        if (request.kind != Kind::kFrontier) {
            key_total += fastest_of(1, 3, [&](std::size_t) {
                const Tracer::Scope span(tracer, "serve.canonical_key");
                (void)serve::canonical_key(game, profile, request.k, request.t,
                                           core::GainCriterion::kAnyMemberGains);
            })[0];
        }
        if (!miss[i]) continue;
        ++sweeps;
        sweep_total += fastest_of(1, 3, [&](std::size_t) {
            const Tracer::Scope span(tracer, "core.sweep");
            if (request.kind == Kind::kFrontier) {
                (void)core::batch_robustness_frontier(game, profile, request.k, request.t);
            } else {
                (void)core::is_kt_robust(game, profile, request.k, request.t);
            }
        })[0];
    }

    double socket_self = 0;
    for (std::size_t i = 0; i < covered; ++i) socket_self += socket_best[i] - session_best[i];
    out["socket.self_ms"] =
        socket_self / static_cast<double>(std::max<std::size_t>(1, covered)) * 1e3;
    const double n = static_cast<double>(std::max<std::size_t>(1, all));
    out["serve.session_ms"] = sum(session_best) / n * 1e3;
    out["serve.parse_ms"] = sum(parse_best) / n * 1e3;
    out["serve.canonical_key_ms"] = key_total / std::max(1.0, asks) * 1e3;
    out["core.sweep_ms"] =
        sweep_total / static_cast<double>(std::max<std::size_t>(1, sweeps)) * 1e3;
    out["serve.server_self_ms"] =
        (sum(session_best) - sum(parse_best) - key_total - sweep_total) / n * 1e3;
    out["serve.cache_hit_share"] = hits / std::max(1.0, asks);
    out["serve.degraded_share"] = degraded / n;
    out["serve.cells_per_request"] = cells / n;
}

}  // namespace

std::unique_ptr<Workload> make_serve_socket() { return std::make_unique<ServeSocket>(); }

}  // namespace gatebench
