#include "util/rational.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>

namespace bnash::util {
namespace {

__extension__ typedef __int128 Int128;  // GCC/Clang extension, pedantic-safe

constexpr Int128 kMinInt64 = std::numeric_limits<std::int64_t>::min();
constexpr Int128 kMaxInt64 = std::numeric_limits<std::int64_t>::max();

std::int64_t narrow_checked(Int128 value) {
    if (value < kMinInt64 || value > kMaxInt64) throw RationalOverflow{};
    return static_cast<std::int64_t>(value);
}

Int128 abs128(Int128 value) { return value < 0 ? -value : value; }

constexpr Int128 kMaxUint64 = std::numeric_limits<std::uint64_t>::max();

// Euclid on magnitudes. 128-bit `%` is a library call that costs more
// than a 64-bit divide, so it runs only while an operand is wider than 64
// bits; every int64 magnitude, INT64_MIN's 2^63 included, fits the
// 64-bit finish.
Int128 gcd128(Int128 a, Int128 b) {
    a = abs128(a);
    b = abs128(b);
    while (a > kMaxUint64 || b > kMaxUint64) {
        if (b == 0) return a;
        const Int128 r = a % b;
        a = b;
        b = r;
    }
    auto x = static_cast<std::uint64_t>(a);
    auto y = static_cast<std::uint64_t>(b);
    while (y != 0) {
        const std::uint64_t r = x % y;
        x = y;
        y = r;
    }
    return x;
}

// num/den in lowest terms with a positive denominator, written to
// out_num/out_den only once both parts are known to fit (a throw leaves
// them untouched). den must be nonzero.
void reduce_into(Int128 num, Int128 den, std::int64_t& out_num, std::int64_t& out_den) {
    if (den < 0) {
        num = -num;
        den = -den;
    }
    const Int128 g = gcd128(num, den);
    if (g > 1) {
        num /= g;
        den /= g;
    }
    const std::int64_t reduced_num = narrow_checked(num);
    const std::int64_t reduced_den = narrow_checked(den);
    out_num = reduced_num;
    out_den = reduced_den;
}

}  // namespace

Rational::Rational(std::int64_t num, std::int64_t den) {
    if (den == 0) throw std::invalid_argument("Rational: zero denominator");
    reduce_into(num, den, num_, den_);
}

Rational Rational::from_double(double value, std::int64_t max_den) {
    if (!std::isfinite(value)) {
        throw std::invalid_argument("Rational::from_double: non-finite value");
    }
    if (max_den < 1) throw std::invalid_argument("Rational::from_double: max_den < 1");
    const bool negative = value < 0;
    double x = std::fabs(value);
    // Continued-fraction convergents: successive best rational approximations.
    std::int64_t p0 = 0, q0 = 1, p1 = 1, q1 = 0;
    double frac = x;
    for (int iter = 0; iter < 64; ++iter) {
        const double floor_part = std::floor(frac);
        if (floor_part > static_cast<double>(kMaxInt64) / 2) break;
        const auto a = static_cast<std::int64_t>(floor_part);
        const Int128 p2 = Int128{a} * p1 + p0;
        const Int128 q2 = Int128{a} * q1 + q0;
        if (q2 > max_den || p2 > kMaxInt64) break;
        p0 = p1;
        q0 = q1;
        p1 = static_cast<std::int64_t>(p2);
        q1 = static_cast<std::int64_t>(q2);
        const double remainder = frac - floor_part;
        if (remainder < 1e-15) break;
        frac = 1.0 / remainder;
    }
    if (q1 == 0) throw RationalOverflow{};
    return Rational{negative ? -p1 : p1, q1};
}

double Rational::to_double() const noexcept {
    return static_cast<double>(num_) / static_cast<double>(den_);
}

std::string Rational::to_string() const {
    if (den_ == 1) return std::to_string(num_);
    return std::to_string(num_) + "/" + std::to_string(den_);
}

Rational Rational::abs() const { return num_ >= 0 ? *this : -*this; }

Rational Rational::reciprocal() const {
    if (num_ == 0) throw std::domain_error("Rational::reciprocal of zero");
    return Rational{den_, num_};
}

Rational& Rational::operator+=(const Rational& rhs) {
    const Int128 num = Int128{num_} * rhs.den_ + Int128{rhs.num_} * den_;
    const Int128 den = Int128{den_} * rhs.den_;
    reduce_into(num, den, num_, den_);
    return *this;
}

Rational& Rational::operator-=(const Rational& rhs) {
    const Int128 num = Int128{num_} * rhs.den_ - Int128{rhs.num_} * den_;
    const Int128 den = Int128{den_} * rhs.den_;
    reduce_into(num, den, num_, den_);
    return *this;
}

Rational& Rational::operator*=(const Rational& rhs) {
    const Int128 num = Int128{num_} * rhs.num_;
    const Int128 den = Int128{den_} * rhs.den_;
    reduce_into(num, den, num_, den_);
    return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
    if (rhs.num_ == 0) throw std::domain_error("Rational: division by zero");
    const Int128 num = Int128{num_} * rhs.den_;
    const Int128 den = Int128{den_} * rhs.num_;
    reduce_into(num, den, num_, den_);
    return *this;
}

Rational operator-(const Rational& value) {
    Rational out;
    out.num_ = narrow_checked(-Int128{value.num_});
    out.den_ = value.den_;
    return out;
}

std::strong_ordering operator<=>(const Rational& lhs, const Rational& rhs) noexcept {
    const Int128 left = Int128{lhs.num_} * rhs.den_;
    const Int128 right = Int128{rhs.num_} * lhs.den_;
    if (left < right) return std::strong_ordering::less;
    if (left > right) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
    return os << value.to_string();
}

}  // namespace bnash::util
