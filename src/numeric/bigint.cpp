#include "numeric/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "support/check.hpp"

namespace aurv::numeric {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

}  // namespace

BigInt::BigInt(long long value) {
  if (value == 0) return;
  sign_ = value < 0 ? -1 : 1;
  // Avoid UB negating LLONG_MIN: go through unsigned arithmetic.
  const u64 mag = value < 0 ? 0ULL - static_cast<u64>(value) : static_cast<u64>(value);
  limbs_.push_back(mag);
}

BigInt::BigInt(unsigned long long value) {
  if (value == 0) return;
  sign_ = 1;
  limbs_.push_back(value);
}

BigInt BigInt::from_string(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigInt::from_string: empty input");
  int sign = 1;
  std::size_t pos = 0;
  if (text[0] == '+' || text[0] == '-') {
    sign = text[0] == '-' ? -1 : 1;
    pos = 1;
  }
  if (pos == text.size()) throw std::invalid_argument("BigInt::from_string: no digits");
  BigInt result;
  const BigInt ten(10);
  for (; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c < '0' || c > '9')
      throw std::invalid_argument("BigInt::from_string: invalid digit");
    result *= ten;
    result += BigInt(c - '0');
  }
  if (sign < 0 && !result.is_zero()) result.sign_ = -1;
  return result;
}

BigInt BigInt::pow2(u64 exponent) {
  BigInt result;
  result.sign_ = 1;
  result.limbs_.assign(exponent / 64 + 1, 0);
  result.limbs_.back() = u64{1} << (exponent % 64);
  return result;
}

u64 BigInt::bit_length() const noexcept {
  if (sign_ == 0) return 0;
  const u64 top = limbs_.back();
  return (limbs_.size() - 1) * 64 + (64 - static_cast<u64>(std::countl_zero(top)));
}

bool BigInt::is_pow2() const noexcept {
  if (sign_ == 0) return false;
  // Bit trick, not std::popcount: that is a libgcc call on the baseline
  // x86-64 target.
  const u64 top = limbs_.back();
  if (top == 0 || (top & (top - 1)) != 0) return false;
  for (std::size_t i = 0; i + 1 < limbs_.size(); ++i)
    if (limbs_[i] != 0) return false;
  return true;
}

u64 BigInt::trailing_zero_bits() const {
  AURV_CHECK_MSG(sign_ != 0, "trailing_zero_bits of zero");
  std::size_t i = 0;
  while (limbs_[i] == 0) ++i;
  return i * 64 + static_cast<u64>(std::countr_zero(limbs_[i]));
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  result.sign_ = -result.sign_;
  return result;
}

BigInt BigInt::abs() const {
  BigInt result = *this;
  if (result.sign_ < 0) result.sign_ = 1;
  return result;
}

int BigInt::compare_magnitudes(const Limbs& a, const Limbs& b) noexcept {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

void BigInt::add_magnitudes(Limbs& acc, const Limbs& rhs) {
  if (acc.size() < rhs.size()) acc.resize(rhs.size());
  u64 carry = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const u64 addend = i < rhs.size() ? rhs[i] : 0;
    if (addend == 0 && carry == 0 && i >= rhs.size()) break;
    const u64 before = acc[i];
    acc[i] = before + addend + carry;
    carry = (acc[i] < before) || (carry && acc[i] == before) ? 1 : 0;
  }
  if (carry) acc.push_back(1);
}

void BigInt::sub_magnitudes(Limbs& acc, const Limbs& rhs) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const u64 subtrahend = i < rhs.size() ? rhs[i] : 0;
    if (subtrahend == 0 && borrow == 0 && i >= rhs.size()) break;
    const u64 before = acc[i];
    acc[i] = before - subtrahend - borrow;
    borrow = (before < subtrahend) || (borrow && before == subtrahend) ? 1 : 0;
  }
}

void BigInt::rsub_magnitudes(Limbs& acc, const Limbs& rhs) {
  if (acc.size() < rhs.size()) acc.resize(rhs.size());
  u64 borrow = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const u64 subtrahend = acc[i];
    const u64 before = i < rhs.size() ? rhs[i] : 0;
    acc[i] = before - subtrahend - borrow;
    borrow = (before < subtrahend) || (borrow && before == subtrahend) ? 1 : 0;
  }
}

void BigInt::trim() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) sign_ = 0;
}

BigInt& BigInt::accumulate(const BigInt& rhs, int rhs_sign) {
  if (rhs_sign == 0) return *this;
  if (sign_ == 0) {
    limbs_ = rhs.limbs_;
    sign_ = rhs_sign;
    return *this;
  }
  if (sign_ == rhs_sign) {
    add_magnitudes(limbs_, rhs.limbs_);
    return *this;
  }
  const int cmp = compare_magnitudes(limbs_, rhs.limbs_);
  if (cmp == 0) {
    limbs_.clear();
    sign_ = 0;
  } else if (cmp > 0) {
    sub_magnitudes(limbs_, rhs.limbs_);
    trim();
  } else {
    rsub_magnitudes(limbs_, rhs.limbs_);
    sign_ = rhs_sign;
    trim();
  }
  return *this;
}

BigInt& BigInt::operator+=(const BigInt& rhs) { return accumulate(rhs, rhs.sign_); }

BigInt& BigInt::operator-=(const BigInt& rhs) { return accumulate(rhs, -rhs.sign_); }

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (sign_ == 0) return *this;
  if (rhs.sign_ == 0) {
    limbs_.clear();
    sign_ = 0;
    return *this;
  }
  // Schoolbook multiplication; operand sizes in this library are a handful
  // of limbs (times up to ~2^1000), so asymptotically faster algorithms
  // would be pure overhead.
  Limbs result(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    const u128 a = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      const u128 cur = a * rhs.limbs_[j] + result[i + j] + carry;
      result[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    std::size_t k = i + rhs.limbs_.size();
    while (carry != 0) {
      const u128 cur = static_cast<u128>(result[k]) + carry;
      result[k] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
      ++k;
    }
  }
  limbs_ = std::move(result);
  sign_ *= rhs.sign_;
  trim();
  return *this;
}

BigInt& BigInt::operator<<=(u64 bits) {
  if (sign_ == 0 || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const unsigned bit_shift = static_cast<unsigned>(bits % 64);
  const std::size_t old_size = limbs_.size();
  limbs_.resize(old_size + limb_shift + (bit_shift != 0 ? 1 : 0));
  for (std::size_t i = old_size; i-- > 0;) {
    const u64 low = limbs_[i];
    if (bit_shift == 0) {
      limbs_[i + limb_shift] = low;
    } else {
      limbs_[i + limb_shift + 1] |= low >> (64 - bit_shift);
      limbs_[i + limb_shift] = low << bit_shift;
    }
  }
  for (std::size_t i = 0; i < limb_shift; ++i) limbs_[i] = 0;
  trim();
  return *this;
}

BigInt& BigInt::operator>>=(u64 bits) {
  if (sign_ == 0 || bits == 0) return *this;
  if (bits >= bit_length()) {
    limbs_.clear();
    sign_ = 0;
    return *this;
  }
  const std::size_t limb_shift = bits / 64;
  const unsigned bit_shift = static_cast<unsigned>(bits % 64);
  const std::size_t new_size = limbs_.size() - limb_shift;
  for (std::size_t i = 0; i < new_size; ++i) {
    u64 value = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size())
      value |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    limbs_[i] = value;
  }
  limbs_.resize(new_size);
  trim();
  return *this;
}

std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs) noexcept {
  if (lhs.sign_ != rhs.sign_)
    return lhs.sign_ < rhs.sign_ ? std::strong_ordering::less : std::strong_ordering::greater;
  const int mag = BigInt::compare_magnitudes(lhs.limbs_, rhs.limbs_);
  const int cmp = lhs.sign_ >= 0 ? mag : -mag;
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigInt::DivModResult BigInt::divmod(const BigInt& dividend, const BigInt& divisor) {
  AURV_CHECK_MSG(!divisor.is_zero(), "BigInt division by zero");
  if (dividend.is_zero()) return {};
  const int mag_cmp = compare_magnitudes(dividend.limbs_, divisor.limbs_);
  if (mag_cmp < 0) return {BigInt{}, dividend};
  // Base-2^32 schoolbook long division (Knuth D without the fine tuning;
  // operand sizes here are tiny). Work on 32-bit digits to keep the
  // quotient-digit estimation in 64-bit arithmetic.
  auto to_digits32 = [](const Limbs& limbs) {
    std::vector<std::uint32_t> d;
    d.reserve(limbs.size() * 2);
    for (const u64 limb : limbs) {
      d.push_back(static_cast<std::uint32_t>(limb));
      d.push_back(static_cast<std::uint32_t>(limb >> 32));
    }
    while (!d.empty() && d.back() == 0) d.pop_back();
    return d;
  };
  std::vector<std::uint32_t> num = to_digits32(dividend.limbs_);
  std::vector<std::uint32_t> den = to_digits32(divisor.limbs_);

  // Knuth's normalization: scale both operands so the divisor's top digit
  // has its high bit set. Without it the trial digit q_hat can overshoot
  // the true digit by up to ~2^32 / den.back(), and the decrement-correct
  // loop below degenerates into billions of iterations; with it the
  // overshoot is at most 2. The quotient is invariant under the common
  // scaling; only the remainder needs shifting back.
  const auto normalize_shift =
      static_cast<unsigned>(std::countl_zero(den.back()));
  const auto shl_digits = [](std::vector<std::uint32_t>& d, unsigned s) {
    if (s == 0) return;
    std::uint32_t carry = 0;
    for (std::uint32_t& digit : d) {
      const std::uint32_t shifted = (digit << s) | carry;
      carry = digit >> (32 - s);
      digit = shifted;
    }
    if (carry != 0) d.push_back(carry);
  };
  const auto shr_digits = [](std::vector<std::uint32_t>& d, unsigned s) {
    if (s == 0) return;
    std::uint32_t carry = 0;
    for (std::size_t k = d.size(); k-- > 0;) {
      const std::uint32_t shifted = (d[k] >> s) | carry;
      carry = d[k] << (32 - s);
      d[k] = shifted;
    }
    while (!d.empty() && d.back() == 0) d.pop_back();
  };
  shl_digits(num, normalize_shift);
  shl_digits(den, normalize_shift);

  std::vector<std::uint32_t> quot(num.size(), 0);
  std::vector<std::uint32_t> rem;  // little-endian, running remainder
  for (std::size_t i = num.size(); i-- > 0;) {
    // rem = rem * 2^32 + num[i]
    rem.insert(rem.begin(), num[i]);
    while (!rem.empty() && rem.back() == 0) rem.pop_back();
    // Binary-search free estimation: compare magnitude and subtract with a
    // 64-bit trial quotient digit.
    std::uint64_t q = 0;
    // Fast path: compute trial from the top 64 bits.
    auto cmp_rd = [&](const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
      if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
      for (std::size_t k = a.size(); k-- > 0;)
        if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
      return 0;
    };
    if (cmp_rd(rem, den) >= 0) {
      // Estimate q in [1, 2^32). Use the top two digits of rem and top of den.
      const std::size_t n = den.size();
      std::uint64_t top_rem = rem[n - 1];
      if (rem.size() > n) top_rem |= static_cast<std::uint64_t>(rem[n]) << 32;
      std::uint64_t q_hat = top_rem / den[n - 1];
      if (q_hat >= (1ULL << 32)) q_hat = (1ULL << 32) - 1;
      // Multiply-subtract with correction loop (at most a couple of steps).
      auto mul_small = [&](const std::vector<std::uint32_t>& a, std::uint64_t m) {
        std::vector<std::uint32_t> out(a.size() + 2, 0);
        std::uint64_t carry = 0;
        for (std::size_t k = 0; k < a.size(); ++k) {
          const std::uint64_t cur = static_cast<std::uint64_t>(a[k]) * m + carry;
          out[k] = static_cast<std::uint32_t>(cur);
          carry = cur >> 32;
        }
        std::size_t k = a.size();
        while (carry) {
          out[k++] = static_cast<std::uint32_t>(carry);
          carry >>= 32;
        }
        while (!out.empty() && out.back() == 0) out.pop_back();
        return out;
      };
      auto sub_rd = [&](std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
        std::uint32_t borrow = 0;
        for (std::size_t k = 0; k < a.size(); ++k) {
          const std::uint64_t sub =
              (k < b.size() ? static_cast<std::uint64_t>(b[k]) : 0) + borrow;
          const std::uint64_t before = a[k];
          if (before >= sub) {
            a[k] = static_cast<std::uint32_t>(before - sub);
            borrow = 0;
          } else {
            a[k] = static_cast<std::uint32_t>((before + (1ULL << 32)) - sub);
            borrow = 1;
          }
        }
        while (!a.empty() && a.back() == 0) a.pop_back();
      };
      std::vector<std::uint32_t> trial = mul_small(den, q_hat);
      while (cmp_rd(rem, trial) < 0) {
        --q_hat;
        trial = mul_small(den, q_hat);
      }
      sub_rd(rem, trial);
      // After correction, rem may still be >= den once (q_hat was floor-ish).
      while (cmp_rd(rem, den) >= 0) {
        ++q_hat;
        sub_rd(rem, den);
      }
      q = q_hat;
    }
    quot[i] = static_cast<std::uint32_t>(q);
  }

  auto from_digits32 = [](const std::vector<std::uint32_t>& d) {
    BigInt out;
    out.limbs_.assign((d.size() + 1) / 2, 0);
    for (std::size_t i = 0; i < d.size(); ++i) {
      out.limbs_[i / 2] |= static_cast<u64>(d[i]) << (32 * (i % 2));
    }
    out.sign_ = 1;
    out.trim();
    return out;
  };

  shr_digits(rem, normalize_shift);  // undo the normalization scaling

  DivModResult result;
  result.quotient = from_digits32(quot);
  result.remainder = from_digits32(rem);
  if (!result.quotient.is_zero()) result.quotient.sign_ = dividend.sign_ * divisor.sign_;
  if (!result.remainder.is_zero()) result.remainder.sign_ = dividend.sign_;
  return result;
}

BigInt operator/(const BigInt& lhs, const BigInt& rhs) {
  return BigInt::divmod(lhs, rhs).quotient;
}

BigInt operator%(const BigInt& lhs, const BigInt& rhs) {
  return BigInt::divmod(lhs, rhs).remainder;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.sign_ = a.is_zero() ? 0 : 1;
  b.sign_ = b.is_zero() ? 0 : 1;
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  // Binary (Stein) GCD: only shifts and subtractions; avoids divmod in the
  // Rational normalization hot path.
  const u64 az = a.trailing_zero_bits();
  const u64 bz = b.trailing_zero_bits();
  const u64 shift = std::min(az, bz);
  a >>= az;
  b >>= bz;
  while (true) {
    if (a == b) break;
    if (a > b) {
      a -= b;
      a >>= a.trailing_zero_bits();
    } else {
      b -= a;
      b >>= b.trailing_zero_bits();
    }
  }
  return a << shift;
}

double BigInt::to_double() const noexcept {
  if (sign_ == 0) return 0.0;
  const u64 bits = bit_length();
  if (bits <= 64) {
    const double mag = static_cast<double>(limbs_[0]);
    return sign_ < 0 ? -mag : mag;
  }
  if (bits > 1024) return sign_ < 0 ? -std::numeric_limits<double>::infinity()
                                    : std::numeric_limits<double>::infinity();
  // Take the top 64 bits and scale.
  const u64 drop = bits - 64;
  BigInt top = *this;
  top >>= drop;
  const double mag = std::ldexp(static_cast<double>(top.limbs_[0]), static_cast<int>(drop));
  return sign_ < 0 ? -mag : mag;
}

bool BigInt::fits_int64() const noexcept {
  if (sign_ == 0) return true;
  if (limbs_.size() > 1) return false;
  const u64 mag = limbs_[0];
  return sign_ > 0 ? mag <= static_cast<u64>(std::numeric_limits<std::int64_t>::max())
                   : mag <= static_cast<u64>(std::numeric_limits<std::int64_t>::max()) + 1;
}

std::int64_t BigInt::to_int64() const {
  if (!fits_int64()) throw std::overflow_error("BigInt::to_int64: out of range");
  if (sign_ == 0) return 0;
  const u64 mag = limbs_[0];
  if (sign_ > 0) return static_cast<std::int64_t>(mag);
  return static_cast<std::int64_t>(0ULL - mag);
}

std::string BigInt::to_string() const {
  if (sign_ == 0) return "0";
  // Repeated division by 10^19 (the largest power of ten in a u64).
  constexpr u64 kChunk = 10'000'000'000'000'000'000ULL;
  BigInt value = abs();
  std::vector<u64> chunks;
  const BigInt chunk_divisor(kChunk);
  while (!value.is_zero()) {
    const DivModResult dm = divmod(value, chunk_divisor);
    chunks.push_back(dm.remainder.is_zero() ? 0 : dm.remainder.limbs_[0]);
    value = dm.quotient;
  }
  std::string out;
  if (sign_ < 0) out.push_back('-');
  out += std::to_string(chunks.back());
  for (std::size_t i = chunks.size() - 1; i-- > 0;) {
    std::string part = std::to_string(chunks[i]);
    out.append(19 - part.size(), '0');
    out += part;
  }
  return out;
}

}  // namespace aurv::numeric
