// Arbitrary-precision signed integer.
//
// Why this exists: Algorithm 1 of the paper (AlmostUniversalRV) executes
// waits lasting 2^(15 i^2) local time units in phase i. Already at phase 2
// that is 2^60 absolute time units, beyond the contiguous integer range of
// IEEE double (2^53), and at phase 6 it is 2^540. Rendezvous, however, is
// decided by sub-unit differences between event times, so simulated time
// must be *exact*. BigInt underlies numeric::Rational, the exact time type.
//
// Representation: sign/magnitude, little-endian 64-bit limbs, no leading
// zero limbs, zero is { sign = 0, limbs empty }. Limbs live in a
// small-buffer-optimized vector (LimbVec): values up to 128 bits — the
// overwhelming majority of intermediates once Rational has peeled off its
// int64 fast tier — are stored inline and never touch the heap.
#pragma once

#include <compare>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

namespace aurv::numeric {

/// Small-buffer-optimized vector of 64-bit limbs: the first two limbs are
/// stored inline (128-bit magnitudes never allocate); larger values spill to
/// the heap. Shrinking never releases capacity, so in-place arithmetic that
/// grows and re-trims (add carry, shift, gcd) reuses its buffer instead of
/// churning the allocator.
class LimbVec {
 public:
  using value_type = std::uint64_t;

  // User-provided (not defaulted) so `const BigInt x;` default-initializes;
  // deliberately leaves the inline buffer uninitialized (size_ == 0).
  LimbVec() noexcept {}  // NOLINT(modernize-use-equals-default)
  LimbVec(const LimbVec& other) { assign_from(other); }
  LimbVec(LimbVec&& other) noexcept { steal_from(other); }
  LimbVec& operator=(const LimbVec& other) {
    if (this != &other) {
      size_ = 0;
      assign_from(other);
    }
    return *this;
  }
  LimbVec& operator=(LimbVec&& other) noexcept {
    if (this != &other) {
      release();
      steal_from(other);
    }
    return *this;
  }
  ~LimbVec() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// True while the limbs live in the inline buffer (observability for
  /// tests; semantics never depend on it).
  [[nodiscard]] bool is_inline() const noexcept { return heap_ == nullptr; }

  [[nodiscard]] value_type* data() noexcept { return heap_ != nullptr ? heap_ : inline_; }
  [[nodiscard]] const value_type* data() const noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }

  value_type& operator[](std::size_t index) noexcept { return data()[index]; }
  const value_type& operator[](std::size_t index) const noexcept { return data()[index]; }
  value_type& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] const value_type& back() const noexcept { return data()[size_ - 1]; }

  [[nodiscard]] value_type* begin() noexcept { return data(); }
  [[nodiscard]] value_type* end() noexcept { return data() + size_; }
  [[nodiscard]] const value_type* begin() const noexcept { return data(); }
  [[nodiscard]] const value_type* end() const noexcept { return data() + size_; }

  void clear() noexcept { size_ = 0; }
  void pop_back() noexcept { --size_; }

  void push_back(value_type limb) {
    if (size_ == capacity_) grow(size_ + 1);
    data()[size_++] = limb;
  }

  void reserve(std::size_t count) {
    if (count > capacity_) grow(count);
  }

  /// Grow zero-fills; shrink just drops the tail (capacity retained).
  void resize(std::size_t count) {
    if (count > size_) {
      if (count > capacity_) grow(count);
      std::memset(data() + size_, 0, (count - size_) * sizeof(value_type));
    }
    size_ = count;
  }

  void assign(std::size_t count, value_type limb) {
    if (count > capacity_) {
      size_ = 0;  // nothing to preserve across the reallocation
      grow(count);
    }
    value_type* out = data();
    for (std::size_t i = 0; i < count; ++i) out[i] = limb;
    size_ = count;
  }

  friend bool operator==(const LimbVec& lhs, const LimbVec& rhs) noexcept {
    if (lhs.size_ != rhs.size_) return false;
    return std::memcmp(lhs.data(), rhs.data(), lhs.size_ * sizeof(value_type)) == 0;
  }

 private:
  static constexpr std::size_t kInlineLimbs = 2;

  void grow(std::size_t needed) {
    std::size_t new_capacity = capacity_ * 2;
    if (new_capacity < needed) new_capacity = needed;
    auto* fresh = new value_type[new_capacity];
    std::memcpy(fresh, data(), size_ * sizeof(value_type));
    release();
    heap_ = fresh;
    capacity_ = new_capacity;
  }

  void assign_from(const LimbVec& other) {
    reserve(other.size_);
    std::memcpy(data(), other.data(), other.size_ * sizeof(value_type));
    size_ = other.size_;
  }

  /// Leaves `other` empty with inline storage.
  void steal_from(LimbVec& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = std::exchange(other.heap_, nullptr);
      capacity_ = std::exchange(other.capacity_, kInlineLimbs);
      size_ = std::exchange(other.size_, 0);
    } else {
      heap_ = nullptr;
      capacity_ = kInlineLimbs;
      size_ = other.size_;
      std::memcpy(inline_, other.inline_, size_ * sizeof(value_type));
      other.size_ = 0;
    }
  }

  void release() noexcept {
    delete[] heap_;
    heap_ = nullptr;
    capacity_ = kInlineLimbs;
  }

  std::size_t size_ = 0;
  std::size_t capacity_ = kInlineLimbs;
  value_type* heap_ = nullptr;
  value_type inline_[kInlineLimbs];
};

class BigInt {
 public:
  // NOLINTBEGIN(google-explicit-constructor) — integers convert implicitly
  // by design; BigInt is a drop-in integer type.
  BigInt() = default;
  BigInt(int value) : BigInt(static_cast<long long>(value)) {}
  BigInt(long value) : BigInt(static_cast<long long>(value)) {}
  BigInt(long long value);
  BigInt(unsigned int value) : BigInt(static_cast<unsigned long long>(value)) {}
  BigInt(unsigned long value) : BigInt(static_cast<unsigned long long>(value)) {}
  BigInt(unsigned long long value);
  // NOLINTEND(google-explicit-constructor)

  /// Parses an optionally signed decimal string, e.g. "-123456...".
  /// Throws std::invalid_argument on malformed input.
  static BigInt from_string(std::string_view text);

  /// 2^exponent. The workhorse for the paper's dyadic quantities.
  static BigInt pow2(std::uint64_t exponent);

  [[nodiscard]] bool is_zero() const noexcept { return sign_ == 0; }
  [[nodiscard]] bool is_negative() const noexcept { return sign_ < 0; }
  [[nodiscard]] int sign() const noexcept { return sign_; }

  /// Number of significant bits of |*this| (0 for zero).
  [[nodiscard]] std::uint64_t bit_length() const noexcept;

  /// True iff |*this| is a power of two (zero -> false).
  [[nodiscard]] bool is_pow2() const noexcept;

  /// Number of trailing zero bits of |*this|; undefined for zero (checked).
  [[nodiscard]] std::uint64_t trailing_zero_bits() const;

  /// True while the limbs fit the inline small buffer, i.e. |*this| < 2^128
  /// and no heap spill has happened (observability for tests/benchmarks).
  [[nodiscard]] bool is_inline() const noexcept { return limbs_.is_inline(); }

  [[nodiscard]] BigInt operator-() const;
  [[nodiscard]] BigInt abs() const;
  /// In-place negation (sign flip; zero stays zero). No copy, unlike
  /// unary minus.
  void negate() noexcept { sign_ = -sign_; }

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  BigInt& operator<<=(std::uint64_t bits);
  BigInt& operator>>=(std::uint64_t bits);  // arithmetic toward zero on magnitude

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator<<(BigInt lhs, std::uint64_t bits) { return lhs <<= bits; }
  friend BigInt operator>>(BigInt lhs, std::uint64_t bits) { return lhs >>= bits; }

  /// *this += sign_mult * (rhs << shift_bits) without materializing the
  /// shifted temporary in the common same-sign case. The shift-align
  /// workhorse of dyadic Rational addition/subtraction; sign_mult must be
  /// +1 or -1.
  void add_shifted(const BigInt& rhs, std::uint64_t shift_bits, int sign_mult = 1);

  /// Truncated division (C semantics: quotient rounds toward zero,
  /// remainder has the sign of the dividend). Divisor must be nonzero.
  struct DivModResult;
  [[nodiscard]] static DivModResult divmod(const BigInt& dividend, const BigInt& divisor);
  friend BigInt operator/(const BigInt& lhs, const BigInt& rhs);
  friend BigInt operator%(const BigInt& lhs, const BigInt& rhs);

  friend bool operator==(const BigInt& lhs, const BigInt& rhs) noexcept = default;
  friend std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs) noexcept;

  /// Greatest common divisor of |a| and |b| (gcd(0,0) == 0).
  [[nodiscard]] static BigInt gcd(BigInt a, BigInt b);

  /// Nearest double (round-to-nearest on the top 54 bits; +/-inf on overflow).
  [[nodiscard]] double to_double() const noexcept;

  /// Exact conversion when the value fits in int64; throws std::overflow_error
  /// otherwise.
  [[nodiscard]] std::int64_t to_int64() const;
  [[nodiscard]] bool fits_int64() const noexcept;

  [[nodiscard]] std::string to_string() const;

 private:
  static int compare_magnitudes(const LimbVec& a, const LimbVec& b) noexcept;
  static void add_magnitudes(LimbVec& acc, const LimbVec& rhs);
  // Requires |acc| >= |rhs|.
  static void sub_magnitudes(LimbVec& acc, const LimbVec& rhs);
  // acc = rhs - acc in place; requires |rhs| >= |acc|.
  static void rsub_magnitudes(LimbVec& acc, const LimbVec& rhs);
  /// Signed accumulate: *this += sign(rhs_sign) * |rhs|. Shared by += and -=
  /// so subtraction does not copy-negate its operand.
  BigInt& accumulate(const BigInt& rhs, int rhs_sign);
  void trim() noexcept;

  int sign_ = 0;
  LimbVec limbs_;
};

struct BigInt::DivModResult {
  BigInt quotient;
  BigInt remainder;
};

}  // namespace aurv::numeric
