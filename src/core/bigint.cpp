#include "core/bigint.hpp"

#include "core/logging.hpp"

namespace fideslib
{

void
BigInt::trim()
{
    while (words_.size() > 1 && words_.back() == 0)
        words_.pop_back();
}

void
BigInt::mulWord(u64 m)
{
    u64 carry = 0;
    for (auto &w : words_) {
        u128 p = static_cast<u128>(w) * m + carry;
        w = static_cast<u64>(p);
        carry = static_cast<u64>(p >> 64);
    }
    if (carry)
        words_.push_back(carry);
}

void
BigInt::add(const BigInt &other)
{
    if (other.words_.size() > words_.size())
        words_.resize(other.words_.size(), 0);
    u64 carry = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
        u128 s = static_cast<u128>(words_[i]) + other.word(i) + carry;
        words_[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    if (carry)
        words_.push_back(carry);
}

void
BigInt::sub(const BigInt &other)
{
    FIDES_ASSERT(compare(other) >= 0);
    u64 borrow = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
        u64 o = other.word(i);
        u64 d = words_[i] - o - borrow;
        borrow = (words_[i] < o + borrow) ||
                 (o == ~0ULL && borrow) ? 1 : 0;
        words_[i] = d;
    }
    trim();
}

void
BigInt::addMulWord(const BigInt &other, u64 m)
{
    if (other.words_.size() + 1 > words_.size())
        words_.resize(other.words_.size() + 1, 0);
    u64 carry = 0;
    std::size_t i = 0;
    for (; i < other.words_.size(); ++i) {
        u128 p = static_cast<u128>(other.words_[i]) * m
               + words_[i] + carry;
        words_[i] = static_cast<u64>(p);
        carry = static_cast<u64>(p >> 64);
    }
    for (; carry && i < words_.size(); ++i) {
        u128 s = static_cast<u128>(words_[i]) + carry;
        words_[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    if (carry)
        words_.push_back(carry);
    trim();
}

int
BigInt::compare(const BigInt &other) const
{
    std::size_t n = std::max(words_.size(), other.words_.size());
    for (std::size_t i = n; i-- > 0;) {
        u64 a = word(i);
        u64 b = other.word(i);
        if (a != b)
            return a < b ? -1 : 1;
    }
    return 0;
}

u64
BigInt::divWord(u64 d)
{
    FIDES_ASSERT(d != 0);
    u128 rem = 0;
    for (std::size_t i = words_.size(); i-- > 0;) {
        u128 cur = (rem << 64) | words_[i];
        words_[i] = static_cast<u64>(cur / d);
        rem = cur % d;
    }
    trim();
    return static_cast<u64>(rem);
}

u64
BigInt::modWord(const Modulus &m) const
{
    // Horner over words: r = r * 2^64 + w (mod p), where
    // 2^64 mod p == (2^64 - p) mod p == (~p + 1) mod p for p < 2^63.
    u64 r = 0;
    u64 base = (~m.value + 1) % m.value;
    for (std::size_t i = words_.size(); i-- > 0;) {
        r = mulModBarrett(r, base, m);
        u64 w = words_[i] >= m.value ? words_[i] % m.value : words_[i];
        r = addMod(r, w, m.value);
    }
    return r;
}

void
BigInt::shiftRight1()
{
    for (std::size_t i = 0; i < words_.size(); ++i) {
        words_[i] >>= 1;
        if (i + 1 < words_.size() && (words_[i + 1] & 1))
            words_[i] |= 1ULL << 63;
    }
    trim();
}

long double
BigInt::toLongDouble() const
{
    long double v = 0;
    for (std::size_t i = words_.size(); i-- > 0;) {
        v = v * 18446744073709551616.0L + static_cast<long double>(words_[i]);
    }
    return v;
}

CrtReconstructor::CrtReconstructor(const std::vector<Modulus> &moduli)
    : moduli_(moduli)
{
    FIDES_ASSERT(!moduli.empty());
    bigQ_ = BigInt(1);
    for (const auto &m : moduli_)
        bigQ_.mulWord(m.value);
    bigQHalf_ = bigQ_;
    bigQHalf_.shiftRight1();
    qLongDouble_ = bigQ_.toLongDouble();

    qHat_.reserve(moduli_.size());
    qHatInv_.reserve(moduli_.size());
    for (const auto &m : moduli_) {
        BigInt qh = bigQ_;
        u64 rem = qh.divWord(m.value);
        FIDES_ASSERT(rem == 0);
        u64 qhModQi = qh.modWord(m);
        qHatInv_.push_back(invMod(qhModQi, m));
        qHat_.push_back(std::move(qh));
    }
}

long double
CrtReconstructor::reconstruct(const std::vector<u64> &residues) const
{
    return reconstruct(residues.data(), 1, residues.size());
}

long double
CrtReconstructor::reconstruct(const u64 *residues, std::size_t stride,
                              std::size_t count) const
{
    FIDES_ASSERT(count == moduli_.size());
    BigInt acc(0);
    long double kEstimate = 0;
    for (std::size_t i = 0; i < count; ++i) {
        u64 t = mulModBarrett(residues[i * stride], qHatInv_[i],
                              moduli_[i]);
        acc.addMulWord(qHat_[i], t);
        kEstimate += static_cast<long double>(t)
                   / static_cast<long double>(moduli_[i].value);
    }
    auto k = static_cast<u64>(kEstimate);
    BigInt kq = bigQ_;
    kq.mulWord(k);
    if (acc.compare(kq) >= 0) {
        acc.sub(kq);
    } else {
        // The floating estimate overshot by one; redo with k - 1.
        kq = bigQ_;
        kq.mulWord(k - 1);
        acc.sub(kq);
    }
    while (acc.compare(bigQ_) >= 0)
        acc.sub(bigQ_);
    // Centered representative: subtract exactly in BigInt first --
    // floating-point subtraction of two ~Q-sized values would cancel
    // catastrophically.
    if (acc.compare(bigQHalf_) > 0) {
        BigInt diff = bigQ_;
        diff.sub(acc);
        return -diff.toLongDouble();
    }
    return acc.toLongDouble();
}

} // namespace fideslib
