#include "ckks/encoder.hpp"

#include <cmath>
#include <numbers>

#include "ckks/kernels.hpp"
#include "core/logging.hpp"

namespace fideslib::ckks
{

namespace
{

/** W_M^k = e^(2 pi i k / M) table of size M. */
std::vector<Cplx>
rootTable(std::size_t M)
{
    std::vector<Cplx> w(M);
    const long double step = 2.0L * std::numbers::pi_v<long double>
                           / static_cast<long double>(M);
    for (std::size_t k = 0; k < M; ++k)
        w[k] = Cplx(std::cos(step * k), std::sin(step * k));
    return w;
}

/** rot5[j] = 5^j mod M. */
std::vector<u64>
rotGroup(std::size_t n, std::size_t M)
{
    std::vector<u64> r(n);
    u64 g = 1;
    for (std::size_t j = 0; j < n; ++j) {
        r[j] = g;
        g = (g * 5) % M;
    }
    return r;
}

void
bitReversePermute(std::vector<Cplx> &v)
{
    const std::size_t n = v.size();
    const u32 logN = log2Floor(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t j = bitReverse(i, logN);
        if (i < j)
            std::swap(v[i], v[j]);
    }
}

/** Rounds a long double to a signed 128-bit integer. */
i128
roundToI128(long double v)
{
    long double r = std::floor(v + 0.5L);
    bool neg = r < 0;
    if (neg)
        r = -r;
    // Split into two 64-bit halves to avoid overflow in the cast.
    long double hiPart = std::floor(r / 18446744073709551616.0L);
    long double loPart = r - hiPart * 18446744073709551616.0L;
    i128 result = (static_cast<i128>(static_cast<u64>(hiPart)) << 64)
                + static_cast<i128>(static_cast<u64>(loPart));
    return neg ? -result : result;
}

/** Reduces a signed 128-bit integer into [0, p). */
u64
reduceI128(i128 v, const Modulus &m)
{
    i128 p = static_cast<i128>(m.value);
    i128 r = v % p;
    if (r < 0)
        r += p;
    return static_cast<u64>(r);
}

} // namespace

void
specialFFT(std::vector<Cplx> &v)
{
    const std::size_t n = v.size();
    FIDES_ASSERT(isPowerOfTwo(n));
    const std::size_t M = 4 * n;
    static thread_local std::size_t cachedM = 0;
    static thread_local std::vector<Cplx> w;
    static thread_local std::vector<u64> rot;
    if (cachedM != M) {
        w = rootTable(M);
        rot = rotGroup(n, M);
        cachedM = M;
    }

    bitReversePermute(v);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t lenH = len >> 1;
        const std::size_t lenQ = 4 * len;
        for (std::size_t i = 0; i < n; i += len) {
            for (std::size_t j = 0; j < lenH; ++j) {
                std::size_t idx = (rot[j] % lenQ) * (M / lenQ);
                Cplx u = v[i + j];
                Cplx t = v[i + j + lenH] * w[idx];
                v[i + j] = u + t;
                v[i + j + lenH] = u - t;
            }
        }
    }
}

void
specialIFFT(std::vector<Cplx> &v)
{
    const std::size_t n = v.size();
    FIDES_ASSERT(isPowerOfTwo(n));
    const std::size_t M = 4 * n;
    static thread_local std::size_t cachedM = 0;
    static thread_local std::vector<Cplx> w;
    static thread_local std::vector<u64> rot;
    if (cachedM != M) {
        w = rootTable(M);
        rot = rotGroup(n, M);
        cachedM = M;
    }

    for (std::size_t len = n; len >= 2; len >>= 1) {
        const std::size_t lenH = len >> 1;
        const std::size_t lenQ = 4 * len;
        for (std::size_t i = 0; i < n; i += len) {
            for (std::size_t j = 0; j < lenH; ++j) {
                std::size_t idx = (rot[j] % lenQ) * (M / lenQ);
                Cplx x = v[i + j];
                Cplx y = v[i + j + lenH];
                v[i + j] = x + y;
                v[i + j + lenH] = (x - y) * std::conj(w[idx]);
            }
        }
    }
    const long double invN = 1.0L / static_cast<long double>(n);
    for (auto &c : v)
        c *= invN;
    bitReversePermute(v);
}

void
Encoder::encodeToPoly(const std::vector<Cplx> &values, u32 slots,
                      long double scale, RNSPoly &out) const
{
    const std::size_t n = ctx_->degree();
    FIDES_ASSERT(isPowerOfTwo(slots) && slots <= n / 2);
    FIDES_ASSERT(values.size() <= slots);
    const std::size_t gap = (n / 2) / slots;

    std::vector<Cplx> u(slots, Cplx(0, 0));
    std::copy(values.begin(), values.end(), u.begin());
    specialIFFT(u);

    // Round packed coefficients once, then reduce into every limb.
    std::vector<i128> coeffLo(slots), coeffHi(slots);
    for (std::size_t k = 0; k < slots; ++k) {
        coeffLo[k] = roundToI128(u[k].real() * scale);
        coeffHi[k] = roundToI128(u[k].imag() * scale);
    }

    out.setZero(); // host write below: setZero joins if pending
    out.setFormat(Format::Coeff);
    for (std::size_t i = 0; i < out.numLimbs(); ++i) {
        const Modulus &m = ctx_->prime(out.primeIdxAt(i)).mod;
        u64 *x = out.limb(i).data();
        for (std::size_t k = 0; k < slots; ++k) {
            x[k * gap] = reduceI128(coeffLo[k], m);
            x[n / 2 + k * gap] = reduceI128(coeffHi[k], m);
        }
    }
}

Plaintext
Encoder::encode(const std::vector<std::complex<double>> &values,
                u32 slots, u32 level, long double scale) const
{
    if (scale == 0)
        scale = ctx_->defaultScale();
    std::vector<Cplx> z(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        z[i] = Cplx(values[i].real(), values[i].imag());

    Plaintext pt{RNSPoly(*ctx_, level, Format::Coeff), scale, slots};
    encodeToPoly(z, slots, scale, pt.poly);
    kernels::toEval(pt.poly);
    return pt;
}

std::vector<std::complex<double>>
Encoder::decode(const Plaintext &pt) const
{
    const std::size_t n = ctx_->degree();
    const u32 slots = pt.slots;
    const std::size_t gap = (n / 2) / slots;
    const u32 level = pt.level();

    RNSPoly poly = pt.poly.clone();
    if (poly.format() == Format::Eval)
        kernels::toCoeff(poly);
    // Genuine host read: the CRT reconstruction below walks limb data
    // on the calling thread.
    poly.syncHost();

    const CrtReconstructor &crt = ctx_->reconstructor(level);
    std::vector<u64> residues(level + 1);
    auto coefficient = [&](std::size_t pos) -> long double {
        for (u32 i = 0; i <= level; ++i)
            residues[i] = poly.limb(i).data()[pos];
        return crt.reconstruct(residues);
    };

    std::vector<Cplx> u(slots);
    for (std::size_t k = 0; k < slots; ++k) {
        u[k] = Cplx(coefficient(k * gap) / pt.scale,
                    coefficient(n / 2 + k * gap) / pt.scale);
    }
    specialFFT(u);

    std::vector<std::complex<double>> z(slots);
    for (std::size_t k = 0; k < slots; ++k) {
        z[k] = {static_cast<double>(u[k].real()),
                static_cast<double>(u[k].imag())};
    }
    return z;
}

std::vector<u64>
Encoder::scalarResidues(long double value, long double scale, u32 level,
                        u32 numSpecial) const
{
    i128 v = roundToI128(value * scale);
    std::vector<u64> out;
    out.reserve(level + 1 + numSpecial);
    for (u32 i = 0; i <= level; ++i)
        out.push_back(reduceI128(v, ctx_->qMod(i)));
    for (u32 k = 0; k < numSpecial; ++k)
        out.push_back(reduceI128(v, ctx_->pMod(k)));
    return out;
}

} // namespace fideslib::ckks
