#include "ckks/chebyshev.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <optional>

#include "core/logging.hpp"

namespace fideslib::ckks
{

std::vector<double>
chebyshevInterpolate(const std::function<double(double)> &f, u32 degree)
{
    const u32 M = degree + 1;
    std::vector<double> fv(M);
    for (u32 j = 0; j < M; ++j) {
        double theta = std::numbers::pi * (j + 0.5) / M;
        fv[j] = f(std::cos(theta));
    }
    std::vector<double> c(M);
    for (u32 k = 0; k < M; ++k) {
        double acc = 0;
        for (u32 j = 0; j < M; ++j) {
            double theta = std::numbers::pi * (j + 0.5) / M;
            acc += fv[j] * std::cos(k * theta);
        }
        c[k] = (k == 0 ? 1.0 : 2.0) * acc / M;
    }
    return c;
}

double
clenshawEval(const std::vector<double> &c, double x)
{
    double b1 = 0, b2 = 0;
    for (std::size_t k = c.size(); k-- > 1;) {
        double b0 = 2 * x * b1 - b2 + c[k];
        b2 = b1;
        b1 = b0;
    }
    return x * b1 - b2 + c[0];
}

double
chebyshevMaxError(const std::function<double(double)> &f,
                  const std::vector<double> &c, u32 samples)
{
    double worst = 0;
    for (u32 i = 0; i <= samples; ++i) {
        double x = -1.0 + 2.0 * i / samples;
        worst = std::max(worst, std::fabs(f(x) - clenshawEval(c, x)));
    }
    return worst;
}

u32
chebyshevDegreeFor(const std::function<double(double)> &f,
                   double targetError, u32 start, u32 cap)
{
    FIDES_ASSERT(start >= 1 && start <= cap);
    auto meets = [&](u32 d) {
        return chebyshevMaxError(f, chebyshevInterpolate(f, d))
             < targetError;
    };
    // lo misses the target (or is 0, never tried), hi meets it.
    u32 lo = 0, hi = start;
    while (!meets(hi)) {
        if (hi == cap) {
            warn("chebyshevDegreeFor hit the degree cap %u", cap);
            return cap;
        }
        lo = hi;
        hi = std::min(2 * hi, cap);
    }
    while (hi - lo > 1) {
        const u32 mid = lo + (hi - lo) / 2;
        (meets(mid) ? hi : lo) = mid;
    }
    return hi;
}

std::pair<std::vector<double>, std::vector<double>>
chebyshevDivide(const std::vector<double> &c, u32 t)
{
    const std::size_t n = c.size() - 1; // degree
    FIDES_ASSERT(n >= t && t >= 1);
    std::vector<double> r = c;
    std::vector<double> q(n - t + 1, 0.0);
    for (std::size_t i = n; i >= t; --i) {
        double a = r[i];
        if (a != 0.0) {
            r[i] = 0.0;
            const std::size_t j = i - t;
            if (j == 0) {
                // T_t * T_0 = T_t.
                q[0] += a;
            } else {
                // T_i = 2 T_j T_t - T_|i-2t|.
                q[j] += 2 * a;
                const std::size_t idx =
                    i >= 2 * t ? i - 2 * t : 2 * t - i;
                r[idx] -= a;
            }
        }
        if (i == t)
            break;
    }
    r.resize(t, 0.0);
    if (r.empty())
        r.push_back(0.0);
    return {std::move(q), std::move(r)};
}

namespace
{

/** Baby-step count: the power of two k with k^2 >= d + 1 > k^2 / 4. */
u32
babyStepsFor(std::size_t d)
{
    u32 k = 1;
    while (k * k < d + 1)
        k <<= 1;
    return k;
}

/** Giant count: the T_{k 2^i} with k 2^i <= d. */
u32
giantsFor(u32 k, std::size_t d)
{
    u32 m = 0;
    while ((static_cast<u64>(k) << m) <= d)
        ++m;
    return m;
}

/** Degree ignoring trailing (near-)zero coefficients. */
std::size_t
chebDegree(const std::vector<double> &c)
{
    std::size_t d = c.size() - 1;
    while (d > 0 && std::fabs(c[d]) < 1e-300)
        --d;
    return d;
}

struct PsContext
{
    const Evaluator &eval;
    //! babies[j - 1] = T_j for j in 1..k (baby(j)).
    std::vector<Ciphertext> babies;
    //! lowered[j][l] = T_j brought down to canonical level l.
    std::vector<std::map<u32, Ciphertext>> lowered;
    //! giants[i] = T_{k * 2^i}.
    std::vector<Ciphertext> giants;
    u32 k;

    const Ciphertext &baby(std::size_t j) const { return babies[j - 1]; }
};

/**
 * T_j at canonical @p level. Each level is dropped from the one above
 * once per call, so the baby spans and the ladder share every drop
 * (bit-identical to lowering a fresh clone each time).
 */
const Ciphertext &
babyAt(PsContext &ps, std::size_t j, u32 level)
{
    const Ciphertext &top = ps.baby(j);
    FIDES_ASSERT(level <= top.level());
    if (level == top.level())
        return top;
    auto &byLevel = ps.lowered[j];
    auto it = byLevel.find(level);
    if (it == byLevel.end()) {
        Ciphertext c = babyAt(ps, j, level + 1).clone();
        ps.eval.toCanonicalLevel(c, level);
        it = byLevel.emplace(level, std::move(c)).first;
    }
    return it->second;
}

/** Linear combination sum_j c_j T_j with deg < k (one level). */
Ciphertext
evalBabySpan(PsContext &ps, const std::vector<double> &c)
{
    const Evaluator &eval = ps.eval;
    const std::size_t d = chebDegree(c);
    FIDES_ASSERT(d < ps.k || (d == 1 && ps.k == 1));

    // Find the lowest level among used babies.
    u32 lmin = ps.baby(1).level();
    for (std::size_t j = 1; j <= d; ++j)
        lmin = std::min(lmin, ps.baby(j).level());

    std::optional<Ciphertext> acc;
    for (std::size_t j = 1; j <= d; ++j) {
        if (std::fabs(c[j]) < 1e-300)
            continue;
        Ciphertext term = babyAt(ps, j, lmin).clone();
        eval.multiplyScalarInPlace(
            term, static_cast<long double>(c[j]),
            eval.context().levelScale(lmin));
        if (!acc)
            acc = std::move(term);
        else
            eval.addInPlace(*acc, term);
    }
    if (!acc) {
        // Constant polynomial: encode c_0 onto a zeroed ciphertext.
        acc = babyAt(ps, 1, lmin).clone();
        eval.multiplyScalarInPlace(*acc, 0.0L,
                                   eval.context().levelScale(lmin));
    }
    eval.addScalarInPlace(*acc, c[0]);
    eval.rescaleInPlace(*acc);
    return std::move(*acc);
}

/** Recursive Paterson-Stockmeyer over the Chebyshev basis. */
Ciphertext
evalRec(PsContext &ps, const std::vector<double> &c)
{
    const Evaluator &eval = ps.eval;
    const std::size_t d = chebDegree(c);
    if (d < ps.k) {
        std::vector<double> cc(c.begin(), c.begin() + d + 1);
        return evalBabySpan(ps, cc);
    }
    // Largest giant T_{k 2^i} with k 2^i <= d.
    const u32 i = giantsFor(ps.k, d) - 1;
    const u32 t = ps.k << i;
    auto [q, r] = chebyshevDivide(c, t);
    Ciphertext qe = evalRec(ps, q);
    Ciphertext re = evalRec(ps, r);
    Ciphertext prod = eval.multiplyC(qe, ps.giants[i]);
    return eval.addC(prod, re);
}

/**
 * evalRec on degrees alone: the levels its result for a series of
 * degree @p d sits below the input, adding its products to @p products.
 * T_j sits ceil(log2 j) levels down and the giant T_{k 2^i} at
 * log2 k + i; a baby span rescales once below its lowest baby.
 */
u32
recDepth(u32 k, std::size_t d, u32 &products)
{
    if (d < k)
        return (d > 1 ? log2Floor(d - 1) + 1 : 0) + 1;
    const u32 i = giantsFor(k, d) - 1;
    const std::size_t t = static_cast<std::size_t>(k) << i;
    const u32 q = recDepth(k, d - t, products);
    const u32 r = recDepth(k, t - 1, products);
    ++products;
    return std::max(std::max(q, log2Floor(k) + i) + 1, r);
}

} // namespace

ChebyshevCost
chebyshevCost(u32 degree)
{
    const u32 k = babyStepsFor(degree);
    const u32 m = giantsFor(k, degree);
    // Babies T_2..T_k, then the giants above T_k, then evalRec.
    ChebyshevCost cost;
    cost.products = (k - 1) + (m > 0 ? m - 1 : 0);
    cost.depth = recDepth(k, degree, cost.products);
    return cost;
}

u32
chebyshevDepth(u32 degree)
{
    return chebyshevCost(degree).depth;
}

Ciphertext
evalChebyshevSeries(const Evaluator &eval, const Ciphertext &y,
                    const std::vector<double> &coeffs)
{
    FIDES_ASSERT(!coeffs.empty());
    FIDES_ASSERT(eval.isCanonical(y));
    const std::size_t d = chebDegree(coeffs);

    PsContext ps{eval, {}, {}, {}, babyStepsFor(d)};

    // T_0 implicit, T_1 = y.
    ps.babies.reserve(ps.k);
    ps.babies.push_back(y.clone());
    ps.lowered.resize(ps.k + 1);
    for (u32 j = 2; j <= ps.k; ++j) {
        // T_{a+b} = 2 T_a T_b - T_{|a-b|}.
        u32 a = (j + 1) / 2, b = j / 2;
        Ciphertext prod = eval.multiplyC(ps.baby(a), ps.baby(b));
        Ciphertext twice = eval.addC(prod, prod);
        if (a == b) {
            eval.addScalarInPlace(twice, -1.0); // T_0 = 1
            ps.babies.push_back(std::move(twice));
        } else {
            // T_{a-b} sits at or above twice's level.
            eval.subInPlace(twice, babyAt(ps, a - b, twice.level()));
            ps.babies.push_back(std::move(twice));
        }
    }

    // Giants: T_k, T_2k, ... via T_{2t} = 2 T_t^2 - 1.
    const u32 m = giantsFor(ps.k, d);
    ps.giants.reserve(m);
    ps.giants.push_back(ps.baby(ps.k).clone());
    for (u32 i = 1; i < m; ++i) {
        Ciphertext sq = eval.squareC(ps.giants[i - 1]);
        Ciphertext twice = eval.addC(sq, sq);
        eval.addScalarInPlace(twice, -1.0);
        ps.giants.push_back(std::move(twice));
    }

    std::vector<double> c(coeffs.begin(), coeffs.begin() + d + 1);
    return evalRec(ps, c);
}

} // namespace fideslib::ckks
