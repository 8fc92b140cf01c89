/**
 * @file
 * Chebyshev-series machinery for ApproxModEval (paper Section
 * III-F7): numeric interpolation of the target function, plain
 * Clenshaw evaluation (the test oracle), Chebyshev long division, and
 * the homomorphic Paterson-Stockmeyer / BSGS evaluation over the
 * canonical-scale discipline.
 */

#pragma once

#include <functional>

#include "ckks/evaluator.hpp"

namespace fideslib::ckks
{

/**
 * Chebyshev interpolation of f on [-1, 1]: returns c_0..c_degree with
 * f(x) ~= sum_k c_k T_k(x) (c_0 absorbed, no halving convention).
 */
std::vector<double>
chebyshevInterpolate(const std::function<double(double)> &f, u32 degree);

/** Plain Clenshaw evaluation of a Chebyshev series (test oracle). */
double clenshawEval(const std::vector<double> &c, double x);

/** Max |f - series| sampled on a dense grid over [-1, 1]. */
double chebyshevMaxError(const std::function<double(double)> &f,
                         const std::vector<double> &c,
                         u32 samples = 2048);

/**
 * Least degree whose interpolant meets @p targetError: doubles from
 * @p start up to @p cap until a degree meets it, then bisects the last
 * bracket (down from 1 if @p start meets it), so the degree returned
 * meets the target and its predecessor misses it (the error is taken
 * to fall with the degree inside one bracket). Sizes ApproxModEval.
 */
u32 chebyshevDegreeFor(const std::function<double(double)> &f,
                       double targetError, u32 start = 16,
                       u32 cap = 4096);

/**
 * Chebyshev long division by T_t: c = q * T_t + r with deg r < t.
 * Returns {q, r}.
 */
std::pair<std::vector<double>, std::vector<double>>
chebyshevDivide(const std::vector<double> &c, u32 t);

/**
 * Homomorphic evaluation of sum_k c_k T_k(y) for a canonical
 * ciphertext y with slot values in [-1, 1]. Paterson-Stockmeyer over
 * the Chebyshev basis; chebyshevCost() states the levels and products
 * it spends.
 */
Ciphertext evalChebyshevSeries(const Evaluator &eval,
                               const Ciphertext &y,
                               const std::vector<double> &coeffs);

/** What evalChebyshevSeries spends on a series of one degree. */
struct ChebyshevCost
{
    u32 depth = 0;    //!< levels consumed
    u32 products = 0; //!< ciphertext-ciphertext multiplications
};

/**
 * Exact cost of evalChebyshevSeries for a series of @p degree: walks
 * its recursion on the degrees alone, so it holds for any coefficients
 * whose Chebyshev remainders keep their top coefficient nonzero.
 */
ChebyshevCost chebyshevCost(u32 degree);

/** Multiplicative depth evalChebyshevSeries will consume. */
u32 chebyshevDepth(u32 degree);

} // namespace fideslib::ckks
