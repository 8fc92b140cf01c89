/**
 * @file
 * Plaintext and Ciphertext value types.
 *
 * Both carry the CKKS scaling factor (tracked exactly as a long
 * double so that rescaling by the actual primes, which are only
 * approximately Delta, keeps decode exact) and the slot count. The
 * Ciphertext additionally carries a running noise-budget estimate in
 * bits, the "static noise estimation data" the paper's adapter layer
 * ships back to the client for decryption.
 */

#pragma once

#include "ckks/rnspoly.hpp"

namespace fideslib::ckks
{

/** An encoded (unencrypted) message. */
struct Plaintext
{
    RNSPoly poly;
    long double scale;
    u32 slots;

    u32 level() const { return poly.level(); }

    /** Host join on every pending kernel touching this plaintext. */
    void syncHost() const { poly.syncHost(); }
};

/** An RLWE ciphertext (c0, c1) under the canonical secret key. */
struct Ciphertext
{
    RNSPoly c0;
    RNSPoly c1;
    long double scale;
    u32 slots;
    double noiseBits = 0.0; //!< log2 of the estimated noise magnitude

    u32 level() const { return c0.level(); }

    /** Host join on every pending kernel touching this ciphertext --
     *  required before reading limb data on the host. */
    void
    syncHost() const
    {
        c0.syncHost();
        c1.syncHost();
    }

    Ciphertext clone() const { return clone(level()); }

    /** Deep copy of limbs 0..@p level of both components. */
    Ciphertext
    clone(u32 level) const
    {
        return Ciphertext{c0.clone(level), c1.clone(level), scale, slots,
                          noiseBits};
    }
};

} // namespace fideslib::ckks
