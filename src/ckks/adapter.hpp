/**
 * @file
 * The adapter layer of the paper's Figure 1: converts between
 * client-side host objects (the OpenFHE role -- plain host memory,
 * serializable) and the simplified device-resident structures the
 * server kernels consume, carrying the essential data and metadata
 * fields (level, scale, slot count, static noise estimate) in both
 * directions.
 */

#pragma once

#include <map>
#include <vector>

#include "ckks/ciphertext.hpp"
#include "ckks/keys.hpp"

namespace fideslib::ckks
{

/** Client-side polynomial: one vector per RNS limb, host memory. */
struct HostPoly
{
    u32 level = 0;
    u32 special = 0;
    bool eval = true;
    std::vector<std::vector<u64>> limbs;
};

/** Client-side ciphertext (what Serialize/Deserialize operate on). */
struct HostCiphertext
{
    u32 logN = 0;
    u32 slots = 0;
    long double scale = 0;
    double noiseBits = 0;
    HostPoly c0, c1;
};

/** Client-side plaintext. */
struct HostPlaintext
{
    u32 logN = 0;
    u32 slots = 0;
    long double scale = 0;
    HostPoly poly;
};

/** Client-side hybrid key-switching key: one (b, a) pair per digit. */
struct HostEvalKey
{
    std::vector<HostPoly> b;
    std::vector<HostPoly> a;
};

/**
 * Client-side evaluation-key bundle -- the wire form a tenant hands
 * to serve::Router::registerTenant. Installing it on a shard is
 * adapter::toDevice under THAT shard's Context, so the same bundle
 * can be materialized on whichever shard the ring picks.
 * Device-resident KeyBundles never cross a shard boundary.
 */
struct HostKeyBundle
{
    u32 logN = 0;
    HostPoly pkB, pkA;             //!< public key (b, a)
    HostEvalKey relin;             //!< s^2 -> s
    std::map<u64, HostEvalKey> galois; //!< galoisElt -> key
};

/** Host <-> device conversions. */
namespace adapter
{

HostPoly toHost(const RNSPoly &p);
RNSPoly toDevice(const Context &ctx, const HostPoly &p);

HostCiphertext toHost(const Context &ctx, const Ciphertext &ct);
Ciphertext toDevice(const Context &ctx, const HostCiphertext &h);

HostPlaintext toHost(const Context &ctx, const Plaintext &pt);
Plaintext toDevice(const Context &ctx, const HostPlaintext &h);

HostEvalKey toHost(const EvalKey &k);
EvalKey toDevice(const Context &ctx, const HostEvalKey &h);

HostKeyBundle toHost(const Context &ctx, const KeyBundle &keys);
KeyBundle toDevice(const Context &ctx, const HostKeyBundle &h);

} // namespace adapter

} // namespace fideslib::ckks
