/**
 * @file
 * Cluster-scale serving (DESIGN.md §1.12): a Router front door that
 * shards the serving layer across N independent Contexts -- each
 * shard is a Server wrapping its own Context + DeviceSet (a simulated
 * GPU node), so shards share NO MemPool, stream locks, lazy caches or
 * key material. Replicating the execution context and routing by
 * tenant is how the paper's serving lineage scales past one
 * accelerator node. On one host the shards share its cores, and a
 * single shard's submitters can already fill them.
 *
 * Placement is tenant-affine via consistent hashing: a tenant
 * registers its evaluation keys in host (wire-registry) form, the
 * ring maps it to a shard, and the keys are materialized on that
 * shard's Context. Placement is fixed at the first registration;
 * registering again replaces the keys in place. Every request of the
 * tenant runs on its shard; requests of different tenants on
 * different shards proceed with zero shared state.
 *
 * The shard boundary IS the wire format: ciphertexts enter a shard
 * through upload() (adapter::toDevice) and cross shards only through
 * serial::moveToContext, which is bit-exact.
 */

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckks/adapter.hpp"
#include "ckks/parameters.hpp"
#include "serve/server.hpp"

namespace fideslib::serve
{

/** The sharded serving front door. */
class Router
{
  public:
    struct Options
    {
        /** Server shards, each with its own Context + DeviceSet. */
        u32 shards = 2;
        /** Submitter threads per shard. */
        u32 submittersPerShard = 1;
    };

    /** Aggregate observability (stats()). */
    struct ShardStats
    {
        Server::Stats serve;        //!< accepted/completed/failed/queued
        std::size_t tenants = 0;    //!< tenants placed on this shard
    };
    struct Stats
    {
        std::vector<ShardStats> shards;
    };

    /**
     * Builds @p opt.shards Contexts from @p params (identical
     * parameter sets -- the wire-compatibility requirement for
     * cross-shard moves) and one Server per Context.
     */
    Router(const ckks::Parameters &params, Options opt);

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    u32 numShards() const { return static_cast<u32>(shards_.size()); }
    const ckks::Context &shardContext(u32 shard) const;
    Server &shard(u32 shard);

    /**
     * Registers @p tenant: consistent-hashes it to a shard,
     * materializes @p keys on that shard's Context, and returns the
     * shard index. Re-registering a tenant keeps its placement and
     * replaces its keys; requests already submitted finish under the
     * keys they were submitted with.
     */
    u32 registerTenant(u64 tenant, const ckks::HostKeyBundle &keys);
    /** The owning shard; fatal for unregistered tenants. */
    u32 shardOf(u64 tenant) const;
    /** Registered tenant count. */
    std::size_t tenants() const;

    /**
     * Routes @p req to @p tenant's shard. The request's input
     * ciphertexts must live on that shard's Context (upload() puts
     * them there). Fatal for unregistered tenants -- a misrouted
     * request must never run under another tenant's keys.
     */
    Handle submit(u64 tenant, Request req);

    /**
     * Materializes a wire-format ciphertext on @p tenant's shard (the
     * client upload path). The ciphertext need not come from that
     * shard's Context, but its Parameters must be equal: limb data is
     * keyed by global prime index, and equal Parameters generate
     * identical prime chains (adapter::toDevice checks only the ring
     * degree and the limb counts).
     */
    ckks::Ciphertext upload(u64 tenant,
                            const ckks::HostCiphertext &ct) const;

    /** Blocks until every accepted request on every shard settled. */
    void drain();

    Stats stats() const;
    /** Concatenated per-shard metricsText() (each sample labeled
     *  shard="i") plus router-level placement counters. */
    std::string metricsText() const;

  private:
    struct Shard
    {
        std::unique_ptr<ckks::Context> ctx;
        std::unique_ptr<Server> server;
    };

    u32 ringShardOf(u64 tenant) const;

    std::vector<Shard> shards_;
    //! Consistent-hash ring: (point, shard), sorted by point.
    std::vector<std::pair<u64, u32>> ring_;

    mutable std::mutex m_;
    //! Tenant -> owning shard, fixed at first registration.
    std::map<u64, u32> tenants_;
};

} // namespace fideslib::serve
