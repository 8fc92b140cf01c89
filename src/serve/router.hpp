/**
 * @file
 * Cluster-scale serving (DESIGN.md §1.12): a Router front door that
 * shards the serving layer across N independent Contexts -- each
 * shard is a Server wrapping its own Context + DeviceSet (a simulated
 * GPU node), so shards share NO MemPool, stream locks, lazy caches or
 * key material. One shared Context is the single-node ceiling
 * (BENCH_serve.json's contention collapse from 1 to 4 submitters);
 * replicating the execution context and routing by tenant is how the
 * paper's serving lineage scales past one accelerator node.
 *
 * Placement is tenant-affine via consistent hashing: a tenant
 * registers its evaluation keys ONCE in host (wire-registry) form,
 * the ring maps it to a shard, and the keys are materialized on that
 * shard's Context (Context::registerKeyBundle). Every request of the
 * tenant then runs on its shard; requests of different tenants on
 * different shards proceed with zero shared state.
 *
 * The shard boundary IS the wire format: ciphertexts cross shards
 * only through serial.cpp's serialize -> Context-rebind deserialize
 * path (serial::moveToContext), which is bit-exact -- so migration
 * changes placement, never results. migrate() drains the source
 * shard, re-materializes the tenant's key bundle on the destination
 * and re-routes; rebalance() triggers migrations automatically when
 * the per-shard load skew (queue depth + accepted backlog, from
 * Server::Stats) exceeds the configured threshold.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckks/adapter.hpp"
#include "ckks/parameters.hpp"
#include "serve/server.hpp"

namespace fideslib::ckks
{
class Bootstrapper;
struct BootstrapConfig;
} // namespace fideslib::ckks

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
        /** Per-shard bounded queue (0 = unbounded). */
        std::size_t queueCapacity = 0;
        /** Consistent-hash ring points per shard: more points spread
         *  tenants more evenly at the cost of a larger ring. */
        u32 virtualNodes = 64;
        /**
         * Auto-rebalance trigger: when the most loaded shard's
         * pending load exceeds skew x the least loaded shard's (and
         * the rebalanceMinLoad floor), submit() migrates the hottest
         * tenant off it. 0 disables auto-rebalancing (migrate() /
         * rebalance() stay available).
         */
        double rebalanceSkew = 0;
        /** Hot-shard pending-load floor below which skew is noise. */
        u64 rebalanceMinLoad = 16;
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
        u64 migrations = 0; //!< tenant moves (manual + rebalance)
    };

    /**
     * Builds @p opt.shards Contexts from @p params (identical
     * parameter sets -- the wire-compatibility requirement for
     * cross-shard moves) and one Server per Context.
     */
    Router(const ckks::Parameters &params, Options opt);
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    u32 numShards() const { return static_cast<u32>(shards_.size()); }
    const ckks::Context &shardContext(u32 shard) const;
    Server &shard(u32 shard);

    /**
     * Registers @p tenant: consistent-hashes it to a shard,
     * materializes @p keys on that shard's Context, and returns the
     * shard index. With @p bootCfg, the shard also gets a per-tenant
     * Bootstrapper (built over the installed keys; the bundle must
     * contain the conjugation and bootstrap rotation keys), enabling
     * Request::bootstrap for this tenant. Re-registering an existing
     * tenant keeps its current placement and replaces the keys.
     */
    u32 registerTenant(u64 tenant, const ckks::HostKeyBundle &keys,
                       const ckks::BootstrapConfig *bootCfg = nullptr);
    /** The owning shard; fatal for unregistered tenants. */
    u32 shardOf(u64 tenant) const;
    /** Registered tenant count. */
    std::size_t tenants() const;

    /**
     * Routes @p req to @p tenant's shard. The request's input
     * ciphertexts must live on that shard's Context (upload() /
     * transfer() put them there). Fatal for unregistered tenants --
     * a misrouted request must never run under another tenant's
     * keys. When auto-rebalancing is enabled, submit() may first
     * migrate a tenant off an overloaded shard.
     */
    Handle submit(u64 tenant, Request req);

    /** Materializes a wire-format ciphertext on @p tenant's shard
     *  (the client upload path). */
    ckks::Ciphertext upload(u64 tenant,
                            const ckks::HostCiphertext &ct) const;
    /**
     * Rebinds @p ct (resident on shard @p srcShard) onto @p tenant's
     * CURRENT shard over the wire format -- the cross-shard move.
     * Identity (bitwise) when the tenant still lives on @p srcShard.
     */
    ckks::Ciphertext transfer(u64 tenant, u32 srcShard,
                              const ckks::Ciphertext &ct) const;

    /**
     * Moves @p tenant to @p dstShard: drains the source shard (its
     * in-flight work settles under the old placement), drops the
     * tenant's device keys there, re-materializes them from the host
     * registry on the destination, and re-routes. Returns the
     * destination shard. Submits of ANY tenant block while a
     * migration is in progress (coarse router lock) -- migration is
     * a control-plane operation, milliseconds against the serving
     * steady state.
     */
    u32 migrate(u64 tenant, u32 dstShard);

    /**
     * One rebalance step: if the load skew between the most and
     * least loaded shards exceeds Options::rebalanceSkew (load =
     * queued + not-yet-completed accepted requests), migrates the
     * busiest tenant of the hot shard to the cold shard. Returns the
     * number of migrations performed (0 or 1).
     */
    u32 rebalance();

    /** Blocks until every accepted request on every shard settled. */
    void drain();

    Stats stats() const;
    /** Concatenated per-shard metricsText() (each sample labeled
     *  shard="i") plus router-level placement/migration counters. */
    std::string metricsText() const;

  private:
    struct TenantState
    {
        u32 shard = 0;
        ckks::HostKeyBundle hostKeys; //!< registry form (re-placement)
        std::unique_ptr<ckks::BootstrapConfig> bootCfg;
        //! Device keys on the owning shard; shared with the shard
        //! Context's registry and any in-flight jobs.
        std::shared_ptr<const ckks::KeyBundle> deviceKeys;
        //! Per-tenant engine pieces on the owning shard, rebuilt on
        //! migration. The Evaluator backs the Bootstrapper and must
        //! outlive it.
        std::unique_ptr<ckks::Evaluator> eval;
        std::unique_ptr<ckks::Bootstrapper> boot;
        u64 submitted = 0; //!< router-side request count (rebalance)
    };
    struct Shard
    {
        std::unique_ptr<ckks::Context> ctx;
        std::unique_ptr<Server> server;
    };

    /** Installs tenant @p t's keys (and bootstrapper) on shard @p s. */
    void placeTenant(u64 tenant, TenantState &t, u32 s);
    u32 ringShardOf(u64 tenant) const;
    u32 migrateLocked(u64 tenant, u32 dstShard);
    u32 rebalanceLocked();
    u64 pendingLoad(u32 shard) const;

    Options opt_;
    std::vector<Shard> shards_;
    //! Consistent-hash ring: (point, shard), sorted by point.
    std::vector<std::pair<u64, u32>> ring_;

    mutable std::mutex m_;
    std::map<u64, TenantState> tenants_;
    u64 migrations_ = 0;
    u64 submitsSinceRebalance_ = 0;
};

} // namespace fideslib::serve
