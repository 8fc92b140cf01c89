#include "serve/router.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "ckks/bootstrap.hpp"
#include "ckks/context.hpp"
#include "ckks/keys.hpp"
#include "ckks/serial.hpp"
#include "core/logging.hpp"

namespace fideslib::serve
{

namespace
{

/**
 * splitmix64: the ring and tenant lookups need a deterministic,
 * well-mixed 64-bit hash (std::hash<u64> is the identity on
 * libstdc++, which would place tenants 0..k on one arc).
 */
u64 mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

Router::Router(const ckks::Parameters &params, Options opt)
    : opt_(opt)
{
    if (opt_.shards == 0)
        fatal("serve: Router needs at least one shard");
    if (opt_.virtualNodes == 0)
        opt_.virtualNodes = 1;

    shards_.reserve(opt_.shards);
    for (u32 s = 0; s < opt_.shards; ++s) {
        Shard sh;
        sh.ctx = std::make_unique<ckks::Context>(params);
        sh.ctx->setShardLabel("shard" + std::to_string(s));
        Server::Options so;
        so.submitters = opt_.submittersPerShard;
        so.queueCapacity = opt_.queueCapacity;
        sh.server = std::make_unique<Server>(*sh.ctx, so);
        shards_.push_back(std::move(sh));
    }

    // Ring points: hash (shard, replica) so each shard owns
    // virtualNodes arcs of the 64-bit circle. The extra mix with a
    // "ring" tag separates the point domain from the tenant-hash
    // domain -- without it, shard 0's point for vnode v IS mix64(v),
    // so every small tenant id would land exactly on a shard-0 point.
    ring_.reserve(std::size_t{opt_.shards} * opt_.virtualNodes);
    for (u32 s = 0; s < opt_.shards; ++s)
        for (u32 v = 0; v < opt_.virtualNodes; ++v)
            ring_.emplace_back(
                mix64(mix64((u64{s} << 32) | v) ^ 0x72696e67ULL), s);
    std::sort(ring_.begin(), ring_.end());
}

Router::~Router()
{
    // Tear tenants down before the shards: each TenantState's
    // Evaluator/Bootstrapper reference shard Contexts and key
    // bundles.
    tenants_.clear();
    shards_.clear();
}

const ckks::Context &Router::shardContext(u32 shard) const
{
    if (shard >= shards_.size())
        fatal("serve: shard %u out of range (%zu shards)", shard,
              shards_.size());
    return *shards_[shard].ctx;
}

Server &Router::shard(u32 shard)
{
    if (shard >= shards_.size())
        fatal("serve: shard %u out of range (%zu shards)", shard,
              shards_.size());
    return *shards_[shard].server;
}

u32 Router::ringShardOf(u64 tenant) const
{
    const u64 h = mix64(tenant);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), std::make_pair(h, u32{0}),
        [](const std::pair<u64, u32> &a, const std::pair<u64, u32> &b) {
            return a.first < b.first;
        });
    if (it == ring_.end())
        it = ring_.begin(); // wrap around the circle
    return it->second;
}

void Router::placeTenant(u64 tenant, TenantState &t, u32 s)
{
    ckks::Context &ctx = *shards_[s].ctx;
    auto keys = std::make_shared<const ckks::KeyBundle>(
        ckks::adapter::toDevice(ctx, t.hostKeys));
    ctx.registerKeyBundle(tenant, keys);

    t.shard = s;
    t.deviceKeys = keys;
    if (t.bootCfg) {
        t.eval = std::make_unique<ckks::Evaluator>(ctx, *keys);
        t.boot = std::make_unique<ckks::Bootstrapper>(*t.eval,
                                                      *t.bootCfg);
    }
    shards_[s].server->registerTenant(tenant, keys, t.boot.get());
}

u32 Router::registerTenant(u64 tenant, const ckks::HostKeyBundle &keys,
                           const ckks::BootstrapConfig *bootCfg)
{
    std::lock_guard<std::mutex> lock(m_);
    auto [it, inserted] = tenants_.try_emplace(tenant);
    TenantState &t = it->second;
    // Re-registration keeps the current placement (keys roll over in
    // place); first registration follows the ring.
    const u32 s = inserted ? ringShardOf(tenant) : t.shard;
    if (!inserted) {
        t.boot.reset();
        t.eval.reset();
        t.deviceKeys.reset();
    }
    t.hostKeys = keys;
    t.bootCfg = bootCfg
                    ? std::make_unique<ckks::BootstrapConfig>(*bootCfg)
                    : nullptr;
    placeTenant(tenant, t, s);
    return s;
}

u32 Router::shardOf(u64 tenant) const
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        fatal("serve: no key bundle registered for tenant %llu on "
              "this router",
              static_cast<unsigned long long>(tenant));
    return it->second.shard;
}

std::size_t Router::tenants() const
{
    std::lock_guard<std::mutex> lock(m_);
    return tenants_.size();
}

Handle Router::submit(u64 tenant, Request req)
{
    Server *server = nullptr;
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = tenants_.find(tenant);
        if (it == tenants_.end())
            fatal("serve: no key bundle registered for tenant %llu "
                  "on this router",
                  static_cast<unsigned long long>(tenant));
        it->second.submitted++;
        // Periodic auto-rebalance: check shard skew every few
        // submits rather than on each one (stats() walks every
        // shard's mutex).
        if (opt_.rebalanceSkew > 0 &&
            ++submitsSinceRebalance_ >= 8 * shards_.size()) {
            submitsSinceRebalance_ = 0;
            rebalanceLocked();
        }
        server = shards_[it->second.shard].server.get();
    }
    // The shard submit runs outside the router lock: a full bounded
    // queue blocks THIS submitter, not the whole cluster.
    return server->submit(tenant, std::move(req));
}

ckks::Ciphertext Router::upload(u64 tenant,
                                const ckks::HostCiphertext &ct) const
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        fatal("serve: no key bundle registered for tenant %llu on "
              "this router",
              static_cast<unsigned long long>(tenant));
    return ckks::serial::rebind(*shards_[it->second.shard].ctx, ct);
}

ckks::Ciphertext Router::transfer(u64 tenant, u32 srcShard,
                                  const ckks::Ciphertext &ct) const
{
    u32 dst = 0;
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = tenants_.find(tenant);
        if (it == tenants_.end())
            fatal("serve: no key bundle registered for tenant %llu "
                  "on this router",
                  static_cast<unsigned long long>(tenant));
        dst = it->second.shard;
    }
    if (srcShard >= shards_.size())
        fatal("serve: shard %u out of range (%zu shards)", srcShard,
              shards_.size());
    return ckks::serial::moveToContext(*shards_[srcShard].ctx,
                                       *shards_[dst].ctx, ct);
}

u32 Router::migrateLocked(u64 tenant, u32 dstShard)
{
    if (dstShard >= shards_.size())
        fatal("serve: shard %u out of range (%zu shards)", dstShard,
              shards_.size());
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        fatal("serve: no key bundle registered for tenant %llu on "
              "this router",
              static_cast<unsigned long long>(tenant));
    TenantState &t = it->second;
    const u32 src = t.shard;
    if (src == dstShard)
        return src;

    // Settle the tenant's in-flight work under the old placement
    // before the keys move. Draining the whole source shard is
    // coarser than strictly necessary (other tenants' queued work
    // also settles) but keeps the protocol two steps: drain, move.
    shards_[src].server->drain();
    shards_[src].server->unregisterTenant(tenant);
    t.boot.reset();
    t.eval.reset();
    t.deviceKeys.reset();
    shards_[src].ctx->unregisterKeyBundle(tenant);

    placeTenant(tenant, t, dstShard);
    migrations_++;
    return dstShard;
}

u32 Router::migrate(u64 tenant, u32 dstShard)
{
    std::lock_guard<std::mutex> lock(m_);
    return migrateLocked(tenant, dstShard);
}

u64 Router::pendingLoad(u32 shard) const
{
    const Server::Stats st = shards_[shard].server->stats();
    return st.queued;
}

u32 Router::rebalanceLocked()
{
    if (shards_.size() < 2)
        return 0;

    u32 hot = 0, cold = 0;
    u64 hotLoad = 0, coldLoad = ~u64{0};
    for (u32 s = 0; s < shards_.size(); ++s) {
        const u64 load = pendingLoad(s);
        if (load > hotLoad || (load == hotLoad && s == 0)) {
            hot = s;
            hotLoad = load;
        }
        if (load < coldLoad) {
            cold = s;
            coldLoad = load;
        }
    }
    if (hotLoad < opt_.rebalanceMinLoad || hot == cold)
        return 0;
    const double skew = opt_.rebalanceSkew > 0 ? opt_.rebalanceSkew : 2;
    if (static_cast<double>(hotLoad) <
        skew * static_cast<double>(std::max<u64>(coldLoad, 1)))
        return 0;

    // Move the hot shard's busiest tenant (by router-side submit
    // count) to the cold shard.
    u64 victim = 0, victimSubmits = 0;
    bool found = false;
    for (const auto &[id, t] : tenants_) {
        if (t.shard != hot)
            continue;
        if (!found || t.submitted > victimSubmits) {
            victim = id;
            victimSubmits = t.submitted;
            found = true;
        }
    }
    if (!found)
        return 0;
    migrateLocked(victim, cold);
    return 1;
}

u32 Router::rebalance()
{
    std::lock_guard<std::mutex> lock(m_);
    return rebalanceLocked();
}

void Router::drain()
{
    for (auto &sh : shards_)
        sh.server->drain();
}

Router::Stats Router::stats() const
{
    Stats out;
    out.shards.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        ShardStats &ss = out.shards[s];
        ss.serve = shards_[s].server->stats();
        ss.tenants = shards_[s].server->tenants();
    }
    std::lock_guard<std::mutex> lock(m_);
    out.migrations = migrations_;
    return out;
}

std::string Router::metricsText() const
{
    std::string out;
    char line[160];
    u64 migrations = 0;
    std::size_t tenantCount = 0;
    {
        std::lock_guard<std::mutex> lock(m_);
        migrations = migrations_;
        tenantCount = tenants_.size();
    }
    std::snprintf(line, sizeof(line),
                  "fides_router_shards %zu\n"
                  "fides_router_tenants %zu\n"
                  "fides_router_migrations_total %llu\n",
                  shards_.size(), tenantCount,
                  static_cast<unsigned long long>(migrations));
    out += line;
    for (std::size_t s = 0; s < shards_.size(); ++s)
        out += shards_[s].server->metricsText(
            shards_[s].ctx->shardLabel());
    return out;
}

} // namespace fideslib::serve
