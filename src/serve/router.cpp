#include "serve/router.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "ckks/context.hpp"
#include "ckks/keys.hpp"
#include "core/logging.hpp"

namespace fideslib::serve
{

namespace
{

/** Consistent-hash ring points per shard. */
constexpr u32 kVirtualNodes = 64;

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
{
    if (opt.shards == 0)
        fatal("serve: Router needs at least one shard");

    shards_.reserve(opt.shards);
    for (u32 s = 0; s < opt.shards; ++s) {
        Shard sh;
        sh.ctx = std::make_unique<ckks::Context>(params);
        sh.ctx->setShardLabel("shard" + std::to_string(s));
        Server::Options so;
        so.submitters = opt.submittersPerShard;
        sh.server = std::make_unique<Server>(*sh.ctx, so);
        shards_.push_back(std::move(sh));
    }

    // Ring points: hash (shard, replica) so each shard owns
    // kVirtualNodes arcs of the 64-bit circle. The extra mix with a
    // "ring" tag separates the point domain from the tenant-hash
    // domain -- without it, shard 0's point for vnode v IS mix64(v),
    // so every small tenant id would land exactly on a shard-0 point.
    ring_.reserve(std::size_t{opt.shards} * kVirtualNodes);
    for (u32 s = 0; s < opt.shards; ++s)
        for (u32 v = 0; v < kVirtualNodes; ++v)
            ring_.emplace_back(
                mix64(mix64((u64{s} << 32) | v) ^ 0x72696e67ULL), s);
    std::sort(ring_.begin(), ring_.end());
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

u32 Router::registerTenant(u64 tenant, const ckks::HostKeyBundle &keys)
{
    std::lock_guard<std::mutex> lock(m_);
    // Re-registration keeps the placement (keys roll over in place);
    // first registration follows the ring.
    const u32 s =
        tenants_.try_emplace(tenant, ringShardOf(tenant)).first->second;
    const ckks::Context &ctx = *shards_[s].ctx;
    auto device = std::make_shared<const ckks::KeyBundle>(
        ckks::adapter::toDevice(ctx, keys));
    ctx.registerKeyBundle(tenant, device);
    shards_[s].server->registerTenant(tenant, std::move(device));
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
    return it->second;
}

std::size_t Router::tenants() const
{
    std::lock_guard<std::mutex> lock(m_);
    return tenants_.size();
}

// Placement never changes once made, so submit() and upload() look
// the shard up under the router lock and do the work outside it: a
// long upload holds up only its own caller.
Handle Router::submit(u64 tenant, Request req)
{
    return shards_[shardOf(tenant)].server->submit(tenant,
                                                   std::move(req));
}

ckks::Ciphertext Router::upload(u64 tenant,
                                const ckks::HostCiphertext &ct) const
{
    return ckks::adapter::toDevice(*shards_[shardOf(tenant)].ctx, ct);
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
    return out;
}

std::string Router::metricsText() const
{
    char line[160];
    std::snprintf(line, sizeof(line),
                  "fides_router_shards %zu\n"
                  "fides_router_tenants %zu\n",
                  shards_.size(), tenants());
    std::string out = line;
    for (const Shard &sh : shards_)
        out += sh.server->metricsText(sh.ctx->shardLabel());
    return out;
}

} // namespace fideslib::serve
