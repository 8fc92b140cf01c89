/**
 * @file
 * Tests for the simulated device substrate: pool recycling semantics,
 * RAII DeviceVector behaviour, launch
 * accounting, stream ordering, DeviceSet topology, and the platform
 * roofline model.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "core/device.hpp"

namespace fideslib
{
namespace
{

TEST(MemPool, RecyclesFreedBlocks)
{
    MemPool pool;
    void *a = pool.allocate(4096);
    pool.release(a, 4096);
    void *b = pool.allocate(4096);
    EXPECT_EQ(a, b); // stream-ordered pools recycle by size class
    EXPECT_EQ(pool.poolHits(), 1u);
    pool.release(b, 4096);
    pool.trim();
}

TEST(MemPool, TracksUsageAndPeak)
{
    MemPool pool;
    void *a = pool.allocate(1000);
    void *b = pool.allocate(2000);
    EXPECT_EQ(pool.bytesInUse(), 3000u);
    EXPECT_EQ(pool.bytesPeak(), 3000u);
    pool.release(a, 1000);
    EXPECT_EQ(pool.bytesInUse(), 2000u);
    EXPECT_EQ(pool.bytesPeak(), 3000u);
    void *c = pool.allocate(500);
    EXPECT_EQ(pool.bytesPeak(), 3000u);
    pool.release(b, 2000);
    pool.release(c, 500);
    pool.trim();
}

TEST(MemPool, CrossingCacheBoundEvictsOnlyTheExcess)
{
    MemPool pool;
    constexpr u64 kBound = 1 << 20; // 1 MiB = 4 blocks
    constexpr std::size_t kBlock = 256 * 1024;
    pool.setCacheBound(kBound);
    // Burst: 12 blocks live, then all released. Every release past
    // the bound must shed only the excess, leaving the cache full.
    std::vector<void *> ptrs;
    for (int i = 0; i < 12; ++i)
        ptrs.push_back(pool.allocate(kBlock));
    for (void *p : ptrs)
        pool.release(p, kBlock);
    ptrs.clear();
    EXPECT_EQ(pool.bytesCached(), kBound);
    // Regression: the old spill handler flushed the WHOLE cache, so
    // the next allocation storm re-malloced everything. The surviving
    // cache must serve it entirely from pool hits.
    const u64 hitsBefore = pool.poolHits();
    for (int i = 0; i < 4; ++i)
        ptrs.push_back(pool.allocate(kBlock));
    EXPECT_EQ(pool.poolHits() - hitsBefore, 4u);
    for (void *p : ptrs)
        pool.release(p, kBlock);
    pool.trim();
    EXPECT_EQ(pool.bytesCached(), 0u);
}

TEST(MemPool, EvictionShedsLargestSizeClassesFirst)
{
    MemPool pool;
    void *small = pool.allocate(1024);
    void *big = pool.allocate(512 * 1024);
    pool.release(small, 1024);
    pool.release(big, 512 * 1024);
    // Lowering the bound below the cached total must evict the big
    // block and keep the small one.
    pool.setCacheBound(4096);
    EXPECT_EQ(pool.bytesCached(), 1024u);
    void *again = pool.allocate(1024);
    EXPECT_EQ(again, small);
    pool.release(again, 1024);
    pool.trim();
}

TEST(MemPool, StreamSynchronizeReclaimsDeferredFrees)
{
    Device dev;
    Stream s(dev, 0);
    void *p = dev.pool().allocate(4096);
    s.submit([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    Event e = s.record();
    dev.pool().deferRelease(p, 4096, {e});
    // Owned (and counted as in-use) while the kernel is in flight.
    EXPECT_EQ(dev.pool().bytesInUse(), 4096u);
    // The host join alone must reclaim it -- a device idle after a
    // burst may see no further allocate()/trim() for a long time.
    s.synchronize();
    EXPECT_EQ(dev.pool().bytesInUse(), 0u);
    dev.pool().trim();
}

TEST(MemPool, ConcurrentAllocReleaseIsSafe)
{
    Device dev;
    Stream s0(dev, 0), s1(dev, 1);
    for (int round = 0; round < 8; ++round) {
        s0.submit([&dev] {
            for (int i = 0; i < 64; ++i)
                DeviceVector<u64> v(128, dev);
        });
        s1.submit([&dev] {
            for (int i = 0; i < 64; ++i)
                DeviceVector<u64> v(128, dev);
        });
    }
    s0.synchronize();
    s1.synchronize();
    EXPECT_EQ(dev.pool().bytesInUse(), 0u);
}

TEST(DeviceVector, ManagedLifecycleReturnsToPool)
{
    Device dev;
    auto &pool = dev.pool();
    u64 before = pool.bytesInUse();
    {
        DeviceVector<u64> v(256, dev);
        EXPECT_EQ(pool.bytesInUse(), before + 256 * sizeof(u64));
        v[0] = 42;
        EXPECT_EQ(v[0], 42u);
        EXPECT_TRUE(v.managed());
        EXPECT_EQ(v.device(), &dev);
    }
    EXPECT_EQ(pool.bytesInUse(), before);
}

TEST(DeviceVector, MoveTransfersOwnership)
{
    Device dev;
    {
        DeviceVector<u64> a(128, dev);
        a[5] = 11;
        u64 *ptr = a.data();
        DeviceVector<u64> b = std::move(a);
        EXPECT_EQ(b.data(), ptr);
        EXPECT_EQ(b[5], 11u);
        EXPECT_EQ(a.data(), nullptr);
        EXPECT_EQ(a.size(), 0u);
    }
    EXPECT_EQ(dev.pool().bytesInUse(), 0u);
}

TEST(Device, LaunchAccounting)
{
    Device dev;
    dev.launch(100, 50, 25);
    dev.launch(10, 5, 2);
    EXPECT_EQ(dev.counters().launches, 2u);
    EXPECT_EQ(dev.counters().bytesRead, 110u);
    EXPECT_EQ(dev.counters().bytesWritten, 55u);
    EXPECT_EQ(dev.counters().intOps, 27u);
    dev.resetCounters();
    EXPECT_EQ(dev.counters().launches, 0u);
}

TEST(Device, InstancesAreIndependent)
{
    Device a(0), b(1);
    a.launch(100, 0, 0);
    EXPECT_EQ(a.counters().launches, 1u);
    EXPECT_EQ(b.counters().launches, 0u);
    EXPECT_EQ(a.id(), 0u);
    EXPECT_EQ(b.id(), 1u);
}

TEST(Stream, ExecutesInSubmissionOrder)
{
    Device dev;
    Stream s(dev, 0);
    std::vector<int> order;
    for (int i = 0; i < 32; ++i)
        s.submit([&order, i] { order.push_back(i); });
    s.synchronize();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Stream, DistinctStreamsRunConcurrently)
{
    Device dev;
    Stream s0(dev, 0), s1(dev, 1);
    // s0 blocks until s1 has run: only possible if the two streams
    // execute on different threads.
    std::atomic<bool> flag{false};
    s0.submit([&flag] {
        while (!flag.load())
            std::this_thread::yield();
    });
    s1.submit([&flag] { flag.store(true); });
    s0.synchronize();
    s1.synchronize();
    EXPECT_TRUE(flag.load());
}

TEST(Stream, SynchronizeWaitsForCompletion)
{
    Device dev;
    Stream s(dev, 0);
    std::atomic<int> done{0};
    for (int i = 0; i < 4; ++i) {
        s.submit([&done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            done.fetch_add(1);
        });
    }
    s.synchronize();
    EXPECT_EQ(done.load(), 4);
}

TEST(DeviceSet, TopologyAndInterleaving)
{
    DeviceSet ds(2, 3);
    EXPECT_EQ(ds.numDevices(), 2u);
    EXPECT_EQ(ds.numStreams(), 6u);
    EXPECT_EQ(ds.streamsPerDevice(), 3u);
    // Streams interleave across devices so round-robin over streams
    // alternates devices.
    for (u32 s = 0; s < ds.numStreams(); ++s)
        EXPECT_EQ(ds.stream(s).device().id(), s % 2);
    // Per-device round-robin walks that device's streams only.
    for (u32 k = 0; k < 4; ++k) {
        EXPECT_EQ(ds.streamOfDevice(0, k).device().id(), 0u);
        EXPECT_EQ(ds.streamOfDevice(1, k).device().id(), 1u);
    }
    EXPECT_NE(ds.streamOfDevice(0, 0).id(), ds.streamOfDevice(0, 1).id());
    EXPECT_EQ(ds.streamOfDevice(0, 0).id(), ds.streamOfDevice(0, 3).id());
}

TEST(DeviceSet, AggregatesAndResetsCounters)
{
    DeviceSet ds(3, 1);
    ds.device(0).launch(10, 1, 0);
    ds.device(1).launch(20, 2, 0);
    ds.device(2).launch(30, 3, 0);
    KernelCounters total = ds.aggregateCounters();
    EXPECT_EQ(total.launches, 3u);
    EXPECT_EQ(total.bytesRead, 60u);
    EXPECT_EQ(total.bytesWritten, 6u);
    ds.resetCounters();
    EXPECT_EQ(ds.aggregateCounters().launches, 0u);

    // The pools' high-water sums over devices, and a reset restarts
    // it at the bytes still in use.
    void *a = ds.device(0).pool().allocate(1000);
    void *b = ds.device(1).pool().allocate(300);
    ds.device(0).pool().release(a, 1000);
    EXPECT_EQ(ds.bytesPeak(), 1300u);
    ds.resetCounters();
    EXPECT_EQ(ds.bytesPeak(), 300u);
    void *c = ds.device(2).pool().allocate(50);
    EXPECT_EQ(ds.bytesPeak(), 350u);
    ds.device(1).pool().release(b, 300);
    ds.device(2).pool().release(c, 50);
}

TEST(Device, PlatformTableMatchesPaperTableIV)
{
    const auto &table = platformTable();
    ASSERT_EQ(table.size(), 5u);
    EXPECT_EQ(table[0].name, "Ryzen-9-7900");
    EXPECT_EQ(table[4].name, "RTX-4090");
    // The 4090 leads on both bandwidth and INT32 throughput.
    for (std::size_t i = 1; i + 1 < table.size(); ++i) {
        EXPECT_LT(table[i].int32Tops, table[4].int32Tops);
        EXPECT_LE(table[i].bandwidthGBs, table[4].bandwidthGBs);
    }
}

TEST(Device, RooflineModelShapes)
{
    DeviceProfile slowLaunch{"slow", 10.0, 1000.0, 32.0, 5000.0};
    DeviceProfile fastLaunch{"fast", 10.0, 1000.0, 32.0, 500.0};
    // Launch-bound workload: many tiny kernels.
    KernelCounters tiny{1000, 1000, 1000, 1000};
    EXPECT_GT(slowLaunch.modeledTimeUs(tiny),
              fastLaunch.modeledTimeUs(tiny));
    // Memory-bound workload: one huge kernel; launch cost irrelevant.
    KernelCounters big{1, 1ULL << 30, 1ULL << 30, 1};
    EXPECT_NEAR(slowLaunch.modeledTimeUs(big),
                fastLaunch.modeledTimeUs(big),
                slowLaunch.modeledTimeUs(big) * 0.01);
}

TEST(Device, SpinWaitsApproximately)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    spinNs(200000); // 200 us
    auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  clock::now() - t0)
                  .count();
    EXPECT_GE(dt, 190000);
}

} // namespace
} // namespace fideslib
