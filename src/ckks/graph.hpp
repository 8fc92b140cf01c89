/**
 * @file
 * Plan-cache statistics that perfbench still reads. No op captures a
 * plan -- every op dispatches live through kernels::forBatches -- so
 * Context::planStats() always returns {}.
 */

#pragma once

#include <vector>

#include "core/common.hpp"

namespace fideslib::ckks::kernels
{

/** Element of PlanCacheStats::keys. Kept because perfbench reads it. */
struct PlanKeyStats
{
};

/** Always zero (Context::planStats). Kept because perfbench reads it. */
struct PlanCacheStats
{
    std::vector<PlanKeyStats> keys;
    u64 hits = 0;
    u64 misses = 0;
    u64 reservedBytes = 0;
};

} // namespace fideslib::ckks::kernels
