#include "common/shard_cache.hh"

#include <sstream>

namespace unico::common {

std::string
toString(const CacheStats &stats)
{
    std::ostringstream oss;
    oss << "cache: hits=" << stats.hits << " misses=" << stats.misses
        << " hit_rate=" << stats.hitRate() << " insertions="
        << stats.insertions << " evictions=" << stats.evictions
        << " entries=" << stats.entries << " bytes=" << stats.bytes
        << "/" << stats.capacityBytes << " shards=" << stats.shards;
    return oss.str();
}

} // namespace unico::common
