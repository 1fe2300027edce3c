#include "core/sharded_engine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mnnfast::core {

namespace {

/** cfg with one chunk group per shard, after checking that the
 *  partition's boundaries are chunk-group boundaries (a zero chunk
 *  size never matches: the partition's is at least 1). */
EngineConfig
shardGroupConfig(const ShardedKnowledgeBase &skb, EngineConfig cfg)
{
    const size_t effective =
        std::min(cfg.chunkSize, skb.parent().size());
    if (effective != skb.chunkSize())
        fatal("sharded engine chunk size %zu does not match the "
              "partition's %zu — shard boundaries would not be "
              "chunk-aligned",
              effective, skb.chunkSize());
    cfg.scheduleGroups = skb.shardCount();
    return cfg;
}

} // namespace

ShardedEngine::ShardedEngine(const ShardedKnowledgeBase &skb,
                             const EngineConfig &cfg)
    : ColumnEngine(skb.parent(), shardGroupConfig(skb, cfg)),
      displayName("sharded[" + std::to_string(skb.shardCount())
                  + "]+" + ColumnEngine::name())
{
}

const char *
ShardedEngine::name() const
{
    return displayName.c_str();
}

} // namespace mnnfast::core
