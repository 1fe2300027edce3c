/**
 * @file
 * The per-shard scatter/gather the cluster runs, in process — shared
 * by the sharding (sharding_test.cc) and routing (routing_test.cc)
 * suites as the independent leg of their bit-identity checks.
 */

#ifndef MNNFAST_TESTS_SHARD_COMPOSITION_HH
#define MNNFAST_TESTS_SHARD_COMPOSITION_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/column_engine.hh"
#include "core/sharded_knowledge_base.hh"

namespace mnnfast::core {

/**
 * What ShardNode and ClusterFrontEnd compute: one single-group,
 * inline ColumnEngine per shard view, inferPartial on each, then
 * mergeStreamPartials in shard order. Unlike ShardedEngine (one
 * engine over the parent KB) it streams ShardedKnowledgeBase's own
 * views, so it differs from ShardedEngine when the partition and the
 * engine's chunk groups disagree. `counters`, when given, receives
 * the shard engines' counters summed.
 */
inline std::vector<float>
composeShards(const ShardedKnowledgeBase &skb, const EngineConfig &cfg,
              const float *u, size_t nq,
              std::map<std::string, uint64_t> *counters = nullptr)
{
    EngineConfig scfg = cfg;
    scfg.threads = 0;
    scfg.scheduleGroups = 1;
    const size_t ed = skb.parent().dim();
    std::vector<StreamPartial> parts(skb.shardCount());
    std::vector<const StreamPartial *> ptrs;
    for (size_t s = 0; s < skb.shardCount(); ++s) {
        ColumnEngine engine(skb.shard(s), scfg);
        engine.inferPartial(u, nq, parts[s]);
        ptrs.push_back(&parts[s]);
        if (counters)
            for (const auto &kv : engine.counters().all())
                (*counters)[kv.first] += kv.second.value();
    }
    std::vector<float> o(nq * ed, -3.f);
    mergeStreamPartials(ptrs.data(), ptrs.size(), nq, ed,
                        cfg.onlineNormalize, o.data());
    return o;
}

} // namespace mnnfast::core

#endif // MNNFAST_TESTS_SHARD_COMPOSITION_HH
