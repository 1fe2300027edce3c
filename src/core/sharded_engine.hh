/**
 * @file
 * Scatter/gather inference over a sharded knowledge base (paper §6):
 * each shard streams its partition into an online-softmax partial
 * (running max, rescaled exp-sum, rescaled weighted sum); the gather
 * merges the partials in canonical shard order and applies the single
 * deferred lazy-softmax division.
 *
 * In process, that scatter/gather *is* ColumnEngine's chunk-group
 * sweep: ShardedKnowledgeBase splits the chunks with the same
 * splitRange decomposition as ColumnEngine::chunkGroups, so shard s
 * covers exactly chunk group s of an engine over the parent KB with
 * scheduleGroups = S. A ShardedEngine is that engine — its pool
 * streams the groups (shards) and its group merge is the gather — so
 * it is bit-identical to a ColumnEngine with scheduleGroups = S by
 * construction (any thread count).
 *
 * The cluster (net::ShardNode + net::ClusterFrontEnd) composes the
 * same result from separate engines: one ColumnEngine per shard view
 * with scheduleGroups = 1, whose inferPartial output is that single
 * group's accumulator state bit-for-bit, then mergeStreamPartials,
 * which runs the engine's own group merge over the shard partials.
 * Within a shard, every kernel call sees the same operands as group s
 * of the whole-KB engine — same rows, same chunk size, same strips —
 * and zero-skip decisions depend only on the group-local running sum,
 * which starts at zero per group in both layouts. The sharding tests
 * check this composition against ShardedEngine.
 *
 * Coarse routing (cfg.routePolicy, DESIGN.md §11) composes with both
 * layouts because selection is *per chunk group*: a shard engine
 * scores and selects over exactly group s's chunks, the selection the
 * whole-KB engine makes for group s.
 *
 * Counters and phase times are the grouped engine's own, so
 * counters() reports whole-KB totals exactly like a single engine.
 */

#ifndef MNNFAST_CORE_SHARDED_ENGINE_HH
#define MNNFAST_CORE_SHARDED_ENGINE_HH

#include <string>

#include "core/column_engine.hh"
#include "core/sharded_knowledge_base.hh"

namespace mnnfast::core {

/** Scatter/gather engine over a ShardedKnowledgeBase. See header. */
class ShardedEngine : public ColumnEngine
{
  public:
    /**
     * @param skb Shard partition; its parent KB must outlive the
     *            engine. The partition's chunk size must match
     *            cfg.chunkSize (after clamping to the KB size) —
     *            mismatches are fatal, since shard boundaries would
     *            not be chunk-group boundaries.
     * @param cfg Engine tunables. cfg.threads sizes the pool that
     *            streams the shards (0 = inline, in shard order).
     *            cfg.scheduleGroups is replaced by the shard count.
     */
    ShardedEngine(const ShardedKnowledgeBase &skb,
                  const EngineConfig &cfg);

    const char *name() const override;

  private:
    std::string displayName;
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_SHARDED_ENGINE_HH
