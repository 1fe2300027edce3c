#include "net/shard_node.hh"

#include <utility>

#include "util/logging.hh"

namespace mnnfast::net {

namespace {

/** Node engines always run single-group: the partial must be the
 *  shard's exact accumulator state (see sharded_engine.hh). */
core::EngineConfig
nodeConfig(core::EngineConfig cfg)
{
    cfg.scheduleGroups = 1;
    return cfg;
}

/** Accept/recv slice so stop requests are noticed promptly. */
constexpr double kPollSliceSeconds = 0.05;

} // namespace

ShardNode::ShardNode(const core::KnowledgeBase &kb,
                     const core::EngineConfig &cfg, uint32_t shard_)
    : engine(kb, nodeConfig(cfg)), shard(shard_), dim(kb.dim())
{
}

ShardNode::~ShardNode() = default;

void
ShardNode::serve(Listener &listener)
{
    std::vector<std::thread> handlers;
    while (!stopFlag.load()) {
        std::unique_ptr<Channel> channel =
            listener.accept(deadlineIn(kPollSliceSeconds));
        if (!channel)
            continue;
        handlers.emplace_back(
            [this, ch = std::move(channel)]() mutable {
                serveChannel(std::move(ch));
            });
    }
    listener.close();
    for (std::thread &t : handlers)
        t.join();
}

void
ShardNode::serveChannel(std::unique_ptr<Channel> channel)
{
    Frame frame;
    while (!stopFlag.load()) {
        const RecvStatus st =
            channel->recv(frame, deadlineIn(kPollSliceSeconds));
        if (st == RecvStatus::Timeout)
            continue;
        if (st != RecvStatus::Ok)
            return; // disconnected or corrupt stream: drop connection
        if (frame.type == FrameType::Shutdown) {
            stopFlag.store(true);
            return;
        }

        ScatterRequest req;
        if (decodeScatterRequest(frame, req) != WireStatus::Ok)
            return; // framed but malformed: refuse the connection
        if (req.shard != shard || req.ed != dim)
            return; // miswired endpoint: fail loudly (see header)

        PartialResponse resp;
        resp.requestId = req.requestId;
        resp.shard = shard;
        resp.nq = req.nq;
        resp.ed = req.ed;
        {
            std::lock_guard<std::mutex> lock(engineMutex);
            engine.inferPartial(req.u.data(), req.nq, resp.partial);
        }
        served.fetch_add(1);
        if (!channel->send(encodePartialResponse(resp)))
            return;
    }
}

} // namespace mnnfast::net
