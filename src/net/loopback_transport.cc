#include "net/loopback_transport.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace mnnfast::net {

namespace detail {

/** One queued message: encoded frame bytes plus its delivery time. */
struct LoopbackMessage
{
    NetClock::time_point deliverAt;
    uint64_t seq = 0;
    std::vector<uint8_t> bytes;

    bool
    operator<(const LoopbackMessage &o) const
    {
        if (deliverAt != o.deliverAt)
            return deliverAt < o.deliverAt;
        return seq < o.seq;
    }
};

/**
 * One direction of a connection. The sender draws faults and inserts
 * delivery-ordered messages; the receiver pops the earliest message
 * whose delivery time has arrived. `peer` (the opposite direction) is
 * needed to break the whole connection on an injected disconnect.
 */
struct LoopbackPipe
{
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::multiset<LoopbackMessage> messages;
    bool closed = false;

    FaultSpec faults;
    XorShiftRng rng{1};
    uint64_t sendSeq = 0;
    std::vector<FaultEvent> log;

    std::weak_ptr<LoopbackPipe> peer;

    /**
     * Stop accepting sends. A graceful close (the sender's own
     * close(), like a socket's FIN) keeps the messages already sent
     * deliverable: the reader drains them, then reads Closed. An
     * abortive one loses them — that is what distinguishes a broken
     * connection from slow delivery, and what the failover path must
     * survive.
     */
    void
    closeLocked(std::unique_lock<std::mutex> &lock, bool graceful)
    {
        closed = true;
        if (!graceful)
            messages.clear();
        lock.unlock();
        cv.notify_all();
    }

    void
    close(bool graceful)
    {
        std::unique_lock<std::mutex> lock(mutex);
        if (!closed || !graceful)
            closeLocked(lock, graceful);
    }
};

struct LoopbackConnection
{
    std::shared_ptr<LoopbackPipe> clientToServer;
    std::shared_ptr<LoopbackPipe> serverToClient;
};

struct LoopbackEndpoint
{
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<LoopbackConnection> pending;
    bool closed = false;
};

struct LoopbackNetworkState
{
    std::mutex mutex;
    std::map<std::string, std::shared_ptr<LoopbackEndpoint>> endpoints;
};

namespace {

/** Deterministic seed mix for one (connection, direction) stream. */
uint64_t
mixSeed(uint64_t seed, uint64_t conn, uint64_t dir)
{
    uint64_t h = seed ^ (conn * 0x9E3779B97F4A7C15ull)
                 ^ (dir * 0xBF58476D1CE4E5B9ull);
    h ^= h >> 31;
    h *= 0x94D049BB133111EBull;
    h ^= h >> 29;
    return h ? h : 1;
}

} // namespace

/** Accept-side listener over one registered endpoint. */
class LoopbackListener : public Listener
{
  public:
    LoopbackListener(std::shared_ptr<LoopbackNetworkState> net,
                     std::string name,
                     std::shared_ptr<LoopbackEndpoint> ep)
        : net(std::move(net)), name(std::move(name)), ep(std::move(ep))
    {
    }

    ~LoopbackListener() override { close(); }

    std::unique_ptr<Channel>
    accept(NetClock::time_point deadline) override
    {
        std::unique_lock<std::mutex> lock(ep->mutex);
        while (ep->pending.empty()) {
            if (ep->closed)
                return nullptr;
            if (ep->cv.wait_until(lock, deadline)
                == std::cv_status::timeout)
                if (ep->pending.empty())
                    return nullptr;
        }
        LoopbackConnection conn = std::move(ep->pending.front());
        ep->pending.pop_front();
        // The server sends into serverToClient and reads clientToServer.
        return std::make_unique<LoopbackChannel>(conn.serverToClient,
                                                 conn.clientToServer);
    }

    void
    close() override
    {
        {
            std::lock_guard<std::mutex> nlock(net->mutex);
            auto it = net->endpoints.find(name);
            if (it != net->endpoints.end() && it->second == ep)
                net->endpoints.erase(it);
        }
        {
            std::lock_guard<std::mutex> lock(ep->mutex);
            ep->closed = true;
        }
        ep->cv.notify_all();
    }

  private:
    std::shared_ptr<LoopbackNetworkState> net;
    std::string name;
    std::shared_ptr<LoopbackEndpoint> ep;
};

} // namespace detail

LoopbackNetwork::LoopbackNetwork()
    : state(std::make_shared<detail::LoopbackNetworkState>())
{
}

LoopbackNetwork::~LoopbackNetwork() = default;

LoopbackChannel::LoopbackChannel(
    std::shared_ptr<detail::LoopbackPipe> send_pipe,
    std::shared_ptr<detail::LoopbackPipe> recv_pipe)
    : sendPipe(std::move(send_pipe)), recvPipe(std::move(recv_pipe))
{
}

LoopbackChannel::~LoopbackChannel()
{
    close();
}

bool
LoopbackChannel::send(const Frame &frame)
{
    std::vector<uint8_t> bytes = encodeFrame(frame);

    std::shared_ptr<detail::LoopbackPipe> peerToClose;
    {
        std::unique_lock<std::mutex> lock(sendPipe->mutex);
        if (sendPipe->closed)
            return false;

        // Fixed draw order — loss, disconnect, straggler, jitter —
        // independent of the outcomes, so the consumed random stream
        // (and with it the whole schedule) depends only on the seed
        // and the send count. See the file header.
        detail::LoopbackPipe &p = *sendPipe;
        FaultEvent ev;
        ev.seq = p.sendSeq++;
        const bool lost = p.rng.chance(p.faults.lossProb);
        const bool broke = p.rng.chance(p.faults.disconnectProb);
        double delay = p.faults.baseLatencySeconds;
        if (p.rng.chance(p.faults.stragglerProb))
            delay += p.faults.stragglerLatencySeconds;
        delay += p.rng.uniform() * p.faults.jitterSeconds;
        ev.delaySeconds = delay;
        ev.dropped = lost || broke;
        ev.disconnected = broke;
        p.log.push_back(ev);

        if (broke) {
            peerToClose = p.peer.lock();
            p.closeLocked(lock, /*graceful=*/false);
            // Fall through to close the other direction below.
        } else if (!lost) {
            detail::LoopbackMessage msg;
            msg.deliverAt =
                NetClock::now()
                + std::chrono::duration_cast<NetClock::duration>(
                    std::chrono::duration<double>(delay));
            msg.seq = ev.seq;
            msg.bytes = std::move(bytes);
            p.messages.insert(std::move(msg));
            lock.unlock();
            p.cv.notify_all();
            return true;
        }
    }
    if (peerToClose)
        peerToClose->close(/*graceful=*/false);
    // A lost message is a successful send from the caller's view (the
    // bytes left the host); a disconnect is not.
    return !peerToClose;
}

RecvStatus
LoopbackChannel::recv(Frame &out, NetClock::time_point deadline)
{
    std::unique_lock<std::mutex> lock(recvPipe->mutex);
    for (;;) {
        const auto now = NetClock::now();
        if (!recvPipe->messages.empty()) {
            const detail::LoopbackMessage &head =
                *recvPipe->messages.begin();
            if (head.deliverAt <= now) {
                std::vector<uint8_t> bytes = head.bytes;
                recvPipe->messages.erase(recvPipe->messages.begin());
                lock.unlock();
                const WireStatus ws =
                    decodeFrame(bytes.data(), bytes.size(), out);
                return ws == WireStatus::Ok ? RecvStatus::Ok
                                            : RecvStatus::Corrupt;
            }
            if (now >= deadline)
                return RecvStatus::Timeout;
            // Copy the wake time before waiting: wait_until keeps a
            // *reference* to its time_point across the unlocked wait,
            // and std::min would hand it one inside the multiset node
            // — which a concurrent abortive close (it clears the
            // queue) can free mid-wait.
            const NetClock::time_point wake =
                std::min(head.deliverAt, deadline);
            recvPipe->cv.wait_until(lock, wake);
            continue;
        }
        if (recvPipe->closed)
            return RecvStatus::Closed;
        if (now >= deadline)
            return RecvStatus::Timeout;
        recvPipe->cv.wait_until(lock, deadline);
    }
}

void
LoopbackChannel::close()
{
    // Closing one side breaks the connection both ways, like a socket
    // close: the peer's sends fail at once, and its recv drains the
    // frames this side already sent before it reports Closed. Unread
    // input on this side is discarded.
    if (sendPipe)
        sendPipe->close(/*graceful=*/true);
    if (recvPipe)
        recvPipe->close(/*graceful=*/false);
}

std::vector<FaultEvent>
LoopbackChannel::faultLog() const
{
    std::lock_guard<std::mutex> lock(sendPipe->mutex);
    return sendPipe->log;
}

LoopbackTransport::LoopbackTransport(LoopbackNetwork &network,
                                     const FaultSpec &faults,
                                     uint64_t seed)
    : net(network.state), defaultFaults(faults), seed(seed)
{
}

void
LoopbackTransport::setEndpointFaults(const std::string &endpoint,
                                     const FaultSpec &faults)
{
    std::lock_guard<std::mutex> lock(mutex);
    overrides[endpoint] = faults;
}

std::unique_ptr<Channel>
LoopbackTransport::connect(const std::string &endpoint,
                           NetClock::time_point /*deadline*/)
{
    // Loopback connects resolve instantly: either the endpoint is
    // registered or it is not (the deadline only matters for TCP).
    std::shared_ptr<detail::LoopbackEndpoint> ep;
    {
        std::lock_guard<std::mutex> nlock(net->mutex);
        auto it = net->endpoints.find(endpoint);
        if (it == net->endpoints.end())
            return nullptr;
        ep = it->second;
    }

    FaultSpec spec;
    uint64_t conn;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = overrides.find(endpoint);
        spec = it != overrides.end() ? it->second : defaultFaults;
        conn = connections++;
    }

    detail::LoopbackConnection c;
    c.clientToServer = std::make_shared<detail::LoopbackPipe>();
    c.serverToClient = std::make_shared<detail::LoopbackPipe>();
    c.clientToServer->faults = spec;
    c.serverToClient->faults = spec;
    c.clientToServer->rng = XorShiftRng(detail::mixSeed(seed, conn, 0));
    c.serverToClient->rng = XorShiftRng(detail::mixSeed(seed, conn, 1));
    c.clientToServer->peer = c.serverToClient;
    c.serverToClient->peer = c.clientToServer;

    auto channel = std::make_unique<LoopbackChannel>(c.clientToServer,
                                                     c.serverToClient);
    {
        std::lock_guard<std::mutex> lock(ep->mutex);
        if (ep->closed)
            return nullptr;
        ep->pending.push_back(std::move(c));
    }
    ep->cv.notify_all();
    return channel;
}

std::unique_ptr<Listener>
LoopbackTransport::listen(const std::string &endpoint)
{
    auto ep = std::make_shared<detail::LoopbackEndpoint>();
    {
        std::lock_guard<std::mutex> nlock(net->mutex);
        if (net->endpoints.count(endpoint))
            return nullptr; // name taken
        net->endpoints.emplace(endpoint, ep);
    }
    return std::make_unique<detail::LoopbackListener>(net, endpoint, ep);
}

} // namespace mnnfast::net
