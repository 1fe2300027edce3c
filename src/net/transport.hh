/**
 * @file
 * The cluster transport contract: connection-oriented, message-
 * framed, deadline-aware point-to-point channels (DESIGN.md §12).
 *
 * Two implementations exist: a real TCP socket transport
 * (tcp_transport.hh) for cross-process nodes, and an in-process
 * loopback transport (loopback_transport.hh) with seeded,
 * deterministic fault injection for tests and benches. Cluster code
 * (ShardNode, ClusterFrontEnd) is written against this interface
 * only, so every failover/hedging/partial-answer path is exercised
 * against the loopback faults in unit tests and then runs unchanged
 * over sockets.
 *
 * Contract notes:
 *  - Channels carry whole wire-format Frames (net/wire.hh); the
 *    transport performs the byte encode/decode, so a frame that
 *    arrives has already passed magic/version/length/CRC validation.
 *    A frame that fails validation surfaces as RecvStatus::Corrupt —
 *    the caller decides whether to drop the connection.
 *  - recv takes an absolute steady-clock deadline and returns Timeout
 *    without consuming anything when it passes. A timed-out recv
 *    leaves the channel usable: a frame mid-reassembly stays buffered
 *    and later recv calls resume it (no desync).
 *  - send either queues/writes the whole frame (true) or reports the
 *    channel broken (false). Sends never reorder within a channel;
 *    delivery order across *channels* is unspecified.
 *  - close() is idempotent and graceful: after it, send fails, and
 *    frames this side already sent stay deliverable to the peer,
 *    whose recv drains them and then returns Closed (a fire-and-close
 *    Shutdown frame lands). Input this side has not read yet may be
 *    discarded — callers must not rely on post-close drains of their
 *    own channel. Injected faults (loopback disconnectProb) stay
 *    abortive and lose in-flight frames.
 *  - Channels are *not* thread-safe: one thread sends and receives on
 *    a channel at a time (the cluster code gives each shard fetch its
 *    own channels). Listener::accept and Transport::connect are
 *    thread-safe.
 */

#ifndef MNNFAST_NET_TRANSPORT_HH
#define MNNFAST_NET_TRANSPORT_HH

#include <chrono>
#include <memory>
#include <string>

#include "net/wire.hh"

namespace mnnfast::net {

using NetClock = std::chrono::steady_clock;

/** Outcome of one Channel::recv call. */
enum class RecvStatus {
    Ok,      ///< a validated frame was delivered
    Timeout, ///< deadline passed; channel still usable
    Closed,  ///< peer disconnected (or close() was called)
    Corrupt, ///< bytes arrived but failed wire validation
};

/** One bidirectional, message-framed connection. See file header. */
class Channel
{
  public:
    virtual ~Channel() = default;

    /** Send one frame; false when the channel is broken/closed. */
    virtual bool send(const Frame &frame) = 0;

    /** Receive the next frame, waiting until `deadline` at most. */
    virtual RecvStatus recv(Frame &out, NetClock::time_point deadline) = 0;

    /** Break the connection (idempotent). */
    virtual void close() = 0;
};

/** Accept side of an endpoint. */
class Listener
{
  public:
    virtual ~Listener() = default;

    /**
     * Wait for one inbound connection until `deadline`; null on
     * timeout or once the listener is closed.
     */
    virtual std::unique_ptr<Channel>
    accept(NetClock::time_point deadline) = 0;

    /** Stop accepting; pending and future accepts return null. */
    virtual void close() = 0;
};

/** Factory for channels and listeners on one address family. */
class Transport
{
  public:
    virtual ~Transport() = default;

    /**
     * Connect to `endpoint` ("host:port" for TCP, a registered name
     * for loopback); null when the endpoint is unreachable or the
     * deadline passes first.
     */
    virtual std::unique_ptr<Channel>
    connect(const std::string &endpoint, NetClock::time_point deadline) = 0;

    /**
     * Open `endpoint` for inbound connections; null when the endpoint
     * is unavailable (e.g. port in use, name taken).
     */
    virtual std::unique_ptr<Listener>
    listen(const std::string &endpoint) = 0;
};

/** Absolute deadline `seconds` from now (clamped non-negative). */
inline NetClock::time_point
deadlineIn(double seconds)
{
    if (seconds < 0.0)
        seconds = 0.0;
    return NetClock::now()
           + std::chrono::duration_cast<NetClock::duration>(
               std::chrono::duration<double>(seconds));
}

} // namespace mnnfast::net

#endif // MNNFAST_NET_TRANSPORT_HH
