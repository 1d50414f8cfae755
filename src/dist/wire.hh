/**
 * @file
 * Fork-per-shard process isolation for suite sweeps.
 *
 * runShards() forks one child process per shard.  Each child runs its
 * shard and streams every finished job back to the parent over a pipe
 * as one frame: a 4-byte little-endian payload length, a 1-byte type
 * (always the Result frame), a 4-byte little-endian FNV-1a checksum of
 * the type and payload, then a text payload.  The parent polls every
 * child's pipe and hands each intact frame to its caller.
 *
 * A 16 MiB length cap separates "more bytes are coming" from "the
 * stream is garbage" after a torn write.  The checksum closes the
 * other half-write hole: when a torn frame's header survives, the
 * bytes of the next frame would splice into its payload and parse as
 * a plausible but wrong result.  With the checksum any splice shows up
 * as corruption, and the parent drops the child, never the data.
 *
 * A child that dies, sends a corrupt frame, or cannot be forked is
 * reported back as a lost shard; the frames it delivered before that
 * stay delivered.  The caller re-runs whatever is still missing.
 */

#ifndef CHIRP_DIST_WIRE_HH
#define CHIRP_DIST_WIRE_HH

#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

namespace chirp::dist
{

/**
 * Child side: send one result payload to the parent.  Exits the child
 * process when the write fails (the parent is gone).  Sends go through
 * FaultInjector::onWireSend, so an armed msg-truncate action cuts the
 * frame short mid-write and the child keeps running against a desynced
 * stream, just like a process whose write was torn by a crash.
 */
using ShardEmit = std::function<void(std::string_view payload)>;

/** Runs shard @p shard inside its child; reports results via @p emit. */
using ShardBody =
    std::function<void(std::size_t shard, const ShardEmit &emit)>;

/**
 * Parent side: receives one intact payload from shard @p shard's child,
 * in the order the child sent them.  Returning false rejects the
 * payload as malformed, and the child is then treated as corrupt.
 */
using ShardDelivery =
    std::function<bool(std::size_t shard, std::string_view payload)>;

/**
 * Fork @p shards children, child i running @p body(i, emit), and merge
 * their frames through @p deliver on the calling thread.  Call it only
 * while the process is single-threaded.  A child _exits(0) when @p body
 * returns and _exits(1) when @p body throws or a send fails.  A corrupt
 * child is killed at once.  Every child is reaped before returning.
 *
 * @return the shards whose child could not be forked, died (non-zero
 *         exit or a signal), or sent a corrupt or truncated frame, in
 *         ascending order.
 */
std::vector<std::size_t> runShards(std::size_t shards,
                                   const ShardBody &body,
                                   const ShardDelivery &deliver);

} // namespace chirp::dist

#endif // CHIRP_DIST_WIRE_HH
