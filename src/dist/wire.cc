#include "dist/wire.hh"

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/fault_injection.hh"
#include "util/logging.hh"

namespace chirp::dist
{

namespace
{

/** The one frame type on the wire; a stable constant. */
constexpr std::uint8_t kResultFrame = 7;

/** Wire header: length, type, checksum. */
constexpr std::size_t kHeaderBytes = 9;

/** Largest payload a well-formed child ever sends. */
constexpr std::size_t kMaxFramePayload = 16u << 20;

/** FNV-1a over the type byte and payload; the frame's integrity tag. */
std::uint32_t
frameSum(std::uint8_t type, std::string_view payload)
{
    std::uint32_t sum = 2166136261u;
    sum = (sum ^ type) * 16777619u;
    for (const char c : payload)
        sum = (sum ^ static_cast<std::uint8_t>(c)) * 16777619u;
    return sum;
}

void
appendLe32(std::string &out, std::uint32_t value)
{
    out.push_back(static_cast<char>(value & 0xff));
    out.push_back(static_cast<char>((value >> 8) & 0xff));
    out.push_back(static_cast<char>((value >> 16) & 0xff));
    out.push_back(static_cast<char>((value >> 24) & 0xff));
}

std::uint32_t
readLe32(const std::uint8_t *raw)
{
    return static_cast<std::uint32_t>(raw[0]) |
           (static_cast<std::uint32_t>(raw[1]) << 8) |
           (static_cast<std::uint32_t>(raw[2]) << 16) |
           (static_cast<std::uint32_t>(raw[3]) << 24);
}

/** Write one frame, looping over partial writes; false on EPIPE etc. */
bool
sendFrame(int fd, std::string_view payload)
{
    if (payload.size() > kMaxFramePayload)
        return false;
    std::string frame;
    frame.reserve(kHeaderBytes + payload.size());
    appendLe32(frame, static_cast<std::uint32_t>(payload.size()));
    frame.push_back(static_cast<char>(kResultFrame));
    appendLe32(frame, frameSum(kResultFrame, payload));
    frame.append(payload);

    // msg-truncate may shorten the frame: the short write still
    // succeeds, so the child carries on against a desynced stream.
    const std::size_t want =
        FaultInjector::instance().onWireSend(frame.size());
    std::size_t sent = 0;
    while (sent < want) {
        const ssize_t n = ::write(fd, frame.data() + sent, want - sent);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

/** The parent's view of one shard's child. */
struct Child
{
    pid_t pid = -1;
    int fd = -1;     //!< read end of the child's pipe; -1 once closed
    std::string buf; //!< bytes not yet parsed into frames
    bool lost = false;
};

[[noreturn]] void
runChild(std::size_t shard, int write_fd,
         const std::vector<Child> &siblings, const ShardBody &body)
{
    // A dead parent must surface as EPIPE on the next send, not as a
    // SIGPIPE mid-write.
    std::signal(SIGPIPE, SIG_IGN);
    // Only the parent may hold a pipe's read end: a sibling holding
    // one would hide the parent's death from that pipe's child.
    for (const Child &sibling : siblings) {
        if (sibling.fd >= 0)
            ::close(sibling.fd);
    }
    const ShardEmit emit = [write_fd](std::string_view payload) {
        if (!sendFrame(write_fd, payload))
            ::_exit(1);
    };
    try {
        body(shard, emit);
    } catch (...) {
        ::_exit(1);
    }
    ::_exit(0);
}

/**
 * Deliver every complete frame buffered for @p child.  False on a
 * corrupt frame or a payload @p deliver rejects.
 */
bool
drain(Child &child, std::size_t shard, const ShardDelivery &deliver)
{
    std::size_t off = 0;
    bool intact = true;
    while (child.buf.size() - off >= kHeaderBytes) {
        const auto *raw =
            reinterpret_cast<const std::uint8_t *>(child.buf.data() + off);
        const std::uint32_t len = readLe32(raw);
        if (len > kMaxFramePayload || raw[4] != kResultFrame) {
            intact = false;
            break;
        }
        if (child.buf.size() - off - kHeaderBytes < len)
            break;
        const std::string_view payload(
            child.buf.data() + off + kHeaderBytes, len);
        // A torn frame whose header survived has the next frame's
        // bytes spliced into its payload: the checksum catches it.
        if (frameSum(raw[4], payload) != readLe32(raw + 5) ||
            !deliver(shard, payload)) {
            intact = false;
            break;
        }
        off += kHeaderBytes + len;
    }
    child.buf.erase(0, off);
    return intact;
}

/** Stop reading @p child and kill it: its stream cannot be trusted. */
void
dropChild(Child &child, std::size_t shard, const char *why)
{
    ::close(child.fd);
    child.fd = -1;
    child.lost = true;
    ::kill(child.pid, SIGKILL);
    chirp_warn("shard ", shard, ": ", why, "; dropping its worker");
}

/** One read from @p child's pipe, delivering whatever completed. */
void
pump(Child &child, std::size_t shard, const ShardDelivery &deliver)
{
    char chunk[1 << 16];
    const ssize_t n = ::read(child.fd, chunk, sizeof(chunk));
    if (n > 0) {
        child.buf.append(chunk, static_cast<std::size_t>(n));
        if (!drain(child, shard, deliver))
            dropChild(child, shard, "corrupt result frame");
        return;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN))
        return;
    if (n < 0) {
        dropChild(child, shard, std::strerror(errno));
    } else if (!child.buf.empty()) {
        dropChild(child, shard, "truncated result frame");
    } else {
        // Clean end of stream; the exit status decides after reaping.
        ::close(child.fd);
        child.fd = -1;
    }
}

/** Poll every open child pipe until all of them are closed. */
void
mergeFrames(std::vector<Child> &children, const ShardDelivery &deliver)
{
    std::vector<pollfd> polled;
    std::vector<std::size_t> owner;
    for (;;) {
        polled.clear();
        owner.clear();
        for (std::size_t i = 0; i < children.size(); ++i) {
            if (children[i].fd >= 0) {
                polled.push_back({children[i].fd, POLLIN, 0});
                owner.push_back(i);
            }
        }
        if (polled.empty())
            break;
        if (::poll(polled.data(), polled.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            for (const std::size_t i : owner)
                dropChild(children[i], i, "poll failed");
            break;
        }
        for (std::size_t k = 0; k < polled.size(); ++k) {
            if (polled[k].revents != 0)
                pump(children[owner[k]], owner[k], deliver);
        }
    }
}

} // namespace

std::vector<std::size_t>
runShards(std::size_t shards, const ShardBody &body,
          const ShardDelivery &deliver)
{
    std::vector<Child> children(shards);
    // A child that leaves through exit() instead of _exit() (a fatal
    // error) must not print the parent's buffered output again.
    std::fflush(nullptr);
    for (std::size_t i = 0; i < shards; ++i) {
        int fds[2];
        if (::pipe(fds) != 0) {
            chirp_warn("shard ", i, ": pipe failed (",
                       std::strerror(errno), ")");
            children[i].lost = true;
            continue;
        }
        const pid_t pid = ::fork();
        if (pid == 0) {
            ::close(fds[0]);
            runChild(i, fds[1], children, body);
        }
        ::close(fds[1]);
        if (pid < 0) {
            chirp_warn("shard ", i, ": fork failed (",
                       std::strerror(errno), ")");
            ::close(fds[0]);
            children[i].lost = true;
            continue;
        }
        children[i].pid = pid;
        children[i].fd = fds[0];
    }

    try {
        mergeFrames(children, deliver);
    } catch (...) {
        // A throwing delivery must not leave children running.
        for (Child &child : children) {
            if (child.fd >= 0)
                ::close(child.fd);
            if (child.pid > 0) {
                ::kill(child.pid, SIGKILL);
                ::waitpid(child.pid, nullptr, 0);
            }
        }
        throw;
    }

    std::vector<std::size_t> lost;
    for (std::size_t i = 0; i < shards; ++i) {
        Child &child = children[i];
        if (child.pid > 0) {
            int status = 0;
            pid_t reaped;
            do {
                reaped = ::waitpid(child.pid, &status, 0);
            } while (reaped < 0 && errno == EINTR);
            const bool clean = reaped == child.pid && WIFEXITED(status) &&
                               WEXITSTATUS(status) == 0;
            if (!clean && !child.lost) {
                child.lost = true;
                if (reaped == child.pid && WIFSIGNALED(status))
                    chirp_warn("shard ", i, ": worker killed by signal ",
                               WTERMSIG(status));
                else
                    chirp_warn("shard ", i, ": worker exited with status ",
                               reaped == child.pid ? WEXITSTATUS(status)
                                                   : -1);
            }
        }
        if (child.lost)
            lost.push_back(i);
    }
    return lost;
}

} // namespace chirp::dist
