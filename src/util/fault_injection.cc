#include "util/fault_injection.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "util/logging.hh"

namespace chirp
{

namespace
{

/** Parse a decimal u64; fatal with spec context on junk. */
std::uint64_t
parseNumber(const std::string &text, const std::string &spec)
{
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        chirp_fatal("CHIRP_FAULT: bad number '", text, "' in spec '",
                    spec, "'");
    return value;
}

void
truncateFile(const std::string &path, std::uint64_t bytes)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const std::uint64_t size = fs::file_size(path, ec);
    if (ec)
        return;
    if (bytes == 0 || bytes >= size)
        bytes = size / 2;
    fs::resize_file(path, size - bytes, ec);
    chirp_warn("fault injection: truncated '", path, "' by ", bytes,
               " bytes");
}

void
bitflipFile(const std::string &path, std::uint64_t offset, bool hasOffset)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const std::uint64_t size = fs::file_size(path, ec);
    if (ec || size == 0)
        return;
    if (!hasOffset || offset >= size)
        offset = size / 2;
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        return;
    std::fseek(f, static_cast<long>(offset), SEEK_SET);
    const int c = std::fgetc(f);
    if (c != EOF) {
        std::fseek(f, -1, SEEK_CUR);
        std::fputc(c ^ 0x01, f);
    }
    std::fclose(f);
    chirp_warn("fault injection: flipped a bit at offset ", offset,
               " of '", path, "'");
}

} // namespace

std::atomic<bool> FaultInjector::chunkArmed_{false};

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

FaultInjector::FaultInjector()
{
    if (const char *env = std::getenv("CHIRP_FAULT"); env && *env)
        configure(env);
}

bool
FaultInjector::isJobKind(Kind kind)
{
    return kind == Kind::Throw || kind == Kind::HardThrow ||
           kind == Kind::Slow || kind == Kind::Crash;
}

bool
FaultInjector::isWorkerKind(Kind kind)
{
    return kind == Kind::WorkerCrash || kind == Kind::MsgTruncate;
}

void
FaultInjector::configure(const std::string &spec)
{
    std::vector<Action> actions;
    std::size_t begin = 0;
    while (begin < spec.size()) {
        std::size_t end = spec.find(',', begin);
        if (end == std::string::npos)
            end = spec.size();
        const std::string token = spec.substr(begin, end - begin);
        begin = end + 1;
        if (token.empty())
            continue;
        const std::size_t at = token.find('@');
        if (at == std::string::npos)
            chirp_fatal("CHIRP_FAULT: action '", token,
                        "' is missing '@index'");
        const std::string kind = token.substr(0, at);
        std::string index = token.substr(at + 1);
        Action action;
        if (const std::size_t colon = index.find(':');
            colon != std::string::npos) {
            action.arg = parseNumber(index.substr(colon + 1), spec);
            action.hasArg = true;
            index.resize(colon);
        }
        action.at = parseNumber(index, spec);
        if (kind == "throw")
            action.kind = Kind::Throw;
        else if (kind == "hard-throw")
            action.kind = Kind::HardThrow;
        else if (kind == "slow")
            action.kind = Kind::Slow;
        else if (kind == "crash")
            action.kind = Kind::Crash;
        else if (kind == "cache-truncate")
            action.kind = Kind::CacheTruncate;
        else if (kind == "cache-bitflip")
            action.kind = Kind::CacheBitFlip;
        else if (kind == "worker-crash")
            action.kind = Kind::WorkerCrash;
        else if (kind == "msg-truncate")
            action.kind = Kind::MsgTruncate;
        else if (kind == "chunk-throw")
            action.kind = Kind::ChunkThrow;
        else
            chirp_fatal("CHIRP_FAULT: unknown action '", kind,
                        "' (expected throw, hard-throw, slow, crash, "
                        "cache-truncate, cache-bitflip, worker-crash, "
                        "msg-truncate, or chunk-throw)");
        actions.push_back(action);
    }
    bool chunk_armed = false;
    for (const Action &action : actions)
        chunk_armed |= action.kind == Kind::ChunkThrow;
    std::lock_guard<std::mutex> lock(mutex_);
    actions_ = std::move(actions);
    jobEvents_ = 0;
    cacheEvents_ = 0;
    wireEvents_ = 0;
    chunkEvents_ = 0;
    chunkArmed_.store(chunk_armed, std::memory_order_relaxed);
}

bool
FaultInjector::active() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return !actions_.empty();
}

std::uint64_t
FaultInjector::jobEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobEvents_;
}

std::uint64_t
FaultInjector::cacheEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cacheEvents_;
}

void
FaultInjector::onJobStart()
{
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t event = jobEvents_++;
    // Worker-targeted crash: @N selects a worker id, and the action
    // fires at that worker's third local job event (see the header
    // comment), so a shard is always mid-flight with at least one
    // result already streamed.
    for (Action &action : actions_) {
        if (action.fired || action.kind != Kind::WorkerCrash ||
            workerId_ < 0 || event != 2 ||
            action.at != static_cast<std::uint64_t>(workerId_))
            continue;
        action.fired = true;
        const std::uint64_t code = action.hasArg ? action.arg : 137;
        const int id = workerId_;
        lock.unlock();
        std::fprintf(stderr,
                     "fault injection: worker %d crashing mid-shard\n",
                     id);
        std::_Exit(static_cast<int>(code));
    }
    for (Action &action : actions_) {
        if (action.fired || !isJobKind(action.kind) ||
            action.at != event)
            continue;
        action.fired = true;
        const Action fired = action;
        lock.unlock(); // throw/sleep without blocking other workers
        switch (fired.kind) {
          case Kind::Throw:
            throw TransientError(detail::concat(
                "injected transient fault (job event ", event, ")"));
          case Kind::HardThrow:
            throw InjectedFault(detail::concat(
                "injected permanent fault (job event ", event, ")"));
          case Kind::Slow:
            std::this_thread::sleep_for(std::chrono::milliseconds(
                fired.hasArg ? fired.arg : 200));
            return;
          case Kind::Crash:
            // _Exit: no stdio flush, no destructors -- the closest
            // in-process stand-in for a SIGKILL mid-suite.
            std::fprintf(stderr,
                         "fault injection: crashing at job event %llu\n",
                         static_cast<unsigned long long>(event));
            std::_Exit(static_cast<int>(fired.hasArg ? fired.arg : 137));
          default:
            return;
        }
    }
}

void
FaultInjector::onBatchChunk()
{
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t event = chunkEvents_++;
    for (Action &action : actions_) {
        if (action.fired || action.kind != Kind::ChunkThrow ||
            action.at != event)
            continue;
        action.fired = true;
        bool still_armed = false;
        for (const Action &other : actions_)
            still_armed |= !other.fired && other.kind == Kind::ChunkThrow;
        chunkArmed_.store(still_armed, std::memory_order_relaxed);
        lock.unlock();
        throw TransientError(detail::concat(
            "injected transient fault (batch chunk ", event, ")"));
    }
}

void
FaultInjector::setWorkerId(int id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    workerId_ = id;
    jobEvents_ = 0;
    wireEvents_ = 0;
}

std::size_t
FaultInjector::onWireSend(std::size_t len)
{
    std::uint64_t event = 0;
    bool truncate = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        event = wireEvents_++;
        for (Action &action : actions_) {
            if (action.fired || action.kind != Kind::MsgTruncate ||
                workerId_ < 0 ||
                action.at != static_cast<std::uint64_t>(workerId_))
                continue;
            // @N picked this worker; :K (default 3) picks which of
            // its outgoing frames to cut short.
            if (event != (action.hasArg ? action.arg : 3))
                continue;
            action.fired = true;
            truncate = true;
            break;
        }
    }
    if (truncate) {
        chirp_warn("fault injection: truncating wire frame ", event);
        return len / 2;
    }
    return len;
}

void
FaultInjector::onCachePublish(const std::string &path)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t event = cacheEvents_++;
    for (Action &action : actions_) {
        if (action.fired || isJobKind(action.kind) ||
            isWorkerKind(action.kind) || action.at != event)
            continue;
        action.fired = true;
        const Action fired = action;
        lock.unlock();
        if (fired.kind == Kind::CacheTruncate)
            truncateFile(path, fired.hasArg ? fired.arg : 0);
        else
            bitflipFile(path, fired.arg, fired.hasArg);
        return;
    }
}

} // namespace chirp
