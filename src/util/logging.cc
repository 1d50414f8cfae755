#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

namespace chirp
{

namespace
{

std::mutex &
sinkMutex()
{
    static std::mutex mutex;
    return mutex;
}

LogSink &
sinkSlot()
{
    static LogSink sink;
    return sink;
}

} // namespace

void
setLogSink(LogSink sink)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    sinkSlot() = std::move(sink);
}

bool
logSinkInstalled()
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    return static_cast<bool>(sinkSlot());
}

namespace detail
{

void
emitLine(const std::string &line)
{
    // Copy the sink out under the lock so a slow sink (a socket send)
    // never serializes unrelated logging, and a concurrent
    // setLogSink() cannot invalidate the function mid-call.
    LogSink sink;
    {
        std::lock_guard<std::mutex> lock(sinkMutex());
        sink = sinkSlot();
    }
    if (sink) {
        sink(line);
        return;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    // Both routes on purpose: the sink gets the reason, and stderr
    // keeps a trace in case the sink does not survive the exit.
    if (logSinkInstalled())
        emitLine("fatal: " + msg);
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    if (logSinkInstalled())
        emitLine("panic: " + msg);
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    emitLine("warn: " + msg);
}

void
informImpl(const std::string &msg)
{
    emitLine("info: " + msg);
}

} // namespace detail
} // namespace chirp
