/**
 * @file
 * Minimal gem5-style status/error reporting.
 *
 * `fatal` terminates on user error (bad configuration, bad trace
 * file); `panic` aborts on internal invariant violations; `warn` and
 * `inform` print and continue.
 */

#ifndef CHIRP_UTIL_LOGGING_HH
#define CHIRP_UTIL_LOGGING_HH

#include <functional>
#include <sstream>
#include <string>

namespace chirp
{

/**
 * Receives one complete, newline-free log line ("warn: ..." /
 * "info: ...") in place of the default stderr write.
 */
using LogSink = std::function<void(const std::string &line)>;

/**
 * Install a process-wide log sink.  When set, warn/inform lines (and
 * the progress reporter's lines) are handed to the sink instead of
 * being written to stderr directly; fatal still writes stderr as well,
 * since the sink may not survive the exit path.  Tests install one to
 * capture warnings.  Pass an empty function to restore direct stderr
 * output.
 */
void setLogSink(LogSink sink);

/** Whether a log sink is currently installed. */
bool logSinkInstalled();

namespace detail
{

[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Route one finished line through the sink, or stderr without one. */
void emitLine(const std::string &line);

/** Join a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * Terminate with an error caused by the user of the library: bad
 * configuration, malformed trace files, impossible parameter
 * combinations.  Exits with status 1.
 */
#define chirp_fatal(...)                                                    \
    ::chirp::detail::fatalImpl(__FILE__, __LINE__,                          \
                               ::chirp::detail::concat(__VA_ARGS__))

/**
 * Terminate because the library itself is broken: an invariant that
 * must hold regardless of input has been violated.  Aborts (may dump
 * core).
 */
#define chirp_panic(...)                                                    \
    ::chirp::detail::panicImpl(__FILE__, __LINE__,                          \
                               ::chirp::detail::concat(__VA_ARGS__))

/** Print a warning about suspicious-but-survivable conditions. */
#define chirp_warn(...)                                                     \
    ::chirp::detail::warnImpl(::chirp::detail::concat(__VA_ARGS__))

/** Print an informational status message. */
#define chirp_inform(...)                                                   \
    ::chirp::detail::informImpl(::chirp::detail::concat(__VA_ARGS__))

} // namespace chirp

#endif // CHIRP_UTIL_LOGGING_HH
