/**
 * @file
 * Thread-safe suite-progress ticker.
 *
 * Replaces the bare fprintf ticker the serial runner used: workers
 * completing jobs on any thread call tick(), and the reporter keeps a
 * single "\r  [label] done/total workloads" line updated on stderr
 * without interleaving.  When stderr is not a terminal (CI logs,
 * redirects) the carriage-return redraw would accumulate one line of
 * spam per tick, so the reporter falls back to printing a plain line
 * every ~10% of the batch plus one at completion.  A reporter with an
 * empty label is silent, so tests and library callers stay quiet.
 *
 * When a process-wide log sink is installed (setLogSink) the reporter
 * always uses line mode and emits through the sink, so the sink only
 * ever sees complete lines, never \r fragments.
 */

#ifndef CHIRP_UTIL_PROGRESS_HH
#define CHIRP_UTIL_PROGRESS_HH

#include <cstddef>
#include <mutex>
#include <string>

namespace chirp
{

/** One progress line for a batch of @p total jobs. */
class ProgressReporter
{
  public:
    /** How ticks are rendered on stderr. */
    enum class Mode
    {
        Auto,  //!< Tty when stderr is a terminal, Lines otherwise
        Tty,   //!< single line redrawn in place with \r
        Lines, //!< one plain line per ~10% of the batch (CI-safe)
    };

    /** Silent when @p label is empty. */
    ProgressReporter(std::string label, std::size_t total,
                     Mode mode = Mode::Auto);

    /** Terminates the line if any ticks were printed. */
    ~ProgressReporter();

    ProgressReporter(const ProgressReporter &) = delete;
    ProgressReporter &operator=(const ProgressReporter &) = delete;

    /** Record one finished job and redraw the line. */
    void tick();

    /** Jobs reported done so far. */
    std::size_t done() const;

    /** The rendering mode in effect (after Auto resolution). */
    Mode mode() const { return mode_; }

  private:
    const std::string label_;
    const std::size_t total_;
    Mode mode_;
    std::size_t stride_;
    mutable std::mutex mutex_;
    std::size_t done_ = 0;
};

} // namespace chirp

#endif // CHIRP_UTIL_PROGRESS_HH
