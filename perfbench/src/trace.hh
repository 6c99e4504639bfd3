/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is (name, id, parent, request, start, end). Spans of one
 * request share its request id. Spans are appended to a preallocated
 * vector from one thread (the serve session records a pass's spans
 * after its connection threads have joined) and written out once, at
 * exit; with tracing off every call is a no-op, so the untraced run
 * pays nothing.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the monotonic clock (the origin is arbitrary). */
inline double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t request = 0;
    double start = 0.0;
    double end = 0.0;
};

class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on)
    {
        if (on_)
            spans_.reserve(1 << 16);
    }

    bool on() const { return on_; }

    /** Record a finished span; returns its id (0 when off). */
    std::uint64_t add(std::string name, std::uint64_t parent,
                      std::uint64_t request, double start, double end);

    /** Write every span as a JSON array to `path`. */
    bool write(const std::string &path) const;

  private:
    bool on_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
