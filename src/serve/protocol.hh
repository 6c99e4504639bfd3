/**
 * @file
 * Newline-delimited JSON framing for the serve protocol.
 *
 * One request or response per line; the transport is a stream socket
 * (Unix or TCP). Framing failures are survivable by design: an
 * oversized line is consumed to its terminating newline and reported
 * as a status (the server answers with a structured error and keeps
 * the connection); truncated JSON inside a well-framed line is a
 * parse error at the layer above, likewise answered rather than
 * disconnected.
 *
 * Requests:
 *   {"type": "ping"}
 *   {"type": "stats"}
 *   {"type": "batch", "id": "b1", "items": [<batch item>, ...]}
 *   {"type": "shutdown"}
 *
 * Responses (one line each):
 *   {"type": "pong"}
 *   {"type": "stats", ...cache/queue counters...}
 *   {"type": "result", "batch": "b1", "item": "...", "index": i,
 *    "cache": "hit"|"miss", "config_hash": "...", "result": {...}}
 *   {"type": "error", "code": "...", "message": "...",
 *    "retryable": bool, ...context...}
 *   {"type": "batch_done", "batch": "b1", "items": n,
 *    "cache_hits": h, "cache_misses": m, "rejected": r}
 *   {"type": "shutting_down"}
 */

#ifndef VSMOOTH_SERVE_PROTOCOL_HH
#define VSMOOTH_SERVE_PROTOCOL_HH

#include <cstddef>
#include <string>
#include <string_view>

#include "common/json.hh"

namespace vsmooth::serve {

/** Hard per-line cap: a line longer than this is a protocol error
 *  (and a memory bound), not a buffering exercise. */
constexpr std::size_t kMaxLineBytes = 1 << 20;

/** Incremental reader of newline-terminated frames from a stream
 *  socket fd. Not thread-safe; one reader per connection. */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    enum class Status {
        Line,      ///< *line holds one complete frame (no newline)
        Oversized, ///< frame exceeded kMaxLineBytes; it was consumed
        Eof,       ///< peer closed cleanly between frames
        Error,     ///< read(2) failure
    };

    Status next(std::string *line);

  private:
    int fd_;
    std::string buf_;
    bool eof_ = false;
};

/** Send `payload` plus a newline on socket `fd`, handling short
 *  writes; false on any send failure (peer gone, or the socket's send
 *  timeout). A peer that has gone never raises SIGPIPE. */
bool sendLine(int fd, std::string_view payload);

/** Structured error response. */
Json makeError(std::string_view code, std::string_view message,
               bool retryable = false);

} // namespace vsmooth::serve

#endif // VSMOOTH_SERVE_PROTOCOL_HH
