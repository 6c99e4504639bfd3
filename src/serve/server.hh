/**
 * @file
 * The `vsmooth serve` daemon: sweep-as-a-service.
 *
 * A long-running process that listens on a Unix or TCP socket,
 * accepts newline-delimited JSON scenario batches (see protocol.hh),
 * executes each item through the deterministic batch engine
 * (batch.hh) on a bounded executor pool, and streams one Result line
 * per item. Repeat submissions of the same canonical config are
 * answered from the content-addressed cache with the exact bytes of
 * the first computation.
 *
 * Lifecycle: SIGTERM/SIGINT or a `shutdown` request starts a graceful
 * drain — the listener closes, queued items are rejected with a
 * retryable status, in-flight items run to completion and their
 * results are delivered, then the process exits. No partial or
 * corrupt response is ever emitted: a response line is written
 * atomically under the connection's write lock.
 *
 * Each connection has one reader thread. When the client closes, the
 * reader retires: the daemon forgets the connection, whose fd closes
 * as soon as no in-flight batch still holds it, and the reader joins
 * the one that retired before it, so at most one exited reader waits
 * to be joined (by the next to retire, or at drain). Connections are
 * capped a fixed headroom below the soft RLIMIT_NOFILE: a client
 * beyond the cap is accepted, told `busy` (retryable) and closed, so
 * the daemon keeps descriptors for itself. Should accept() still run
 * out of descriptors or memory, the acceptor backs off instead of
 * polling straight back into the same failure. A client that stops
 * reading is given up once a write to it has blocked for a few
 * seconds: its connection is shut down, later sends to it return at
 * once and executors skip its queued items, so it cannot hold an
 * executor. A client that closes is given up at the first result
 * that cannot reach it.
 */

#ifndef VSMOOTH_SERVE_SERVER_HH
#define VSMOOTH_SERVE_SERVER_HH

#include <cstddef>
#include <string>

namespace vsmooth::serve {

struct ServeOptions
{
    /** Unix-domain socket path (takes precedence when non-empty). */
    std::string socketPath;
    /** TCP port on 127.0.0.1 (0 = ephemeral, reported via ready
     *  file / log). Used when socketPath is empty. */
    int port = 0;
    /** Executor threads running batch items. */
    std::size_t workers = 2;
    /** Cache byte budget (0 disables caching). */
    std::size_t cacheBytes = std::size_t{64} << 20;
    /** Bounded queue capacity; submissions beyond it get `busy`. */
    std::size_t queueCapacity = 256;
    /** When non-empty, "<kind> <address>" is written here (atomic
     *  rename) once the socket is listening — how scripted tests
     *  learn an ephemeral port. */
    std::string readyFile;
    bool verbose = false;
};

/** Run the daemon until drained. Returns a process exit code. */
int runServe(const ServeOptions &opt);

} // namespace vsmooth::serve

#endif // VSMOOTH_SERVE_SERVER_HH
