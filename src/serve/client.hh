/**
 * @file
 * Scriptable client for the serve protocol (`vsmooth client`).
 *
 * Submits a batch file to a running daemon and prints the streamed
 * responses, reordered by item index so the output is deterministic
 * regardless of executor completion order. `--results-only` prints
 * one serialized Result per line — the same bytes `--local` prints
 * when executing the batch in-process, which is how tests and ci.sh
 * assert the served results are bit-identical to the offline run.
 */

#ifndef VSMOOTH_SERVE_CLIENT_HH
#define VSMOOTH_SERVE_CLIENT_HH

#include <string>

namespace vsmooth::serve {

struct ClientOptions
{
    /** Unix-domain socket path (takes precedence when non-empty). */
    std::string socketPath;
    /** TCP port on 127.0.0.1. Used when socketPath is empty. */
    int port = 0;
    /** Batch file: {"items": [...]} or a bare JSON array of items. */
    std::string batchFile;
    /** Batch id echoed in responses. */
    std::string batchId = "cli";
    /** Execute the batch in-process instead of contacting a server
     *  (the offline reference for bit-identity checks). */
    bool local = false;
    /** Print only the serialized Result per item (index order). */
    bool resultsOnly = false;
    /** Send a shutdown request instead of a batch. */
    bool shutdown = false;
    /** Send a stats request instead of a batch. */
    bool stats = false;
};

/**
 * Exit codes: 0 = all items succeeded; 1 = usage/connection/protocol
 * failure or a non-retryable item error; 3 = at least one item was
 * rejected with a retryable status (busy/draining), or the daemon
 * turned the connection away `busy` at its connection cap — resubmit.
 */
int runClient(const ClientOptions &opt);

} // namespace vsmooth::serve

#endif // VSMOOTH_SERVE_CLIENT_HH
