#include "client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "batch.hh"
#include "cache.hh"
#include "common/logging.hh"
#include "protocol.hh"

namespace vsmooth::serve {

namespace {

/** Load the batch file's item array; fatals on unreadable/invalid
 *  input (a CLI usage error, not a protocol condition). */
Json
loadItems(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open batch file '%s'", path.c_str());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string error;
    Json j = Json::parse(buf.str(), &error);
    if (!error.empty())
        fatal("batch file '%s': %s", path.c_str(), error.c_str());
    if (j.isArray())
        return j;
    if (j.isObject()) {
        if (const Json *items = j.find("items"); items &&
            items->isArray())
            return *items;
    }
    fatal("batch file '%s' is neither an item array nor an object "
          "with 'items'",
          path.c_str());
}

int
runLocal(const ClientOptions &opt)
{
    const Json items = loadItems(opt.batchFile);
    int rc = 0;
    for (std::size_t i = 0; i < items.asArray().size(); ++i) {
        BatchItem item;
        std::string error;
        if (!BatchItem::fromJson(items.asArray()[i], item, &error)) {
            std::cerr << "item " << i << ": " << error << "\n";
            rc = 1;
            continue;
        }
        const std::string payload =
            serializeResult(runBatchItem(item));
        if (opt.resultsOnly) {
            std::cout << payload << "\n";
            continue;
        }
        std::cout << "{\"type\": \"result\", \"batch\": "
                  << Json(opt.batchId).dump() << ", \"item\": "
                  << Json(item.id.empty() ? std::to_string(i)
                                          : item.id)
                         .dump()
                  << ", \"index\": " << i
                  << ", \"cache\": \"local\", \"config_hash\": \""
                  << fnv1aHex(item.canonicalKey())
                  << "\", \"result\": " << payload << "}\n";
    }
    return rc;
}

int
connectTo(const ClientOptions &opt)
{
    if (!opt.socketPath.empty()) {
        sockaddr_un addr{};
        if (opt.socketPath.size() >= sizeof(addr.sun_path))
            fatal("socket path too long (%zu bytes)",
                  opt.socketPath.size());
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            fatal("socket: %s", std::strerror(errno));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opt.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            fatal("cannot connect to '%s': %s",
                  opt.socketPath.c_str(), std::strerror(errno));
        return fd;
    }
    if (opt.port <= 0)
        fatal("client needs --socket PATH or --port N (or --local)");
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("socket: %s", std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opt.port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        fatal("cannot connect to 127.0.0.1:%d: %s", opt.port,
              std::strerror(errno));
    return fd;
}

/** One response attributed to an item, for index-ordered printing. */
struct ItemResponse
{
    std::size_t index = 0;
    std::string line;
};

int
runRemote(const ClientOptions &opt)
{
    const int fd = connectTo(opt);
    // A daemon at its connection cap answers `busy` and closes, maybe
    // before the request is all sent, so its reply is read either way.

    if (opt.shutdown || opt.stats) {
        Json req = Json::object();
        req.set("type", opt.shutdown ? "shutdown" : "stats");
        const bool sent = sendLine(fd, req.dump());
        const int sendErrno = errno;
        LineReader reader(fd);
        std::string line;
        const LineReader::Status st = reader.next(&line);
        ::close(fd);
        if (st != LineReader::Status::Line) {
            if (!sent)
                fatal("cannot send request: %s", std::strerror(sendErrno));
            std::cerr << "no response from server\n";
            return 1;
        }
        std::cout << line << "\n";
        const Json reply = Json::parse(line);
        const Json *retry = reply.find("retryable");
        if (!retry)
            return 0;
        return retry->isBool() && retry->asBool() ? 3 : 1;
    }

    const Json items = loadItems(opt.batchFile);
    std::string req = "{\"type\": \"batch\", \"id\": " +
        Json(opt.batchId).dump() + ", \"items\": " + items.dump() +
        "}";
    const bool sent = sendLine(fd, req);
    const int sendErrno = errno;

    LineReader reader(fd);
    std::vector<ItemResponse> responses;
    std::string done;
    bool sawError = false, sawRetryable = false;
    std::string line;
    for (;;) {
        const LineReader::Status st = reader.next(&line);
        // Closed after a retryable error: print it, exit retryable.
        if (st != LineReader::Status::Line && sawRetryable)
            break;
        if (st != LineReader::Status::Line) {
            if (!sent)
                fatal("cannot send batch: %s", std::strerror(sendErrno));
            std::cerr << "connection lost before batch_done\n";
            ::close(fd);
            return 1;
        }
        std::string parseError;
        const Json j = Json::parse(line, &parseError);
        if (!parseError.empty()) {
            std::cerr << "unparseable response: " << parseError
                      << "\n";
            ::close(fd);
            return 1;
        }
        const Json *type = j.find("type");
        const std::string t =
            type && type->isString() ? type->asString() : "";
        if (t == "batch_done") {
            done = line;
            break;
        }
        ItemResponse r;
        if (const Json *idx = j.find("index");
            idx && idx->isNumber())
            r.index = static_cast<std::size_t>(idx->asNumber());
        if (t == "error") {
            const Json *retry = j.find("retryable");
            (retry && retry->isBool() && retry->asBool()
                 ? sawRetryable
                 : sawError) = true;
            r.line = line;
        } else if (opt.resultsOnly) {
            const Json *result = j.find("result");
            // Re-dumping is byte-exact: the writer is deterministic
            // and integers/doubles round-trip losslessly.
            r.line = result ? result->dump() : line;
        } else {
            r.line = line;
        }
        responses.push_back(std::move(r));
    }
    ::close(fd);

    std::stable_sort(responses.begin(), responses.end(),
                     [](const ItemResponse &a, const ItemResponse &b) {
                         return a.index < b.index;
                     });
    for (const auto &r : responses)
        std::cout << r.line << "\n";
    if (!opt.resultsOnly && !done.empty())
        std::cout << done << "\n";
    if (sawError)
        return 1;
    return sawRetryable ? 3 : 0;
}

} // namespace

int
runClient(const ClientOptions &opt)
{
    if (opt.local)
        return runLocal(opt);
    return runRemote(opt);
}

} // namespace vsmooth::serve
