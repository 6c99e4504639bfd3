/**
 * @file
 * Tests for the `vsmooth serve` layer: the content-addressed result
 * cache, the bounded backpressure queue, NDJSON framing edges
 * (oversized line, truncated JSON), batch-item validation, and a live
 * client/server round trip over a Unix socket driven through the real
 * binary (path injected via VSMOOTH_CLI_PATH).
 *
 * The protocol-edge tests assert the survivability contract: a framing
 * or schema error on one request produces a structured error response
 * on the same connection — never a disconnect, never a dead daemon.
 * The lifecycle tests run the daemon with few descriptors: closed
 * connections must give theirs back, running out must neither spin
 * the acceptor nor wedge it, and the connection cap must answer every
 * client it turns away. A client that stops reading must not wedge
 * the executors either, and the queued work of a client the daemon
 * has given up is skipped.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/batch.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "simtest/properties.hh"

namespace fs = std::filesystem;
using namespace vsmooth;
using namespace vsmooth::serve;

namespace {

fs::path
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("vsmooth_serve_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

// ---------------------------------------------------------------------
// Result cache

TEST(ServeCache, HitReturnsExactBytesAndCountsStats)
{
    ResultCache cache(1 << 20);
    const std::string key = "{\"kind\": \"summary\", \"config\": {}}";
    const std::string payload = "{\"metrics\": {\"cycles\": 123}}";

    std::string out;
    EXPECT_FALSE(cache.lookup(key, &out));
    cache.insert(key, payload);
    ASSERT_TRUE(cache.lookup(key, &out));
    EXPECT_EQ(out, payload); // byte-identical replay

    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, key.size() + payload.size());
}

TEST(ServeCache, LruEvictionRespectsByteBudget)
{
    // Each entry is key (2 bytes) + payload (10 bytes) = 12 bytes;
    // budget fits exactly two entries.
    ResultCache cache(24);
    const std::string pay(10, 'p');
    cache.insert("k1", pay);
    cache.insert("k2", pay);

    // Touch k1 so k2 becomes least recently used, then overflow.
    std::string out;
    ASSERT_TRUE(cache.lookup("k1", &out));
    cache.insert("k3", pay);

    EXPECT_TRUE(cache.lookup("k1", &out));
    EXPECT_FALSE(cache.lookup("k2", &out)); // evicted as LRU
    EXPECT_TRUE(cache.lookup("k3", &out));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);

    // An entry larger than the whole budget is never cached (and must
    // not evict everything else trying).
    cache.insert("huge", std::string(100, 'x'));
    EXPECT_FALSE(cache.lookup("huge", &out));
    EXPECT_TRUE(cache.lookup("k3", &out));

    // Budget zero disables caching outright.
    ResultCache off(0);
    off.insert("k", "v");
    EXPECT_FALSE(off.lookup("k", &out));
}

// ---------------------------------------------------------------------
// Bounded queue

TEST(ServeQueue, BusyWhenFullThenDrainRejectsBacklogInOrder)
{
    TaskQueue q(2);
    std::vector<int> rejected;
    std::atomic<int> ran{0};
    auto task = [&](int id) {
        return Task{[&ran] { ++ran; },
                    [&rejected, id] { rejected.push_back(id); }};
    };

    EXPECT_EQ(q.push(task(1)), TaskQueue::Push::Accepted);
    EXPECT_EQ(q.push(task(2)), TaskQueue::Push::Accepted);
    EXPECT_EQ(q.push(task(3)), TaskQueue::Push::Busy);
    EXPECT_EQ(q.depth(), 2u);

    // Drain rejects the backlog (in queue order) without running it.
    q.beginDrain();
    EXPECT_EQ(q.push(task(4)), TaskQueue::Push::Draining);
    ASSERT_EQ(rejected.size(), 2u);
    EXPECT_EQ(rejected[0], 1);
    EXPECT_EQ(rejected[1], 2);
    EXPECT_EQ(ran.load(), 0);

    // Draining + empty: workers are told to exit.
    Task t;
    EXPECT_FALSE(q.pop(&t));
    q.awaitIdle(); // no in-flight work; must not block
}

TEST(ServeQueue, WorkerRunsAcceptedTasksAndIdlesOut)
{
    TaskQueue q(8);
    std::atomic<int> ran{0};
    std::thread worker([&] {
        Task t;
        while (q.pop(&t)) {
            t.run();
            q.taskDone();
        }
    });
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(q.push(Task{[&ran] { ++ran; }, [] {}}),
                  TaskQueue::Push::Accepted);
    }
    // Drain rejects whatever the worker has not yet popped, so wait
    // for the backlog to run before draining.
    for (int i = 0; i < 500 && ran.load() < 5; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    q.beginDrain();
    q.awaitIdle();
    worker.join();
    EXPECT_EQ(ran.load(), 5);
}

// ---------------------------------------------------------------------
// NDJSON framing

TEST(ServeProtocol, LineReaderRecoversAfterOversizedFrame)
{
    // Feed the reader from a regular file: one good frame, one frame
    // past the 1 MiB cap, another good frame, and a partial trailing
    // frame with no newline.
    const fs::path dir = scratchDir("linereader");
    const fs::path file = dir / "frames";
    {
        std::ofstream os(file, std::ios::binary);
        os << "{\"type\": \"ping\"}\n";
        os << std::string(kMaxLineBytes + 100, 'x') << "\n";
        os << "{\"type\": \"stats\"}\n";
        os << "{\"partial";
    }
    const int fd = ::open(file.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    LineReader reader(fd);
    std::string line;

    EXPECT_EQ(reader.next(&line), LineReader::Status::Line);
    EXPECT_EQ(line, "{\"type\": \"ping\"}");

    // The oversized frame is consumed to its newline and reported
    // once; the next frame is intact.
    EXPECT_EQ(reader.next(&line), LineReader::Status::Oversized);
    EXPECT_EQ(reader.next(&line), LineReader::Status::Line);
    EXPECT_EQ(line, "{\"type\": \"stats\"}");

    // A partial trailing frame is dropped at EOF, not surfaced.
    EXPECT_EQ(reader.next(&line), LineReader::Status::Eof);
    ::close(fd);
}

// ---------------------------------------------------------------------
// Batch items

TEST(ServeBatch, FromJsonRejectsBadItemsWithMessages)
{
    BatchItem item;
    std::string error;

    auto parse = [&](const char *text) {
        std::string parseError;
        const Json j = Json::parse(text, &parseError);
        EXPECT_TRUE(parseError.empty()) << parseError;
        error.clear();
        return BatchItem::fromJson(j, item, &error);
    };

    EXPECT_FALSE(parse("{\"kind\": \"bogus\", \"config\": {}}"));
    EXPECT_NE(error.find("unknown experiment kind"), std::string::npos)
        << error;

    // FuzzConfig schema violations surface as messages, not fatals.
    EXPECT_FALSE(parse("{\"config\": {\"cores\": 3}}"));
    EXPECT_FALSE(error.empty());

    // oracle_cell validates benchmark names up front (specByName
    // would fatal inside the executor otherwise).
    EXPECT_FALSE(parse("{\"kind\": \"oracle_cell\", "
                       "\"bench_a\": \"nonesuch\", "
                       "\"bench_b\": \"mcf\"}"));
    EXPECT_NE(error.find("nonesuch"), std::string::npos) << error;

    // Unknown property names likewise fail at parse time.
    EXPECT_FALSE(parse("{\"kind\": \"fuzz\", \"config\": {}, "
                       "\"properties\": [\"no_such_property\"]}"));
    EXPECT_NE(error.find("no_such_property"), std::string::npos)
        << error;

    EXPECT_TRUE(parse("{\"kind\": \"summary\", "
                      "\"config\": {\"seed\": 3, \"cycles\": 2000}}"))
        << error;

    // Integer config fields are exact: a seed of -1 is refused by
    // name, and one above 2^53 keeps its low bits, key included.
    EXPECT_FALSE(parse("{\"config\": {\"seed\": -1}}"));
    EXPECT_NE(error.find("'seed'"), std::string::npos) << error;
    EXPECT_TRUE(parse("{\"config\": {\"seed\": 9007199254740993}}"))
        << error;
    EXPECT_EQ(item.cfg.seed, 9007199254740993ull);
    EXPECT_NE(item.canonicalKey().find("\"seed\":9007199254740993"),
              std::string::npos)
        << item.canonicalKey();
}

TEST(ServeBatch, CanonicalKeyIgnoresIdAndFieldOrder)
{
    auto keyOf = [](const char *text) {
        std::string parseError;
        const Json j = Json::parse(text, &parseError);
        EXPECT_TRUE(parseError.empty()) << parseError;
        BatchItem item;
        std::string error;
        EXPECT_TRUE(BatchItem::fromJson(j, item, &error)) << error;
        return item.canonicalKey();
    };

    // Same scenario: different field order, explicit default kind,
    // different id — identical cache key.
    const std::string a =
        keyOf("{\"config\": {\"seed\": 3, \"cycles\": 2000}}");
    const std::string b =
        keyOf("{\"id\": \"other\", \"kind\": \"summary\", "
              "\"config\": {\"cycles\": 2000, \"seed\": 3}}");
    EXPECT_EQ(a, b);

    // Any parameter that affects the Result changes the key.
    const std::string c =
        keyOf("{\"config\": {\"seed\": 4, \"cycles\": 2000}}");
    EXPECT_NE(a, c);
    EXPECT_NE(fnv1aHex(a), fnv1aHex(c));
}

TEST(ServeBatch, CanonicalKeyIsSerializedOncePerItem)
{
    std::string parseError;
    const Json j = Json::parse(
        "{\"config\": {\"seed\": 3, \"cycles\": 2000}}", &parseError);
    ASSERT_TRUE(parseError.empty()) << parseError;
    BatchItem item;
    std::string error;
    ASSERT_TRUE(BatchItem::fromJson(j, item, &error)) << error;

    // Memoized: every call hands back the same bytes (same object),
    // so lookup, hashing, and the executor's insert never re-walk the
    // config JSON.
    const std::string &first = item.canonicalKey();
    const std::string &second = item.canonicalKey();
    EXPECT_EQ(&first, &second);
    EXPECT_FALSE(first.empty());
    const std::string firstCopy = first; // `first` aliases the memo

    // Re-parsing into the same item resets the memo with the fields.
    const Json j2 = Json::parse(
        "{\"config\": {\"seed\": 4, \"cycles\": 2000}}", &parseError);
    ASSERT_TRUE(BatchItem::fromJson(j2, item, &error)) << error;
    EXPECT_NE(item.canonicalKey(), firstCopy);
}

TEST(ServeBatch, RunBatchItemIsBitDeterministic)
{
    std::string parseError;
    const Json j = Json::parse(
        "{\"kind\": \"summary\", "
        "\"config\": {\"seed\": 11, \"cycles\": 3000}}",
        &parseError);
    ASSERT_TRUE(parseError.empty()) << parseError;
    BatchItem item;
    std::string error;
    ASSERT_TRUE(BatchItem::fromJson(j, item, &error)) << error;

    const std::string first = serializeResult(runBatchItem(item));
    const std::string second = serializeResult(runBatchItem(item));
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"cycles\":3000"), std::string::npos)
        << first.substr(0, 200);
}

TEST(ServeBatch, PopulationExtremesComeFromTheRuns)
{
    // hist_min, hist_max and deviation_max are extremes over the
    // item's runs, run i drawing seed cfg.seed + i * 0x9E3779B97F4A7C15.
    // Every run of both scenarios ends below nominal, and the second,
    // at 16x package resistance, never rises to nominal at all, so
    // maxima that start at 0 instead of at the first run read 0.
    for (const char *config :
         {"{\"seed\": 7, \"cycles\": 20000, \"coreBench\": [19, 19]}",
          "{\"seed\": 7, \"cycles\": 20000, \"coreBench\": [19, 19], "
          "\"rScale\": 16}"}) {
        SCOPED_TRACE(config);
        std::string error;
        const Json j = Json::parse(
            std::string("{\"kind\": \"population\", \"population\": 3, "
                        "\"config\": ") +
                config + "}",
            &error);
        ASSERT_TRUE(error.empty()) << error;
        BatchItem item;
        ASSERT_TRUE(BatchItem::fromJson(j, item, &error)) << error;
        const Result r = runBatchItem(item);

        double histMin = 0.0, histMax = 0.0, deviationMax = 0.0;
        for (std::uint64_t i = 0; i < item.population; ++i) {
            simtest::FuzzConfig c = item.cfg;
            c.seed = item.cfg.seed + i * 0x9E3779B97F4A7C15ull;
            const simtest::RunSummary s = simtest::summarizeRun(c, false);
            histMin = i == 0 ? s.histMin : std::min(histMin, s.histMin);
            histMax = i == 0 ? s.histMax : std::max(histMax, s.histMax);
            deviationMax =
                i == 0 ? s.deviation : std::max(deviationMax, s.deviation);
        }
        ASSERT_LT(deviationMax, 0.0);
        EXPECT_EQ(r.metricValue("deviation_max"), deviationMax);
        EXPECT_EQ(r.metricValue("hist_min"), histMin);
        EXPECT_EQ(r.metricValue("hist_max"), histMax);
    }
}

// ---------------------------------------------------------------------
// Live daemon round trip (real binary, Unix socket)

namespace {

/** Fork/exec the real CLI as `vsmooth serve`, wait for its ready
 *  file, and SIGTERM it on destruction. */
struct Daemon
{
    pid_t pid = -1;
    std::string sock;
    /** RLIMIT_NOFILE for the daemon alone (0 = inherit). */
    rlim_t fdLimit = 0;

    /** Launch and wait for the ready file; false (with a recorded
     *  failure) if the daemon never came up. */
    bool start(const fs::path &dir)
    {
        sock = (dir / "s.sock").string();
        const std::string ready = (dir / "ready").string();
        const std::string log = (dir / "serve.log").string();
        pid = ::fork();
        if (pid == 0) {
            const int out =
                ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            ::dup2(out, 1);
            ::dup2(out, 2);
            if (fdLimit > 0) {
                const rlimit limit{fdLimit, fdLimit};
                ::setrlimit(RLIMIT_NOFILE, &limit);
            }
            ::execl(VSMOOTH_CLI_PATH, "vsmooth", "serve", "--socket",
                    sock.c_str(), "--workers", "2", "--ready-file",
                    ready.c_str(), static_cast<char *>(nullptr));
            _exit(127); // exec failed
        }
        EXPECT_GT(pid, 0);
        for (int i = 0; i < 500 && !fs::exists(ready); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_TRUE(fs::exists(ready))
            << "daemon never became ready; log:\n" << slurp(log);
        return pid > 0 && fs::exists(ready);
    }

    /** SIGTERM and reap; returns the daemon's exit code. */
    int terminate()
    {
        if (pid <= 0)
            return -1;
        ::kill(pid, SIGTERM);
        int status = 0;
        ::waitpid(pid, &status, 0);
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    ~Daemon()
    {
        if (pid > 0) {
            ::kill(pid, SIGTERM);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }
};

int
connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
    // A hung daemon should fail the test, not hang it.
    timeval tv{30, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
}

/** Connect, ping and close; true when a pong came back within 5 s. */
bool
pingOnce(const std::string &sock)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
    const timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string line;
    const bool ok =
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0 &&
        sendLine(fd, "{\"type\": \"ping\"}") &&
        LineReader(fd).next(&line) == LineReader::Status::Line &&
        line.find("\"pong\"") != std::string::npos;
    ::close(fd);
    return ok;
}

/** Descriptors process `pid` has open. */
std::size_t
fdCount(pid_t pid)
{
    const fs::path dir = "/proc/" + std::to_string(pid) + "/fd";
    return static_cast<std::size_t>(std::distance(
        fs::directory_iterator(dir), fs::directory_iterator()));
}

/** Whether process `pid` gets down to `fds` descriptors within
 *  `seconds` (a reader closes its fd just after its client does). */
bool
fdCountSettlesAt(pid_t pid, std::size_t fds, int seconds = 5)
{
    for (int i = 0; i < 50 * seconds; ++i) {
        if (fdCount(pid) <= fds)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
}

/** User plus system CPU seconds process `pid` has used. */
double
cpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(in, stat);
    // After the parenthesized command: state is field 3, and utime
    // and stime are fields 14 and 15.
    std::istringstream rest(stat.substr(stat.rfind(')') + 2));
    std::string field;
    for (int i = 3; i < 14; ++i)
        rest >> field;
    double utime = 0.0, stime = 0.0;
    rest >> utime >> stime;
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

struct CliResult
{
    int exitCode = -1;
    std::string output;
};

CliResult
runCli(const std::string &args)
{
    const std::string cmd =
        std::string(VSMOOTH_CLI_PATH) + " " + args + " 2>/dev/null";
    FILE *pipe = ::popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    CliResult r;
    std::array<char, 4096> buf;
    while (pipe && fgets(buf.data(), buf.size(), pipe))
        r.output += buf.data();
    if (pipe) {
        const int status = ::pclose(pipe);
        r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    return r;
}

} // namespace

TEST(ServeDaemon, ProtocolEdgesKeepTheConnectionAlive)
{
    const fs::path dir = scratchDir("edges");
    Daemon daemon;
    ASSERT_TRUE(daemon.start(dir));

    const int fd = connectUnix(daemon.sock);
    LineReader reader(fd);
    std::string line;
    auto expectResponse = [&](const char *what) {
        ASSERT_EQ(reader.next(&line), LineReader::Status::Line)
            << what;
    };

    // Truncated JSON in a well-framed line: structured bad_json
    // error, connection survives.
    ASSERT_TRUE(sendLine(fd, "{\"type\": \"ping\""));
    expectResponse("truncated json");
    EXPECT_NE(line.find("\"bad_json\""), std::string::npos) << line;

    // Oversized line: consumed, answered, connection survives.
    ASSERT_TRUE(sendLine(fd, std::string(kMaxLineBytes + 64, 'z')));
    expectResponse("oversized line");
    EXPECT_NE(line.find("\"line_too_long\""), std::string::npos)
        << line;

    // Unknown request type.
    ASSERT_TRUE(sendLine(fd, "{\"type\": \"frobnicate\"}"));
    expectResponse("unknown type");
    EXPECT_NE(line.find("\"bad_request\""), std::string::npos) << line;

    // Unknown experiment kind inside a batch: a per-item structured
    // error plus batch_done — not a disconnect, not a dead executor.
    ASSERT_TRUE(sendLine(
        fd, "{\"type\": \"batch\", \"id\": \"e\", \"items\": "
            "[{\"kind\": \"bogus\", \"config\": {}}]}"));
    expectResponse("bad item error");
    EXPECT_NE(line.find("\"bad_item\""), std::string::npos) << line;
    EXPECT_NE(line.find("unknown experiment kind"), std::string::npos)
        << line;
    expectResponse("batch_done after bad item");
    EXPECT_NE(line.find("\"batch_done\""), std::string::npos) << line;

    // The same connection still answers a healthy request.
    ASSERT_TRUE(sendLine(fd, "{\"type\": \"ping\"}"));
    expectResponse("ping after errors");
    EXPECT_NE(line.find("\"pong\""), std::string::npos) << line;
    ::close(fd);

    // SIGTERM drains cleanly.
    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeDaemon, CacheHitRoundTripIsBitIdenticalToLocal)
{
    const fs::path dir = scratchDir("roundtrip");
    const fs::path batch = dir / "batch.json";
    {
        std::ofstream os(batch);
        os << "[{\"kind\": \"summary\", "
              "\"config\": {\"seed\": 7, \"cycles\": 2000}},\n"
           << " {\"kind\": \"fuzz\", "
              "\"config\": {\"seed\": 5, \"cycles\": 1500}, "
              "\"properties\": [\"run_twice_determinism\"]}]\n";
    }
    Daemon daemon;
    ASSERT_TRUE(daemon.start(dir));

    const std::string base =
        "client --socket " + daemon.sock + " --batch " + batch.string();

    // First pass computes; every line is a miss.
    const CliResult pass1 = runCli(base + " --results-only");
    ASSERT_EQ(pass1.exitCode, 0) << pass1.output;
    ASSERT_FALSE(pass1.output.empty());

    // Second pass must be served from cache, byte-identical.
    const CliResult pass2 = runCli(base + " --results-only");
    ASSERT_EQ(pass2.exitCode, 0) << pass2.output;
    EXPECT_EQ(pass1.output, pass2.output);

    const CliResult envelope = runCli(base);
    ASSERT_EQ(envelope.exitCode, 0) << envelope.output;
    EXPECT_EQ(envelope.output.find("\"cache\": \"miss\""),
              std::string::npos)
        << envelope.output;
    std::size_t hits = 0;
    for (std::size_t at = envelope.output.find("\"cache\": \"hit\"");
         at != std::string::npos;
         at = envelope.output.find("\"cache\": \"hit\"", at + 1))
        ++hits;
    EXPECT_EQ(hits, 2u) << envelope.output;

    // The served bytes equal the offline computation of the same
    // batch — the core bit-identity guarantee.
    const CliResult local =
        runCli("client --local --batch " + batch.string() +
               " --results-only");
    ASSERT_EQ(local.exitCode, 0) << local.output;
    EXPECT_EQ(pass1.output, local.output);

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeDaemon, ClosedConnectionsGiveBackTheirDescriptors)
{
    // With 40 descriptors, keeping every closed client's fd stopped
    // the daemon from answering after about 34 connections.
    const fs::path dir = scratchDir("reap");
    Daemon daemon;
    daemon.fdLimit = 40;
    ASSERT_TRUE(daemon.start(dir));
    const std::size_t fds = fdCount(daemon.pid);

    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(pingOnce(daemon.sock)) << "connection " << i;
    EXPECT_TRUE(fdCountSettlesAt(daemon.pid, fds))
        << fdCount(daemon.pid) << " fds open, " << fds << " before";

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeDaemon, RunningOutOfDescriptorsNeitherSpinsNorWedges)
{
    // At 16 descriptors or fewer the connection cap is one client, and
    // with one descriptor to spare that client fills the table, so
    // accept() fails with EMFILE: while the others wait to be accepted
    // the daemon must sleep, not poll straight back into EMFILE, and
    // once they close it must answer again.
    const fs::path dir = scratchDir("emfile");
    Daemon daemon;
    daemon.fdLimit = 16;
    ASSERT_TRUE(daemon.start(dir));
    const rlim_t spare = fdCount(daemon.pid) + 1;
    ASSERT_LE(spare, daemon.fdLimit);
    const rlimit limit{spare, spare};
    ASSERT_EQ(::prlimit(daemon.pid, RLIMIT_NOFILE, &limit, nullptr), 0)
        << std::strerror(errno);

    const int served = connectUnix(daemon.sock);
    ASSERT_TRUE(sendLine(served, "{\"type\": \"ping\"}"));
    std::string line;
    ASSERT_EQ(LineReader(served).next(&line), LineReader::Status::Line);
    EXPECT_NE(line.find("\"pong\""), std::string::npos) << line;
    std::vector<int> clients{served};
    for (int i = 0; i < 4; ++i) {
        const int fd = connectUnix(daemon.sock);
        ASSERT_TRUE(sendLine(fd, "{\"type\": \"ping\"}"));
        clients.push_back(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const double starved = cpuSeconds(daemon.pid);
    std::this_thread::sleep_for(std::chrono::seconds(1));
    EXPECT_LT(cpuSeconds(daemon.pid) - starved, 0.2)
        << "the acceptor spins while out of descriptors";
    EXPECT_NE(slurp(dir / "serve.log").find("backing off"),
              std::string::npos)
        << "accept never ran out of descriptors";

    for (int fd : clients)
        ::close(fd);
    EXPECT_TRUE(pingOnce(daemon.sock))
        << "no reply once the clients closed";
    const double idle = cpuSeconds(daemon.pid);
    std::this_thread::sleep_for(std::chrono::seconds(1));
    EXPECT_LT(cpuSeconds(daemon.pid) - idle, 0.2);

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeDaemon, ClientThatStopsReadingCannotWedgeTheExecutors)
{
    // Client A submits cheap misses whose replies overflow its socket
    // buffer, and never reads. Without a send timeout both executors
    // block for good in A's writes and every other client's miss waits
    // behind them.
    const fs::path dir = scratchDir("stalled_reader");
    Daemon daemon;
    ASSERT_TRUE(daemon.start(dir));
    const std::size_t fds = fdCount(daemon.pid);

    const int a = connectUnix(daemon.sock);
    std::string flood = "{\"type\": \"batch\", \"id\": \"a\", \"items\": [";
    for (int i = 0; i < 2000; ++i) {
        flood += i ? ", " : "";
        flood += "{\"kind\": \"oracle_cell\", \"bench_a\": \"mcf\", "
                 "\"bench_b\": \"lbm\", \"cycles_per_pair\": " +
                 std::to_string(100 + i) + "}";
    }
    ASSERT_TRUE(sendLine(a, flood + "]}"));
    // Once A's replies stop arriving, the daemon is stuck writing to A.
    int pending = 0, last = -1;
    for (int i = 0; i < 100 && (pending <= 0 || pending != last); ++i) {
        last = pending;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ::ioctl(a, FIONREAD, &pending);
    }

    // Client B's miss must be answered within the daemon's 3 s send
    // timeout plus slack, resubmitted while the queue is busy.
    const int b = connectUnix(daemon.sock);
    const timeval slack{15, 0};
    ::setsockopt(b, SOL_SOCKET, SO_RCVTIMEO, &slack, sizeof(slack));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    LineReader reader(b);
    std::string line;
    bool served = false;
    while (!served && std::chrono::steady_clock::now() < deadline) {
        ASSERT_TRUE(sendLine(
            b, "{\"type\": \"batch\", \"id\": \"b\", \"items\": "
               "[{\"kind\": \"oracle_cell\", \"bench_a\": \"hmmer\", "
               "\"bench_b\": \"milc\", \"cycles_per_pair\": 100}]}"));
        while (reader.next(&line) == LineReader::Status::Line &&
               line.find("\"batch_done\"") == std::string::npos)
            served |= line.find("\"type\": \"result\"") !=
                      std::string::npos;
        if (!served)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::close(b);
    if (!served) {
        ::close(a);
        ::kill(daemon.pid, SIGKILL); // a wedged daemon cannot drain
        FAIL() << "client B's miss got no result while A stopped reading";
    }

    // The daemon gave A up: its descriptor is gone while A still holds
    // its end open.
    EXPECT_TRUE(fdCountSettlesAt(daemon.pid, fds, 15))
        << fdCount(daemon.pid) << " fds open, " << fds << " before";
    EXPECT_EQ(daemon.terminate(), 0);
    ::close(a);
}

TEST(ServeDaemon, QueuedItemsOfAClientThatWasGivenUpAreSkipped)
{
    // Client A queues 64 slow misses and leaves. Once a send to A has
    // failed, the executors must skip A's queued items rather than
    // compute results nobody reads while client B's miss waits behind
    // them.
    const fs::path dir = scratchDir("given_up");
    Daemon daemon;
    ASSERT_TRUE(daemon.start(dir));

    const int a = connectUnix(daemon.sock);
    std::string batch = "{\"type\": \"batch\", \"id\": \"a\", \"items\": [";
    for (int i = 0; i < 64; ++i) {
        batch += i ? ", " : "";
        batch += "{\"kind\": \"oracle_cell\", \"bench_a\": \"mcf\", "
                 "\"bench_b\": \"lbm\", \"cycles_per_pair\": 1000000, "
                 "\"oracle_seed\": " +
            std::to_string(1000 + i) + "}";
    }
    ASSERT_TRUE(sendLine(a, batch + "]}"));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    const int b = connectUnix(daemon.sock);
    LineReader reader(b);
    std::string line;
    auto insertions = [&] {
        EXPECT_TRUE(sendLine(b, "{\"type\": \"stats\"}"));
        EXPECT_EQ(reader.next(&line), LineReader::Status::Line);
        const Json stats = Json::parse(line);
        const Json *n = stats.find("cache_insertions");
        EXPECT_TRUE(n && n->isUint()) << line;
        return n && n->isUint() ? n->asUint64() : 0;
    };
    const std::uint64_t before = insertions();
    ::close(a);

    // B's miss is queued behind all of A's items, so by the time its
    // result arrives every one of them has left the queue.
    ASSERT_TRUE(sendLine(
        b, "{\"type\": \"batch\", \"id\": \"b\", \"items\": "
           "[{\"kind\": \"oracle_cell\", \"bench_a\": \"hmmer\", "
           "\"bench_b\": \"milc\", \"cycles_per_pair\": 20000}]}"));
    bool served = false;
    while (reader.next(&line) == LineReader::Status::Line &&
           line.find("\"batch_done\"") == std::string::npos)
        served |= line.find("\"type\": \"result\"") != std::string::npos;
    ASSERT_TRUE(served) << line;

    // Computed after A left: the items the two executors were running
    // then (and any finishing while A closed), plus B's.
    const std::uint64_t after = insertions();
    EXPECT_LE(after - before, 2u + 2u + 1u)
        << "of A's 64 items, " << after - before - 1
        << " were computed after A left";
    ::close(b);
    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeDaemon, ConnectionCapAnswersEveryClientBeforeDescriptorsRunOut)
{
    // 45 clients at once against 40 descriptors: the daemon must stop
    // taking connections while it still has descriptors to spare, and
    // tell each client it turns away to retry, never leave it waiting.
    const fs::path dir = scratchDir("conn_cap");
    Daemon daemon;
    daemon.fdLimit = 40;
    ASSERT_TRUE(daemon.start(dir));
    const std::size_t fds = fdCount(daemon.pid);

    std::vector<int> clients;
    for (int i = 0; i < 45; ++i) {
        const int fd = connectUnix(daemon.sock);
        // Fails if the cap has already answered this client and closed.
        sendLine(fd, "{\"type\": \"ping\"}");
        clients.push_back(fd);
    }
    // One deadline for all the replies.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::size_t pongs = 0, busy = 0;
    for (std::size_t i = 0; i < clients.size(); ++i) {
        const auto left = std::max<std::chrono::microseconds::rep>(
            1000, std::chrono::duration_cast<std::chrono::microseconds>(
                      deadline - std::chrono::steady_clock::now())
                      .count());
        const timeval tv{static_cast<time_t>(left / 1'000'000),
                         static_cast<suseconds_t>(left % 1'000'000)};
        ::setsockopt(clients[i], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        std::string line;
        if (LineReader(clients[i]).next(&line) != LineReader::Status::Line) {
            ADD_FAILURE() << "client " << i << " got no reply";
            continue;
        }
        const Json reply = Json::parse(line);
        const Json *type = reply.find("type");
        const Json *code = reply.find("code");
        const Json *retryable = reply.find("retryable");
        if (type && type->isString() && type->asString() == "pong") {
            ++pongs;
        } else if (code && code->isString() && code->asString() == "busy" &&
                   retryable && retryable->isBool() &&
                   retryable->asBool()) {
            ++busy;
        } else {
            ADD_FAILURE() << "client " << i << " got " << line;
        }
    }
    EXPECT_GT(pongs, 0u);
    EXPECT_GT(busy, 0u) << "45 clients cannot all hold one of 40 fds";

    // While the served clients hold the cap, `vsmooth client` is turned
    // away too: it prints the busy line and exits 3, retryable.
    const fs::path batch = dir / "batch.json";
    std::ofstream(batch) << "[{\"kind\": \"summary\", "
                            "\"config\": {\"seed\": 7, \"cycles\": 2000}}]\n";
    const CliResult turnedAway =
        runCli("client --socket " + daemon.sock + " --batch " +
               batch.string());
    EXPECT_EQ(turnedAway.exitCode, 3) << turnedAway.output;
    EXPECT_NE(turnedAway.output.find("\"busy\""), std::string::npos)
        << turnedAway.output;
    EXPECT_EQ(runCli("client --socket " + daemon.sock + " --stats").exitCode,
              3);
    for (int fd : clients)
        ::close(fd);

    const std::string log = slurp(dir / "serve.log");
    EXPECT_EQ(log.find("backing off"), std::string::npos) << log;
    // Once the clients' descriptors are back, the daemon answers again.
    EXPECT_TRUE(fdCountSettlesAt(daemon.pid, fds))
        << fdCount(daemon.pid) << " fds open, " << fds << " before";
    EXPECT_TRUE(pingOnce(daemon.sock));
    EXPECT_EQ(daemon.terminate(), 0);
}
