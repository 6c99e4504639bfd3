#include "serve_session.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <thread>

#include "common/json.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "serve/batch.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "stats.hh"
#include "trace.hh"
#include "workload/spec_suite.hh"

namespace perfbench {

namespace fs = std::filesystem;
using vsmooth::Json;

namespace {

/** Daemon executor threads (`vsmooth serve --workers`) and the closed
 *  loop's connections, each with one single-item batch in flight. */
constexpr const char *kWorkers = "2";
constexpr std::size_t kConnections = 2;

} // namespace

ServeSchedule
makeServeSchedule(std::uint64_t seed, std::size_t distinct)
{
    const auto &suite = vsmooth::workload::specCpu2006();
    ServeSchedule s;
    for (double decap : {1.0, 0.03}) {
        for (std::size_t i = 0; i < suite.size(); ++i) {
            for (std::size_t j = i; j < suite.size(); ++j) {
                ServeItem item;
                item.benchA = suite[i].name;
                item.benchB = suite[j].name;
                item.decap = decap;
                Json j2 = Json::object();
                j2.set("kind", "oracle_cell");
                j2.set("bench_a", item.benchA);
                j2.set("bench_b", item.benchB);
                j2.set("decap_fraction", decap);
                item.json = j2.dump();
                s.items.push_back(std::move(item));
            }
        }
    }
    vsmooth::Rng rng(seed);
    std::shuffle(s.items.begin(), s.items.end(), rng);
    s.items.resize(std::min(distinct, s.items.size()));

    // One miss then three hits per cell. A hit re-requests a cell
    // introduced at least kLag misses earlier, so it rarely has to
    // wait for its miss; the first kLag misses' hits go at the end.
    constexpr std::size_t kHitsPerMiss = 3;
    constexpr std::size_t kLag = 8;
    std::vector<std::size_t> missSlot(s.items.size());
    auto addHit = [&](std::size_t upTo) {
        const std::size_t item = rng.uniformInt(0, upTo);
        s.slots.push_back({item, true, missSlot[item]});
        ++s.plannedHits;
    };
    for (std::size_t k = 0; k < s.items.size(); ++k) {
        missSlot[k] = s.slots.size();
        s.slots.push_back({k, false, missSlot[k]});
        if (k >= kLag)
            for (std::size_t h = 0; h < kHitsPerMiss; ++h)
                addHit(k - kLag);
    }
    const std::size_t deficit =
        kHitsPerMiss * std::min(kLag, s.items.size());
    for (std::size_t h = 0; h < deficit; ++h)
        addHit(s.items.size() - 1);
    return s;
}

Reference
computeReference(const ServeItem &item)
{
    vsmooth::serve::BatchItem parsed;
    std::string error;
    if (!vsmooth::serve::BatchItem::fromJson(Json::parse(item.json),
                                             parsed, &error)) {
        std::cerr << "perfbench: bad schedule item: " << error << "\n";
        std::exit(2);
    }
    return {vsmooth::serve::serializeResult(
                vsmooth::serve::runBatchItem(parsed)),
            vsmooth::serve::fnv1aHex(parsed.canonicalKey())};
}

std::string
checkResultLine(const std::string &line, const Reference &ref)
{
    static const std::string kHead = "{\"type\": \"result\"";
    if (line.compare(0, kHead.size(), kHead) != 0)
        return "not a result: " + line.substr(0, 160);
    const std::string hashKey = "\"config_hash\": \"";
    const std::size_t h = line.find(hashKey);
    if (h == std::string::npos)
        return "no config_hash";
    const std::size_t hashAt = h + hashKey.size();
    if (line.compare(hashAt, ref.configHash.size(), ref.configHash) != 0)
        return "config_hash differs";
    const std::string resKey = "\", \"result\": ";
    const std::size_t payloadAt = hashAt + ref.configHash.size();
    if (line.compare(payloadAt, resKey.size(), resKey) != 0)
        return "malformed envelope";
    const std::size_t begin = payloadAt + resKey.size();
    if (line.size() != begin + ref.payload.size() + 1 ||
        line.back() != '}' ||
        line.compare(begin, ref.payload.size(), ref.payload) != 0)
        return "result bytes differ from the in-process reference";
    return "";
}

namespace {

/** Timestamps and outcome of one sent item. */
struct Record
{
    bool plannedHit = false;
    double send = 0.0;
    double result = 0.0;
    double done = 0.0;
    std::uint64_t rejected = 0;
    std::string line;
};

struct PassResult
{
    bool ok = true;
    std::string failure;
    double setupS = 0.0;
    double wallS = 0.0;
    double rssMb = 0.0;
    std::vector<Record> records;
    std::vector<double> pingUs;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

int
connectUnix(const std::string &dir)
{
    // Connect through a relative path: the checkout's absolute path
    // may exceed sun_path.
    const fs::path cwd = fs::current_path();
    fs::current_path(dir);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, "sock", sizeof(addr.sun_path) - 1);
    const bool ok = fd >= 0 &&
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0;
    fs::current_path(cwd);
    if (!ok) {
        if (fd >= 0)
            ::close(fd);
        return -1;
    }
    return fd;
}

pid_t
spawnDaemon(const SessionOptions &opt, const std::string &dir)
{
    // Everything the child needs is built before fork: between fork and
    // exec it only makes async-signal-safe calls.
    const char *argv[] = {opt.vsmooth.c_str(), "serve", "--socket", "sock",
                          "--workers", kWorkers, "--ready-file", "ready",
                          nullptr};
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    if (::chdir(dir.c_str()) != 0)
        ::_exit(127);
    const int log = ::open("daemon.log", O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
        ::close(log);
    }
    ::execv(opt.vsmooth.c_str(), const_cast<char *const *>(argv));
    ::_exit(127);
}

/**
 * Response reader that spins briefly before it blocks. A hit's reply
 * arrives within tens of microseconds; waking a blocked client thread
 * costs about as much on a virtual CPU and varies with host load, and
 * that would be the benchmark's latency, not the daemon's. After
 * kSpinSeconds (a miss computes for milliseconds) it blocks in poll.
 */
class ReplyReader
{
  public:
    explicit ReplyReader(int fd) : fd_(fd) {}

    /** Next response line; false on EOF, error or a 60 s silence. */
    bool
    next(std::string *line)
    {
        for (;;) {
            const std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                line->assign(buf_, 0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            const double spinUntil = nowSec() + kSpinSeconds;
            ssize_t n;
            while ((n = ::recv(fd_, chunk_, sizeof(chunk_), MSG_DONTWAIT)) <
                   0) {
                if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
                    return false;
                pollfd p{fd_, POLLIN, 0};
                if (nowSec() > spinUntil && ::poll(&p, 1, 60'000) == 0)
                    return false;
            }
            if (n == 0)
                return false;
            buf_.append(chunk_, static_cast<std::size_t>(n));
        }
    }

  private:
    static constexpr double kSpinSeconds = 200e-6;
    int fd_;
    std::string buf_;
    char chunk_[1 << 16];
};

std::uint64_t
fieldUint(const std::string &line, const std::string &key)
{
    // Hand-built envelopes put a space after the colon; Json::dump
    // replies (stats, batch_done) do not. strtoull skips the space.
    const std::string k = "\"" + key + "\":";
    const std::size_t at = line.find(k);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + at + k.size(), nullptr, 10);
}

/** One closed-loop connection draining the shared schedule. */
struct LoopShared
{
    const ServeSchedule *schedule;
    std::vector<Record> *records;
    std::mutex m;
    std::condition_variable cv;
    std::size_t next = 0;
    std::vector<char> acked; ///< per slot: batch_done received
    bool abort = false;
    std::string failure;
};

void
connectionLoop(LoopShared &sh, int fd, std::size_t pass)
{
    ReplyReader reader(fd);
    std::string line;
    for (;;) {
        std::size_t slot;
        {
            std::unique_lock lk(sh.m);
            if (sh.abort || sh.next >= sh.schedule->slots.size())
                return;
            slot = sh.next++;
            const ScheduleSlot &s = sh.schedule->slots[slot];
            if (s.hit)
                sh.cv.wait(lk, [&] {
                    return sh.abort || sh.acked[s.missSlot];
                });
            if (sh.abort)
                return;
        }
        const ScheduleSlot &s = sh.schedule->slots[slot];
        Record &rec = (*sh.records)[slot];
        rec.plannedHit = s.hit;
        std::string req = "{\"type\": \"batch\", \"id\": \"p";
        req += std::to_string(pass);
        req += "-";
        req += std::to_string(slot);
        req += "\", \"items\": [";
        req += sh.schedule->items[s.item].json;
        req += "]}";

        rec.send = nowSec();
        bool ok = vsmooth::serve::sendLine(fd, req) &&
                  reader.next(&rec.line);
        rec.result = nowSec();
        if (ok) {
            ok = reader.next(&line) &&
                 line.find("\"batch_done\"") != std::string::npos;
            rec.rejected = ok ? fieldUint(line, "rejected") : 0;
        }
        rec.done = nowSec();
        std::lock_guard lk(sh.m);
        sh.acked[slot] = 1;
        if (!ok) {
            sh.abort = true;
            sh.failure = "connection lost or timed out at slot " +
                         std::to_string(slot);
        }
        sh.cv.notify_all();
    }
}

PassResult
runPass(const SessionOptions &opt, const ServeSchedule &schedule,
        std::size_t pass, Tracer &tracer)
{
    PassResult out;
    const double t0 = nowSec();
    const std::string dir =
        (fs::absolute(opt.workDir) /
         ("serve-" + std::to_string(::getpid()) + "-" +
          std::to_string(pass)))
            .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    const pid_t pid = spawnDaemon(opt, dir);
    auto fail = [&](std::string why) {
        out.ok = false;
        out.failure = std::move(why);
    };

    // Ready when the daemon has written its ready file.
    bool ready = false;
    while (nowSec() - t0 < 30.0) {
        if (fs::exists(dir + "/ready")) {
            ready = true;
            break;
        }
        int status;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            fail("daemon exited before it was ready");
            fs::remove_all(dir);
            return out;
        }
        ::usleep(200);
    }
    std::vector<int> fds;
    if (ready) {
        for (std::size_t c = 0; c < kConnections; ++c) {
            const int fd = connectUnix(dir);
            if (fd < 0)
                break;
            fds.push_back(fd);
        }
    }
    const double tReady = nowSec();
    out.setupS = tReady - t0;
    if (!ready || fds.size() != kConnections) {
        fail("daemon not reachable");
    } else {
        out.records.resize(schedule.slots.size());
        LoopShared sh;
        sh.schedule = &schedule;
        sh.records = &out.records;
        sh.acked.assign(schedule.slots.size(), 0);
        const double tStart = nowSec();
        std::vector<std::thread> loops;
        for (int fd : fds)
            loops.emplace_back([&, fd] { connectionLoop(sh, fd, pass); });
        for (auto &t : loops)
            t.join();
        out.wallS = nowSec() - tStart;
        if (sh.abort)
            fail(sh.failure);

        ReplyReader reader(fds[0]);
        std::string line;
        if (tracer.on() && out.ok) {
            for (int k = 0; k < 200; ++k) {
                const double s = nowSec();
                if (!vsmooth::serve::sendLine(fds[0],
                                              "{\"type\": \"ping\"}") ||
                    !reader.next(&line))
                    break;
                out.pingUs.push_back((nowSec() - s) * 1e6);
            }
            if (vsmooth::serve::sendLine(fds[0], "{\"type\": \"stats\"}") &&
                reader.next(&line)) {
                out.cacheHits = fieldUint(line, "cache_hits");
                out.cacheMisses = fieldUint(line, "cache_misses");
            }
        }
        vsmooth::serve::sendLine(fds[0], "{\"type\": \"shutdown\"}");
        reader.next(&line);
    }
    for (int fd : fds)
        ::close(fd);

    // The daemon drains and exits 0 on shutdown; anything else (or a
    // hang) is a failure. Its rusage gives the peak RSS.
    int status = 0;
    rusage ru{};
    pid_t got = 0;
    const double tWait = nowSec();
    while ((got = ::wait4(pid, &status, WNOHANG, &ru)) == 0 &&
           nowSec() - tWait < 20.0)
        ::usleep(1000);
    if (got != pid) {
        ::kill(pid, SIGKILL);
        ::wait4(pid, &status, 0, &ru);
        fail("daemon did not exit after shutdown");
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        fail("daemon exited with status " + std::to_string(status));
    }
    out.rssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    if (tracer.on()) {
        const std::uint64_t passSpan =
            tracer.add("serve.pass", 0, 0, t0, nowSec());
        tracer.add("serve.setup", passSpan, 0, t0, tReady);
        for (std::size_t i = 0; i < out.records.size(); ++i) {
            const Record &r = out.records[i];
            const std::uint64_t req = pass * 1'000'000 + i + 1;
            const std::uint64_t top = tracer.add(
                r.plannedHit ? "serve.request.hit" : "serve.request.miss",
                passSpan, req, r.send, r.done);
            tracer.add("serve.result", top, req, r.send, r.result);
            tracer.add("serve.ack", top, req, r.result, r.done);
        }
    }
    fs::remove_all(dir);
    return out;
}

} // namespace

int
runServeSession(const SessionOptions &opt)
{
    const ServeSchedule schedule =
        makeServeSchedule(opt.seed, opt.distinct);
    Tracer tracer(!opt.traceOut.empty());

    // Extra cold starts (spawn, ready, connect, shutdown; no items) so
    // setup_s is a median over many daemon starts, not a handful.
    constexpr std::size_t kColdStarts = 8;
    std::vector<double> setup;
    std::uint64_t coldFailures = 0;
    {
        const ServeSchedule none;
        Tracer off(false);
        for (std::size_t k = 0; k < kColdStarts; ++k) {
            const PassResult p = runPass(opt, none, 1000 + k, off);
            setup.push_back(p.setupS);
            coldFailures += !p.ok;
        }
    }

    std::vector<PassResult> passes;
    const double begin = nowSec();
    do {
        passes.push_back(runPass(opt, schedule, passes.size(), tracer));
        if (!passes.back().ok)
            break;
    } while (nowSec() - begin + passes.back().wallS +
                 passes.back().setupS <=
             opt.seconds);

    // Correctness, outside every timed region: each item's response
    // must carry exactly the bytes the benchmark process computes.
    std::uint64_t attempted = kColdStarts;
    std::uint64_t failed = coldFailures;
    std::uint64_t rejected = 0;
    std::vector<std::string> reasons;
    std::vector<char> needed(schedule.items.size(), 0);
    for (const auto &p : passes)
        for (std::size_t i = 0; i < p.records.size(); ++i)
            if (p.records[i].send > 0.0)
                needed[schedule.slots[i].item] = 1;
    std::vector<Reference> refs(schedule.items.size());
    vsmooth::parallelFor(0, schedule.items.size(), [&](std::size_t k) {
        if (needed[k])
            refs[k] = computeReference(schedule.items[k]);
    });
    // Percentiles and rates are taken per pass and reported as the
    // median over passes: host speed drifts over seconds, and one slow
    // pass should not decide a run's tail.
    std::vector<double> pingUs, rss, wall, rate;
    std::vector<double> hitP50, hitP90, missP50, missP90;
    std::uint64_t hitSamples = 0, missSamples = 0;
    std::uint64_t cacheHits = 0, cacheMisses = 0;
    for (const auto &p : passes) {
        setup.push_back(p.setupS);
        rss.push_back(p.rssMb);
        if (!p.ok) {
            ++failed;
            ++attempted;
            reasons.push_back(p.failure);
        }
        wall.push_back(p.wallS);
        if (p.wallS > 0.0)
            rate.push_back(static_cast<double>(p.records.size()) / p.wallS);
        cacheHits += p.cacheHits;
        cacheMisses += p.cacheMisses;
        pingUs.insert(pingUs.end(), p.pingUs.begin(), p.pingUs.end());
        std::vector<double> hitMs, missMs;
        for (std::size_t i = 0; i < p.records.size(); ++i) {
            const Record &r = p.records[i];
            if (r.send == 0.0)
                continue;
            ++attempted;
            rejected += r.rejected;
            const std::string why =
                checkResultLine(r.line, refs[schedule.slots[i].item]);
            if (!why.empty()) {
                ++failed;
                if (reasons.size() < 5)
                    reasons.push_back("slot " + std::to_string(i) + ": " +
                                      why);
                continue;
            }
            (r.plannedHit ? hitMs : missMs)
                .push_back((r.result - r.send) * 1e3);
        }
        hitSamples += hitMs.size();
        missSamples += missMs.size();
        if (!hitMs.empty()) {
            hitP50.push_back(percentile(hitMs, 0.5));
            hitP90.push_back(percentile(hitMs, 0.9));
        }
        if (!missMs.empty()) {
            missP50.push_back(percentile(missMs, 0.5));
            missP90.push_back(percentile(missMs, 0.9));
        }
    }

    Json j = Json::object();
    j.set("passes", Json(static_cast<std::uint64_t>(passes.size())));
    j.set("attempted", Json(attempted));
    j.set("failed", Json(failed));
    Json why = Json::array();
    for (const auto &r : reasons)
        why.push(r);
    j.set("failures", why);
    j.set("setup_s", median(setup));
    j.set("wall_s", median(wall));
    // Each pass's peak over its process (the daemon); median over
    // passes, so allocator-arena jitter in one pass does not decide it.
    j.set("peak_rss_mb", median(rss));
    j.set("items_per_s", median(rate));
    j.set("hit_ms_p50", median(hitP50));
    j.set("hit_ms_p90", median(hitP90));
    j.set("hit_samples", Json(hitSamples));
    j.set("miss_ms_p50", median(missP50));
    j.set("miss_ms_p90", median(missP90));
    j.set("miss_samples", Json(missSamples));
    j.set("planned_hit_ratio",
          static_cast<double>(schedule.plannedHits) /
              static_cast<double>(schedule.slots.size()));
    j.set("rejected", Json(rejected));
    if (tracer.on()) {
        j.set("ping_rtt_us", median(pingUs));
        j.set("cache_hits", Json(cacheHits));
        j.set("cache_misses", Json(cacheMisses));
        j.set("cache_hit_ratio",
              cacheHits + cacheMisses
                  ? static_cast<double>(cacheHits) /
                        static_cast<double>(cacheHits + cacheMisses)
                  : 0.0);
        tracer.write(opt.traceOut);
    }
    std::cout << j.dump() << "\n";
    return 0;
}

int
runServeSelfTest(const SessionOptions &opt)
{
    // A real daemon answers a one-cell schedule; its miss response is
    // then fed through checkResultLine as-is and with one payload byte
    // flipped, and the verdicts are tallied the way the session tallies
    // them.
    const ServeSchedule schedule = makeServeSchedule(opt.seed, 1);
    Tracer tracer(false);
    const PassResult pass = runPass(opt, schedule, 0, tracer);
    if (!pass.ok || pass.records.empty()) {
        std::cout << "{\"ok\": false, \"why\": \"daemon pass failed: "
                  << pass.failure << "\"}\n";
        return 1;
    }
    const Reference ref = computeReference(schedule.items[0]);
    std::string flipped = pass.records[0].line;
    flipped[flipped.size() - 2] ^= 0x01; // last byte of the Result
    std::uint64_t attempted = 0, failed = 0;
    for (const std::string &line : {pass.records[0].line, flipped}) {
        ++attempted;
        failed += !checkResultLine(line, ref).empty();
    }
    const bool ok = attempted == 2 && failed == 1 &&
                    checkResultLine(flipped, ref) != "";
    Json j = Json::object();
    j.set("ok", ok);
    j.set("attempted", Json(attempted));
    j.set("failed", Json(failed));
    j.set("error_rate", static_cast<double>(failed) /
                            static_cast<double>(attempted));
    std::cout << j.dump() << "\n";
    return ok ? 0 : 1;
}

} // namespace perfbench
