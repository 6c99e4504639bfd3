#include "oracle_matrix.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string_view>

#include "common/fsio.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "cpu/fast_core.hh"
#include "sim/lane_group.hh"
#include "workload/microbench.hh"

namespace vsmooth::sched {

namespace {

constexpr std::string_view kFormat = "vsmooth-oracle-matrix 1";
/** Sanity cap on the margin count a file may declare. */
constexpr std::uint64_t kMaxMargins = 4096;

/** Whitespace-separated fields of one line, read strictly. */
class Fields
{
  public:
    explicit Fields(std::string_view line) : rest_(line) {}

    /** The next field, or an empty view when none is left. */
    std::string_view
    word()
    {
        const auto begin = rest_.find_first_not_of(' ');
        if (begin == std::string_view::npos)
            return {};
        rest_.remove_prefix(begin);
        const auto end = std::min(rest_.find(' '), rest_.size());
        const auto w = rest_.substr(0, end);
        rest_.remove_prefix(end);
        return w;
    }

    /** The next field as an unsigned integer, all of it digits. */
    bool
    next(std::uint64_t &v, int base = 10)
    {
        const auto w = word();
        const auto [end, ec] =
            std::from_chars(w.data(), w.data() + w.size(), v, base);
        return !w.empty() && ec == std::errc() && end == w.data() + w.size();
    }

    /** The next field as a double's bit pattern (hex). */
    bool
    next(double &v)
    {
        std::uint64_t bits = 0;
        if (!next(bits, 16))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }

    bool done() { return word().empty(); }

  private:
    std::string_view rest_;
};

void
writeField(std::ostream &os, std::uint64_t v, int base = 10)
{
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof(buf), v, base).ptr;
    os << ' ' << std::string_view(buf, static_cast<std::size_t>(end - buf));
}

void
writeField(std::ostream &os, double v)
{
    writeField(os, std::bit_cast<std::uint64_t>(v), 16);
}

/** Create `dir` (0700) if missing; true when it is safe to share a
 *  cache through: a real directory owned by this user, owner rwx, no
 *  group or other write permission. */
bool
usableCacheDir(const std::filesystem::path &dir)
{
    if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST)
        return false;
    struct stat st;
    if (::lstat(dir.c_str(), &st) != 0)
        return false;
    return S_ISDIR(st.st_mode) && st.st_uid == ::geteuid() &&
        (st.st_mode & S_IRWXU) == S_IRWXU &&
        (st.st_mode & (S_IWGRP | S_IWOTH)) == 0;
}

} // namespace

OracleMatrix::OracleMatrix(
    const std::vector<workload::SpecBenchmark> &suite,
    const OracleConfig &cfg, Unmeasured)
    : suite_(suite), cfg_(cfg), n_(suite.size())
{
    if (n_ == 0)
        fatal("OracleMatrix: empty suite");
    pairs_.resize(n_ * (n_ + 1) / 2);
    singles_.resize(n_);
}

OracleMatrix::OracleMatrix(
    const std::vector<workload::SpecBenchmark> &suite,
    const OracleConfig &cfg)
    : OracleMatrix(suite, cfg, Unmeasured{})
{
    // Every measurement is an independent simulation whose seed
    // derives from (i, j) alone, so the matrix can be built in
    // parallel: each task writes its precomputed triangular slot and
    // the result is bit-identical for any job count.
    struct Task
    {
        std::size_t i, j;
        bool idleSecond;
        PairProfile *out;
    };
    std::vector<Task> tasks;
    tasks.reserve(singles_.size() + pairs_.size());
    for (std::size_t i = 0; i < n_; ++i)
        tasks.push_back({i, i, true, &singles_[i]});
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = i; j < n_; ++j) {
            tasks.push_back(
                {i, j, false, &pairs_[i * n_ - i * (i + 1) / 2 + j]});
        }
    }

    // Two levels of parallelism: worker threads over groups of K
    // measurements, and within each worker a LaneGroup stepping its K
    // independent simulations through one SIMD kernel in lockstep.
    // Group boundaries derive from the task index alone, and every
    // laned run is bit-identical to a solo measure(), so the matrix is
    // unchanged for any job count and any lane width.
    const std::size_t lanes = simd::defaultLaneWidth();
    const std::size_t nGroups = (tasks.size() + lanes - 1) / lanes;
    parallelFor(0, nGroups, [&](std::size_t g) {
        const std::size_t begin = g * lanes;
        const std::size_t end =
            std::min(tasks.size(), begin + lanes);
        std::vector<sim::System> systems;
        systems.reserve(end - begin);
        std::vector<sim::LanePlan> plans;
        plans.reserve(end - begin);
        for (std::size_t t = begin; t < end; ++t) {
            const Task &task = tasks[t];
            systems.push_back(
                buildMeasure(task.i, task.j, task.idleSecond));
            sim::LanePlan plan;
            plan.system = &systems.back();
            plan.cycles = cfg_.cyclesPerPair;
            plans.push_back(plan);
        }
        sim::LaneGroup group(lanes);
        group.run(plans);
        for (std::size_t t = begin; t < end; ++t) {
            const Task &task = tasks[t];
            *task.out = profileFrom(systems[t - begin], task.i,
                                    task.j, task.idleSecond);
        }
    });
}

OracleMatrix
OracleMatrix::cached(const std::vector<workload::SpecBenchmark> &suite,
                     const OracleConfig &cfg, const std::string &file,
                     const std::string &key, CacheOutcome *outcome)
{
    auto report = [&](CacheOutcome o) {
        if (outcome)
            *outcome = o;
    };
    if (!usableCacheDir(std::filesystem::path(file).parent_path())) {
        report(CacheOutcome::Unusable);
        return OracleMatrix(suite, cfg);
    }
    if (std::ifstream in(file, std::ios::binary); in) {
        if (auto loaded = load(in, suite, cfg, key)) {
            report(CacheOutcome::Hit);
            return std::move(*loaded);
        }
    }
    OracleMatrix built(suite, cfg);
    const bool saved = writeFileAtomic(
        file, [&](std::ostream &os) { return built.save(os, key); });
    report(saved ? CacheOutcome::Miss : CacheOutcome::Unusable);
    return built;
}

bool
OracleMatrix::save(std::ostream &os, const std::string &key) const
{
    // All profiles watch the same margins (one SystemConfig), so the
    // margins go out once; anything else is not a matrix we can save.
    const auto &margins = singles_.front().emergencies.margins;
    auto sameMargins = [&](const PairProfile &p) {
        return p.emergencies.margins == margins &&
            p.emergencies.counts.size() == margins.size();
    };
    if (!std::all_of(singles_.begin(), singles_.end(), sameMargins) ||
        !std::all_of(pairs_.begin(), pairs_.end(), sameMargins))
        return false;

    os << kFormat << "\nkey " << key << "\nsuite";
    writeField(os, n_);
    os << " profiles";
    writeField(os, singles_.size() + pairs_.size());
    os << " margins";
    writeField(os, margins.size());
    os << "\n";
    for (double m : margins)
        writeField(os, m);
    os << "\n";
    // Singles first, then the upper triangle row-major: load() reads
    // them back in the same order.
    auto writeProfile = [&](const PairProfile &p) {
        writeField(os, p.droopsPer1k);
        writeField(os, p.ipc);
        writeField(os, p.emergencies.cycles);
        for (std::uint64_t c : p.emergencies.counts)
            writeField(os, c);
        os << "\n";
    };
    for (const auto &p : singles_)
        writeProfile(p);
    for (const auto &p : pairs_)
        writeProfile(p);
    os << "end\n";
    return os.good();
}

std::optional<OracleMatrix>
OracleMatrix::load(std::istream &is,
                   const std::vector<workload::SpecBenchmark> &suite,
                   const OracleConfig &cfg, const std::string &key)
{
    OracleMatrix m(suite, cfg, Unmeasured{});
    std::string line;
    auto nextLine = [&] { return static_cast<bool>(std::getline(is, line)); };
    if (!nextLine() || line != kFormat)
        return std::nullopt;
    if (!nextLine() || line != "key " + key)
        return std::nullopt;

    std::uint64_t n = 0, profiles = 0, nMargins = 0;
    if (!nextLine())
        return std::nullopt;
    Fields header(line);
    if (header.word() != "suite" || !header.next(n) ||
        header.word() != "profiles" || !header.next(profiles) ||
        header.word() != "margins" || !header.next(nMargins) ||
        !header.done() || n != m.n_ ||
        profiles != m.singles_.size() + m.pairs_.size() ||
        nMargins == 0 || nMargins > kMaxMargins)
        return std::nullopt;

    std::vector<double> margins(nMargins);
    if (!nextLine())
        return std::nullopt;
    Fields marginFields(line);
    for (double &v : margins)
        if (!marginFields.next(v))
            return std::nullopt;
    if (!marginFields.done())
        return std::nullopt;

    auto readProfile = [&](PairProfile &p) {
        if (!nextLine())
            return false;
        Fields f(line);
        p.emergencies.margins = margins;
        p.emergencies.counts.resize(nMargins);
        if (!f.next(p.droopsPer1k) || !f.next(p.ipc) ||
            !f.next(p.emergencies.cycles))
            return false;
        for (auto &c : p.emergencies.counts)
            if (!f.next(c))
                return false;
        return f.done();
    };
    for (auto &p : m.singles_)
        if (!readProfile(p))
            return std::nullopt;
    for (auto &p : m.pairs_)
        if (!readProfile(p))
            return std::nullopt;
    // The end marker, then nothing: a file cut anywhere before it, or
    // holding anything after it, is not this matrix.
    if (!nextLine() || line != "end" ||
        is.peek() != std::istream::traits_type::eof())
        return std::nullopt;
    return m;
}

const PairProfile &
OracleMatrix::pair(std::size_t i, std::size_t j) const
{
    if (i >= n_ || j >= n_)
        panic("OracleMatrix::pair: index out of range");
    if (i > j)
        std::swap(i, j);
    return pairs_[i * n_ - i * (i + 1) / 2 + j];
}

PairProfile
OracleMatrix::measure(std::size_t i, std::size_t j, bool idleSecond) const
{
    sim::System sys = buildMeasure(i, j, idleSecond);
    sys.run(cfg_.cyclesPerPair);
    return profileFrom(sys, i, j, idleSecond);
}

sim::System
OracleMatrix::buildMeasure(std::size_t i, std::size_t j,
                           bool idleSecond) const
{
    sim::SystemConfig sys_cfg = cfg_.system;
    sys_cfg.osTickInterval = sim::kCompressedOsTick;
    sim::System sys(sys_cfg);
    // Deterministic but distinct seeds per pair and core.
    const std::uint64_t base =
        cfg_.seed + 1000003ULL * (i * n_ + j) + (idleSecond ? 7 : 0);

    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(suite_[i], cfg_.cyclesPerPair, true),
        base + 1));
    if (idleSecond) {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::idleSchedule(1000), base + 2));
    } else {
        // An aligned self-pair reuses the first core's seed: identical
        // schedule + identical seed = lockstep streams whose current
        // transients stack in the same cycle.
        const bool aligned = cfg_.alignedSelfPairs && i == j;
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::scheduleFor(suite_[j], cfg_.cyclesPerPair, true),
            aligned ? base + 1 : base + 2));
    }
    return sys;
}

PairProfile
OracleMatrix::profileFrom(sim::System &sys, std::size_t i,
                          std::size_t j, bool idleSecond) const
{
    PairProfile profile;
    profile.droopsPer1k =
        1000.0 * sys.scope().fractionBelow(-cfg_.droopMargin);
    profile.ipc = sys.core(0).counters().ipc() +
        (idleSecond ? 0.0 : sys.core(1).counters().ipc());
    if (!idleSecond) {
        // Shared-L2 / memory-bandwidth contention, modeled at the
        // profile level: two memory-bound programs slow each other
        // down. This is the effect the paper's IPC (cache-aware)
        // scheduling policy exploits.
        const double contention = 0.25 * suite_[i].memoryBoundness *
            suite_[j].memoryBoundness;
        profile.ipc *= 1.0 - contention;
    }
    profile.emergencies =
        resilience::profileFromBank(sys.droopBank(), sys.cycles());
    return profile;
}

} // namespace vsmooth::sched
