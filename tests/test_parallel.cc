/**
 * @file
 * Tests for the deterministic parallel sweep engine: thread-pool
 * semantics (every index exactly once, in-order dynamic claiming, the
 * job-count cap, exception propagation, nested calls), the chunked
 * fold's index order and exception rule, and the repo's core
 * invariant that the job count never changes results (OracleMatrix
 * and merged-histogram populations are bit-identical for jobs=1 vs
 * jobs=4, and a folded population equals the flat merge).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.hh"
#include "common/parallel.hh"
#include "cpu/fast_core.hh"
#include "noise/scope.hh"
#include "sched/oracle_matrix.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;

namespace {

/** Restores the default job count when a test returns. */
struct JobsGuard
{
    ~JobsGuard() { setJobs(0); }
};

std::vector<workload::SpecBenchmark>
smallSuite()
{
    std::vector<workload::SpecBenchmark> suite;
    for (const char *name : {"hmmer", "sphinx", "mcf", "lbm"})
        suite.push_back(workload::specByName(name));
    return suite;
}

sched::OracleMatrix
buildMatrix(std::size_t jobs)
{
    JobsGuard guard;
    setJobs(jobs);
    sched::OracleConfig cfg;
    cfg.cyclesPerPair = 60'000;
    return sched::OracleMatrix(smallSuite(), cfg);
}

void
expectProfilesIdentical(const sched::PairProfile &a,
                        const sched::PairProfile &b)
{
    EXPECT_EQ(a.droopsPer1k, b.droopsPer1k);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.emergencies.margins, b.emergencies.margins);
    EXPECT_EQ(a.emergencies.counts, b.emergencies.counts);
    EXPECT_EQ(a.emergencies.cycles, b.emergencies.cycles);
}

noise::Scope
runScope(std::uint64_t seed, Cycles cycles = 30'000)
{
    sim::SystemConfig cfg;
    cfg.osTickInterval = sim::kCompressedOsTick;
    sim::System sys(cfg);
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName("mcf"), cycles, true),
        seed));
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::idleSchedule(1000), seed + 1));
    sys.run(cycles);
    return sys.scope();
}

} // namespace

TEST(Parallel, EmptyRangeNeverCalls)
{
    std::atomic<int> calls{0};
    parallelFor(5, 5, [&](std::size_t) { ++calls; });
    parallelFor(7, 3, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(Parallel, EveryIndexExactlyOnce)
{
    JobsGuard guard;
    setJobs(4);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    parallelFor(0, kN, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, RangeSmallerThanThreadCount)
{
    JobsGuard guard;
    setJobs(8);
    std::vector<std::atomic<int>> hits(3);
    parallelFor(0, 3, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, ExceptionPropagatesAndPoolSurvives)
{
    JobsGuard guard;
    setJobs(4);
    EXPECT_THROW(
        parallelFor(0, 64,
                    [](std::size_t i) {
                        if (i == 7)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);

    // The pool must be fully usable after a failed sweep.
    std::atomic<int> calls{0};
    parallelFor(0, 16, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 16);
}

TEST(Parallel, LowestChunkExceptionWinsDeterministically)
{
    // Two chunks throw in the same sweep. The pool must drain every
    // in-flight chunk and then rethrow the exception from the
    // lowest-indexed throwing chunk — not whichever thread happened to
    // reach the error slot first. Chunk 3 throws immediately while
    // chunk 1 sleeps first, so a first-arrival policy reliably
    // surfaces "chunk 3"; the deterministic policy must say "chunk 1"
    // on every iteration regardless of scheduling.
    JobsGuard guard;
    setJobs(4);
    for (int iter = 0; iter < 10; ++iter) {
        std::atomic<int> arrived{0};
        std::atomic<int> finished{0};
        std::string caught;
        try {
            parallelFor(0, 4, [&](std::size_t i) {
                // Barrier: every chunk is in flight before any throws,
                // so none of them can be "abandoned undispatched".
                ++arrived;
                while (arrived.load() < 4)
                    std::this_thread::yield();
                if (i == 3)
                    throw std::runtime_error("chunk 3");
                if (i == 1) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    throw std::runtime_error("chunk 1");
                }
                ++finished;
            });
            FAIL() << "sweep did not throw";
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
        EXPECT_EQ(caught, "chunk 1") << "iteration " << iter;
        // Both non-throwing chunks ran to completion before rethrow.
        EXPECT_EQ(finished.load(), 2) << "iteration " << iter;
    }
}

TEST(Parallel, LongIndexDoesNotHoldBackLaterOnes)
{
    // Indices are claimed one at a time, so while index 0 runs the
    // other thread claims every later one. Fixed contiguous chunks
    // would stall here: index 0 would block the rest of its chunk.
    JobsGuard guard;
    setJobs(2);
    constexpr std::size_t kN = 16;
    std::atomic<std::size_t> done{0};
    std::atomic<bool> timedOut{false};
    parallelFor(0, kN, [&](std::size_t i) {
        if (i != 0) {
            ++done;
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (done.load() < kN - 1) {
            if (std::chrono::steady_clock::now() > deadline) {
                timedOut = true;
                return;
            }
            std::this_thread::yield();
        }
    });
    EXPECT_FALSE(timedOut.load())
        << done.load() << " of " << kN - 1
        << " later indices ran while index 0 waited";
}

TEST(Parallel, SurplusWorkersSitOutSmallerJobCount)
{
    // Workers spawned for an earlier, larger job count stay in the
    // pool, but a sweep at setJobs(2) runs at most 2 indices at once.
    JobsGuard guard;
    setJobs(8);
    parallelFor(0, 64, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    setJobs(2);
    std::atomic<int> inFlight{0};
    std::atomic<int> peak{0};
    parallelFor(0, 64, [&](std::size_t) {
        const int now = ++inFlight;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        --inFlight;
    });
    EXPECT_LE(peak.load(), 2);
}

TEST(Parallel, NestedCallsRunInlineWithoutDeadlock)
{
    JobsGuard guard;
    setJobs(4);
    std::atomic<int> inner{0};
    parallelFor(0, 4, [&](std::size_t) {
        parallelFor(0, 8, [&](std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 32);
}

TEST(Parallel, SetJobsOverridesAndRestores)
{
    JobsGuard guard;
    setJobs(3);
    EXPECT_EQ(numJobs(), 3u);
    setJobs(0);
    EXPECT_GE(numJobs(), 1u);
}

TEST(Parallel, ParallelMapPreservesIndexOrder)
{
    JobsGuard guard;
    setJobs(4);
    const auto squares =
        parallelMap<std::size_t>(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 100u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(Parallel, OracleMatrixIdenticalAcrossJobCounts)
{
    const auto serial = buildMatrix(1);
    const auto parallel = buildMatrix(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectProfilesIdentical(serial.single(i), parallel.single(i));
        for (std::size_t j = i; j < serial.size(); ++j)
            expectProfilesIdentical(serial.pair(i, j),
                                    parallel.pair(i, j));
    }
}

TEST(Parallel, MergedHistogramCdfIdenticalAcrossJobCounts)
{
    // The Fig 7/9 aggregation pattern: per-run scopes produced in
    // parallel, merged after the join in index order.
    auto population = [](std::size_t jobs) {
        JobsGuard guard;
        setJobs(jobs);
        const auto scopes = parallelMap<noise::Scope>(
            6, [](std::size_t k) { return runScope(100 + 17 * k); });
        noise::Scope merged;
        for (const auto &s : scopes)
            merged.merge(s);
        return merged;
    };

    const auto serial = population(1);
    const auto parallel = population(4);
    const auto &ha = serial.histogram();
    const auto &hb = parallel.histogram();
    ASSERT_EQ(ha.numBins(), hb.numBins());
    EXPECT_EQ(ha.totalCount(), hb.totalCount());
    EXPECT_EQ(ha.minSample(), hb.minSample());
    EXPECT_EQ(ha.maxSample(), hb.maxSample());
    for (std::size_t i = 0; i < ha.numBins(); ++i)
        EXPECT_EQ(ha.binCount(i), hb.binCount(i)) << "bin " << i;
}

TEST(Parallel, FoldIsIndexOrderedForAnyJobsAndLength)
{
    // Concatenation is associative but not commutative: an index out
    // of order, lost or repeated, or a chunk merged out of order,
    // shows in the folded string. The lengths cover fewer indices than
    // chunks, one index per chunk, and chunks of uneven length.
    auto append = [](std::string &into, const std::string &more) {
        into += more;
    };
    for (std::size_t jobs : {1, 4}) {
        JobsGuard guard;
        setJobs(jobs);
        for (std::size_t n : {0, 1, 3, 64, 65, 203, 1000}) {
            std::string flat;
            for (std::size_t i = 0; i < n; ++i)
                flat += std::to_string(i) + ",";
            std::atomic<std::size_t> calls{0};
            const std::string folded = parallelFold(
                n, std::string(),
                [&](std::size_t begin, std::size_t end,
                    std::string &part) {
                    ++calls;
                    EXPECT_LT(begin, end);
                    for (std::size_t i = begin; i < end; ++i)
                        part += std::to_string(i) + ",";
                },
                append);
            EXPECT_EQ(folded, flat)
                << "jobs " << jobs << ", n " << n;
            EXPECT_EQ(calls.load(), std::min<std::size_t>(n, 64))
                << "jobs " << jobs << ", n " << n;
        }
    }
    EXPECT_EQ(parallelFold(
                  0, std::string("init"),
                  [](std::size_t, std::size_t, std::string &part) {
                      part = "ran";
                  },
                  append),
              "init");
}

TEST(Parallel, FoldRethrowsLowestThrowingChunk)
{
    // Four one-index chunks, all in flight before any throws: chunk 3
    // throws at once and chunk 1 later, and the fold must still
    // surface chunk 1, after both other chunks finished.
    JobsGuard guard;
    setJobs(4);
    auto ignore = [](int &, const int &) {};
    for (int iter = 0; iter < 10; ++iter) {
        std::atomic<int> arrived{0};
        std::atomic<int> finished{0};
        std::string caught;
        try {
            parallelFold(
                4, 0,
                [&](std::size_t begin, std::size_t, int &) {
                    ++arrived;
                    while (arrived.load() < 4)
                        std::this_thread::yield();
                    if (begin == 3)
                        throw std::runtime_error("chunk 3");
                    if (begin == 1) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(20));
                        throw std::runtime_error("chunk 1");
                    }
                    ++finished;
                },
                ignore);
            FAIL() << "fold did not throw";
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
        EXPECT_EQ(caught, "chunk 1") << "iteration " << iter;
        EXPECT_EQ(finished.load(), 2) << "iteration " << iter;
    }

    // No chunk is claimed after a throw.
    setJobs(1);
    std::vector<std::size_t> begins;
    EXPECT_THROW(parallelFold(
                     5, 0,
                     [&](std::size_t begin, std::size_t, int &) {
                         begins.push_back(begin);
                         if (begin == 2)
                             throw std::runtime_error("chunk 2");
                     },
                     ignore),
                 std::runtime_error);
    EXPECT_EQ(begins, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Parallel, FoldedScopesIdenticalToFlatMerge)
{
    // The Fig 7/9 aggregation: each run's scope folds into its
    // chunk's as it finishes, the chunks (two and three runs long
    // here) merge in order, and the histogram is bit-identical to one
    // index-order merge.
    constexpr std::size_t kRuns = 130;
    constexpr Cycles kCycles = 3'000;
    noise::Scope flat;
    for (std::size_t k = 0; k < kRuns; ++k)
        flat.merge(runScope(100 + 17 * k, kCycles));
    const Histogram &hf = flat.histogram();
    for (std::size_t jobs : {1, 4}) {
        JobsGuard guard;
        setJobs(jobs);
        const noise::Scope folded = parallelFold(
            kRuns, noise::Scope(),
            [](std::size_t begin, std::size_t end, noise::Scope &part) {
                for (std::size_t k = begin; k < end; ++k)
                    part.merge(runScope(100 + 17 * k, kCycles));
            },
            [](noise::Scope &into, const noise::Scope &more) {
                into.merge(more);
            });
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const Histogram &h = folded.histogram();
        EXPECT_EQ(h.totalCount(), hf.totalCount());
        EXPECT_EQ(h.underflowCount(), hf.underflowCount());
        EXPECT_EQ(h.overflowCount(), hf.overflowCount());
        EXPECT_EQ(h.minSample(), hf.minSample());
        EXPECT_EQ(h.maxSample(), hf.maxSample());
        for (std::size_t i = 0; i < h.numBins(); ++i)
            ASSERT_EQ(h.binCount(i), hf.binCount(i)) << "bin " << i;
    }
}
