#include "parallel.hh"

#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "argparse.hh"
#include "logging.hh"

namespace vsmooth {

namespace {

/** Set while a thread is executing pool work (workers always; the
 *  caller while it participates). Nested parallelFor calls from such
 *  a thread run serially inline instead of deadlocking on the pool. */
thread_local bool tl_inPool = false;

std::size_t
defaultJobs()
{
    // Accepts exactly what --jobs does; empty means unset.
    if (const char *env = std::getenv("VSMOOTH_JOBS"); env && *env) {
        const auto v = tryParseU64(env);
        if (!v || *v < 1)
            fatal("VSMOOTH_JOBS=%s is invalid; it must be a positive "
                  "integer", env);
        return static_cast<std::size_t>(*v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

constexpr std::size_t kNoChunk = std::numeric_limits<std::size_t>::max();

/**
 * The process-wide pool. Workers are spawned lazily, the first time a
 * parallelFor actually needs them, and then persist. The singleton is
 * intentionally leaked so blocked workers never race static
 * destruction at process exit.
 *
 * One sweep runs at a time (concurrent top-level callers queue on
 * runGate_). A sweep is a generation: task parameters are published
 * under the mutex, workers are woken, and every chunk grab re-checks
 * the generation so a worker that oversleeps a whole sweep can never
 * touch a stale or future task.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        static ThreadPool *pool = new ThreadPool;
        return *pool;
    }

    std::size_t
    jobs()
    {
        std::lock_guard lk(m_);
        return jobs_;
    }

    void
    setJobs(std::size_t n)
    {
        std::lock_guard lk(m_);
        jobs_ = n == 0 ? defaultJobs() : n;
    }

    void
    run(std::size_t begin, std::size_t end,
        const std::function<void(std::size_t)> &fn)
    {
        if (end <= begin)
            return;
        const std::size_t count = end - begin;

        std::unique_lock lk(m_);
        const std::size_t chunks = std::min(jobs_, count);
        if (chunks <= 1 || tl_inPool) {
            lk.unlock();
            for (std::size_t i = begin; i < end; ++i)
                fn(i);
            return;
        }

        runGate_.wait(lk, [&] { return !running_; });
        running_ = true;
        begin_ = begin;
        count_ = count;
        chunks_ = chunks;
        fn_ = &fn;
        nextChunk_ = 0;
        activeChunks_ = 0;
        error_ = nullptr;
        errorChunk_ = kNoChunk;
        spawnWorkers(chunks - 1);
        ++generation_;
        const std::uint64_t gen = generation_;
        cv_.notify_all();
        lk.unlock();

        // The calling thread participates instead of just waiting.
        tl_inPool = true;
        workChunks(gen, &fn, begin, count, chunks);
        tl_inPool = false;

        lk.lock();
        doneCv_.wait(lk, [&] {
            return nextChunk_ >= chunks_ && activeChunks_ == 0;
        });
        std::exception_ptr err = error_;
        running_ = false;
        runGate_.notify_one();
        lk.unlock();
        if (err)
            std::rethrow_exception(err);
    }

  private:
    void
    spawnWorkers(std::size_t needed)
    {
        // Called with m_ held; generation_ not yet bumped, so a new
        // worker's first wait matches the sweep being launched.
        while (numWorkers_ < needed) {
            ++numWorkers_;
            std::thread(
                [this, seen = generation_]() mutable { workerLoop(seen); })
                .detach();
        }
    }

    void
    workerLoop(std::uint64_t seen)
    {
        tl_inPool = true;
        std::unique_lock lk(m_);
        for (;;) {
            cv_.wait(lk, [&] { return generation_ != seen; });
            seen = generation_;
            const auto *fn = fn_;
            const std::size_t begin = begin_;
            const std::size_t count = count_;
            const std::size_t chunks = chunks_;
            lk.unlock();
            workChunks(seen, fn, begin, count, chunks);
            lk.lock();
        }
    }

    std::size_t
    grabChunk(std::uint64_t gen)
    {
        std::lock_guard lk(m_);
        if (generation_ != gen || nextChunk_ >= chunks_)
            return kNoChunk;
        ++activeChunks_;
        return nextChunk_++;
    }

    void
    workChunks(std::uint64_t gen, const std::function<void(std::size_t)> *fn,
               std::size_t begin, std::size_t count, std::size_t chunks)
    {
        for (;;) {
            const std::size_t chunk = grabChunk(gen);
            if (chunk == kNoChunk)
                return;
            // Static chunk boundaries: chunk c owns the contiguous
            // index range below, regardless of which thread runs it.
            const std::size_t lo = begin + chunk * count / chunks;
            const std::size_t hi = begin + (chunk + 1) * count / chunks;
            try {
                for (std::size_t i = lo; i < hi; ++i)
                    (*fn)(i);
            } catch (...) {
                std::lock_guard lk(m_);
                // Keep the exception from the lowest-indexed throwing
                // chunk, not whichever thread reached this line first:
                // every in-flight chunk drains before the caller
                // rethrows, so the winner is deterministic no matter
                // how threads are scheduled.
                if (!error_ || chunk < errorChunk_) {
                    error_ = std::current_exception();
                    errorChunk_ = chunk;
                }
                nextChunk_ = chunks_; // abandon undispatched chunks
            }
            std::lock_guard lk(m_);
            if (--activeChunks_ == 0 && nextChunk_ >= chunks_)
                doneCv_.notify_all();
        }
    }

    std::mutex m_;
    std::condition_variable cv_;      // wakes workers for a new sweep
    std::condition_variable doneCv_;  // wakes the caller on completion
    std::condition_variable runGate_; // serializes top-level sweeps

    std::size_t jobs_ = defaultJobs();
    std::size_t numWorkers_ = 0;
    bool running_ = false;

    // Current sweep (valid while running_).
    std::uint64_t generation_ = 0;
    const std::function<void(std::size_t)> *fn_ = nullptr;
    std::size_t begin_ = 0;
    std::size_t count_ = 0;
    std::size_t chunks_ = 0;
    std::size_t nextChunk_ = 0;
    std::size_t activeChunks_ = 0;
    std::exception_ptr error_;
    std::size_t errorChunk_ = kNoChunk; // chunk index that set error_
};

} // namespace

std::size_t
numJobs()
{
    return ThreadPool::instance().jobs();
}

void
setJobs(std::size_t n)
{
    ThreadPool::instance().setJobs(n);
}

void
parallelFor(std::size_t begin, std::size_t end,
            const std::function<void(std::size_t)> &fn)
{
    ThreadPool::instance().run(begin, end, fn);
}

} // namespace vsmooth
