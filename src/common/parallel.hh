/**
 * @file
 * Deterministic parallel sweep engine.
 *
 * Every headline experiment is a population of independent
 * simulations (the 29x29 oracle matrix, the Fig 7/9 CDF populations,
 * the interference grids). parallelFor() fans such a sweep out over a
 * lazily-started, process-wide thread pool while preserving the
 * repo's bit-for-bit reproducibility invariant (DESIGN.md):
 *
 *   - every task derives its own seed from its *index*, never from
 *     execution order;
 *   - results are written into pre-sized slots by index, so the
 *     output is identical for any job count;
 *   - reductions (histogram / profile merges) fold in index order:
 *     parallelFold() folds each index into its chunk's partial as it
 *     finishes, and merges the partials after the join, in chunk
 *     order, on the calling thread.
 *
 * The pool size defaults to std::thread::hardware_concurrency(), can
 * be pinned via the VSMOOTH_JOBS environment variable, and overridden
 * at runtime with setJobs(). Jobs == 1 degenerates to the plain
 * serial loop on the calling thread (no pool threads are started), so
 * `VSMOOTH_JOBS=1` reproduces the historical single-threaded runs
 * exactly — including their execution order.
 */

#ifndef VSMOOTH_COMMON_PARALLEL_HH
#define VSMOOTH_COMMON_PARALLEL_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace vsmooth {

/**
 * Effective job count used by the next parallelFor (>= 1): the
 * setJobs() override if set, else VSMOOTH_JOBS, else
 * hardware_concurrency.
 */
std::size_t numJobs();

/**
 * Override the pool size. 0 restores the default (VSMOOTH_JOBS env
 * var, else hardware_concurrency). Thread-safe; takes effect on the
 * next parallelFor.
 */
void setJobs(std::size_t n);

/**
 * Run fn(i) for every i in [begin, end) across the pool.
 *
 * At most numJobs() threads (the caller among them) work on the
 * sweep. Each claims single indices, in increasing order, from a
 * shared counter, so a long index never holds back the ones after it
 * and callers can list their longest tasks first. Each index is
 * executed exactly once; the call returns after every index has
 * completed. Once fn throws, no further index is claimed; after every
 * claimed index has finished, the exception from the lowest throwing
 * index is rethrown on the calling thread. Nested calls — fn itself
 * calling parallelFor — run serially inline on the worker, so they
 * are safe but gain no extra parallelism.
 */
void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)> &fn);

/**
 * Evaluate fn(i) for i in [0, n) and collect the results in order.
 *
 * Each result is written into its pre-sized slot by index, so the
 * returned vector is identical for any job count. T must be
 * default-constructible and assignable.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(std::size_t n, Fn fn)
{
    std::vector<T> out(n);
    parallelFor(0, n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

/**
 * Fold the results of indices [0, n) into one accumulator without keeping
 * a result per index.
 *
 * [0, n) is split into min(64, n) contiguous chunks whose bounds
 * depend on n alone (never the job count). Each chunk is one
 * parallelFor index: runChunk(begin, end, partial) folds indices
 * begin..end-1, in increasing order, into a partial that starts as a
 * copy of `init`. After the join, merge(into, from) folds partials
 * 1.. into partial 0 in chunk order, on the calling thread. When
 * `init` is merge's identity and merge is associative (Histogram and
 * EmergencyProfile merges are: integer sums plus left-biased min/max),
 * the result equals a flat index-order fold for any job count, while
 * memory holds one partial per chunk instead of one result per index.
 * A throw from runChunk follows parallelFor's rule: no further chunk
 * is claimed, and the lowest throwing chunk's exception is rethrown
 * once every claimed chunk has finished.
 */
template <typename Acc, typename RunChunk, typename Merge>
Acc
parallelFold(std::size_t n, const Acc &init, RunChunk runChunk,
             Merge merge)
{
    constexpr std::size_t kChunks = 64;
    const std::size_t k = std::min(n, kChunks);
    if (k == 0)
        return init;
    // Chunk c is [begin(c), begin(c + 1)): sizes differ by at most
    // one, the longer ones first.
    const std::size_t base = n / k, extra = n % k;
    auto begin = [&](std::size_t c) {
        return c * base + std::min(c, extra);
    };
    std::vector<Acc> partials(k, init);
    parallelFor(0, k, [&](std::size_t c) {
        runChunk(begin(c), begin(c + 1), partials[c]);
    });
    for (std::size_t c = 1; c < k; ++c)
        merge(partials[0], partials[c]);
    return std::move(partials[0]);
}

} // namespace vsmooth

#endif // VSMOOTH_COMMON_PARALLEL_HH
