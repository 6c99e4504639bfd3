/**
 * @file
 * Runs one population sweep at 4 jobs and prints, in kB, how far it
 * lifted this process's peak resident set (VmHWM) above its resident
 * set before the sweep. tests/test_population_memory.cc spawns it, so
 * every measurement starts in a fresh process whose pool has the jobs
 * it asks for and whose peak no earlier test has raised.
 *
 * Usage: population_memory_probe bench|serve
 *   bench  bench::runPopulation at 2000 cycles per run (the lane
 *          width comes from VSMOOTH_LANES, as everywhere)
 *   serve  a 1024-run serve `population` item at 2000 cycles per run
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_util.hh"
#include "common/json.hh"
#include "common/parallel.hh"
#include "serve/batch.hh"

using namespace vsmooth;

namespace {

/** A /proc/self/status field ("VmRSS:", "VmHWM:") in kB; -1 if absent. */
long
statusKb(const std::string &field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field, 0) == 0)
            return std::atol(line.c_str() + field.size());
    }
    return -1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string what = argc == 2 ? argv[1] : "";
    serve::BatchItem item;
    if (what == "serve") {
        std::string error;
        const Json j = Json::parse(
            "{\"kind\": \"population\", \"population\": 1024, "
            "\"config\": {\"seed\": 3, \"cycles\": 2000}}",
            &error);
        if (!error.empty() || !serve::BatchItem::fromJson(j, item, &error)) {
            std::fprintf(stderr, "population_memory_probe: %s\n",
                         error.c_str());
            return 1;
        }
    } else if (what != "bench") {
        std::fprintf(stderr, "usage: population_memory_probe bench|serve\n");
        return 2;
    }

    // Pinned, so the number of runs in flight does not depend on the
    // host.
    setJobs(4);
    const long before = statusKb("VmRSS:");
    if (what == "bench")
        bench::runPopulation(2'000, 1.0);
    else
        serve::runBatchItem(item);
    std::printf("%ld\n", statusKb("VmHWM:") - before);
    return 0;
}
