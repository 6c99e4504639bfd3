/**
 * @file
 * perfbench — the benchmark's compiled half, driven by run.py.
 *
 *   perfbench serve --vsmooth BIN --work-dir D --seed S --seconds T
 *                   [--distinct N] [--trace-out FILE]
 *       the serve_mix workload (or, with a small --distinct, the serve
 *       control segment of the experiment workloads); prints one JSON
 *       summary line.
 *   perfbench probes --workload W --seed S
 *       the traced run's layer probes and stage-replay identity check.
 *   perfbench selftest --vsmooth BIN --work-dir D
 *       shows that a serve response with one flipped byte fails the
 *       correctness check.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/parallel.hh"
#include "probes.hh"
#include "serve_session.hh"

namespace {

int
usage()
{
    std::cerr << "usage: perfbench serve|probes|selftest [options]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    perfbench::SessionOptions opt;
    std::string workload;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string val = argv[++i];
        if (arg == "--vsmooth")
            opt.vsmooth = val;
        else if (arg == "--work-dir")
            opt.workDir = val;
        else if (arg == "--seed")
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::strtod(val.c_str(), nullptr);
        else if (arg == "--distinct")
            opt.distinct = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--trace-out")
            opt.traceOut = val;
        else if (arg == "--workload")
            workload = val;
        else
            return usage();
    }
    if (cmd == "serve")
        return perfbench::runServeSession(opt);
    if (cmd == "selftest")
        return perfbench::runServeSelfTest(opt);
    if (cmd == "probes")
        return perfbench::runProbes(workload, opt.seed);
    return usage();
}
