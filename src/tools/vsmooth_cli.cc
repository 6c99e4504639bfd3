/**
 * @file
 * vsmooth — command-line driver for the simulation stack.
 *
 * A downstream user's entry point: run any workload combination on
 * any platform variant and get the noise characterization, the
 * resilient-design analysis, or a raw waveform trace without writing
 * C++.
 *
 * Usage:
 *   vsmooth run [options] <benchmark> [benchmark2]
 *   vsmooth list
 *   vsmooth impedance [--decap F]
 *   vsmooth reset-droop [--decap F]
 *   vsmooth verify [options]
 *   vsmooth fuzz [options]
 *   vsmooth serve [options]
 *   vsmooth client [options]
 *
 * Options for `serve` (sweep-as-a-service daemon):
 *   --socket PATH    listen on a Unix-domain socket
 *   --port N         listen on 127.0.0.1:N (0 = ephemeral)
 *   --workers N      executor threads (default 2)
 *   --cache-bytes N  Result cache budget (default 64 MiB, 0 = off)
 *   --queue N        bounded queue capacity (default 256)
 *   --ready-file F   write "<kind> <address>" here once listening
 *
 * Options for `client` (submit a batch to a daemon):
 *   --socket PATH | --port N   where the daemon listens
 *   --batch FILE     items array (or {"items": [...]}) to submit
 *   --id NAME        batch id echoed in responses (default "cli")
 *   --local          run the batch in-process (offline reference)
 *   --results-only   print one serialized Result per item
 *   --shutdown       ask the daemon to drain and exit
 *   --stats          print cache/queue counters
 *
 * Options for `fuzz` (property-based differential testing):
 *   --seed S         generation seed (default 1)
 *   --iters N        configs to generate and check (default 1000)
 *   --properties L   comma-separated property names (default: all)
 *   --repro FILE     replay one repro file instead of generating
 *   --corpus DIR     replay every *.json repro in DIR
 *   --repro-out F    where a newly shrunk repro is written
 *   --summary FILE   write a deterministic per-property JSON summary
 *   --list           print the property registry and exit
 *   --verbose        per-property progress output
 *
 * Options for `verify` (golden-result regression checking):
 *   --bench-dir D    directory of experiment binaries (build/bench)
 *   --golden-dir D   directory of golden JSONs (bench/golden)
 *   --experiments L  comma-separated experiment names
 *   --all            run every registered experiment
 *   --update         rewrite the goldens from this run
 *   --list           print the experiment registry and exit
 *   --verbose        let experiment output through to stderr
 *
 * Options for `run`:
 *   --decap F        package decap fraction (1.0 = Proc100, default)
 *   --cycles N       cycles to simulate (default 2000000)
 *   --margin M       operating margin fraction; enables the fail-safe
 *   --recovery N     recovery cost in cycles (with --margin)
 *   --predictor      enable the signature emergency predictor
 *   --damper         enable resonance-aware throttling
 *   --split          split per-core supplies
 *   --trace FILE     write a CSV waveform trace of the last 64K cycles
 *   --seed S         RNG seed
 *
 * Global options:
 *   --jobs N         worker threads for parallel sweeps (default: all
 *                    cores; 1 forces the serial path). Equivalent to
 *                    the VSMOOTH_JOBS environment variable; results
 *                    are identical for any job count.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "circuit/ac.hh"
#include "common/argparse.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "common/table.hh"
#include "cpu/fast_core.hh"
#include "pdn/droop_analysis.hh"
#include "pdn/ladder.hh"
#include "resilience/perf_model.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/system.hh"
#include "simtest/fuzz.hh"
#include "verify.hh"
#include "workload/microbench.hh"
#include "workload/parsec.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;

namespace {

[[noreturn]] void
usage()
{
    std::cerr
        << "usage:\n"
           "  vsmooth run [options] <benchmark> [benchmark2]\n"
           "  vsmooth list\n"
           "  vsmooth impedance [--decap F]\n"
           "  vsmooth reset-droop [--decap F]\n"
           "  vsmooth verify [options]\n"
           "  vsmooth fuzz [options]\n"
           "  vsmooth serve [options]\n"
           "  vsmooth client [options]\n"
           "run options: --decap F --cycles N --margin M --recovery N\n"
           "             --predictor --damper --split --trace FILE"
           " --seed S\n"
           "verify options: --bench-dir D --golden-dir D"
           " --experiments a,b,c\n"
           "                --all --update --list --verbose\n"
           "fuzz options: --seed S --iters N --properties a,b,c"
           " --repro FILE\n"
           "              --corpus DIR --repro-out F --summary FILE\n"
           "              --list --verbose\n"
           "serve options: --socket PATH | --port N --workers N\n"
           "               --cache-bytes N --queue N --ready-file F\n"
           "client options: --socket PATH | --port N --batch FILE"
           " --id NAME\n"
           "                --local --results-only --shutdown"
           " --stats\n"
           "global options: --jobs N (worker threads for sweeps;"
           " 1 = serial)\n";
    std::exit(2);
}

double
parseDouble(const char *value, const char *flag)
{
    const auto v = tryParseDouble(value);
    if (!v)
        fatal("bad value '%s' for %s", value, flag);
    return *v;
}

std::uint64_t
parseU64(const char *value, const char *flag)
{
    // Integer flags parse as integers: no silent precision loss for
    // 64-bit seeds, no "1e6"-style or partially-numeric input.
    const auto v = tryParseU64(value);
    if (!v)
        fatal("bad value '%s' for %s (expected an unsigned integer)",
              value, flag);
    return *v;
}

int
cmdList()
{
    TextTable spec("SPEC CPU2006 workloads");
    spec.setHeader({"name", "stall ratio", "memory-bound", "IPC",
                    "phases"});
    for (const auto &b : workload::specCpu2006()) {
        const char *pattern =
            b.pattern == workload::PhasePattern::Flat ? "flat"
            : b.pattern == workload::PhasePattern::Steps ? "steps"
                                                         : "oscillating";
        spec.addRow({b.name, TextTable::num(b.stallRatio, 2),
                     TextTable::num(b.memoryBoundness, 2),
                     TextTable::num(b.ipcRunning, 2), pattern});
    }
    spec.print(std::cout);

    TextTable parsec("PARSEC workloads (multi-threaded)");
    parsec.setHeader({"name", "stall ratio", "memory-bound", "IPC"});
    for (const auto &b : workload::parsecSuite()) {
        parsec.addRow({b.name, TextTable::num(b.stallRatio, 2),
                       TextTable::num(b.memoryBoundness, 2),
                       TextTable::num(b.ipcRunning, 2)});
    }
    std::cout << "\n";
    parsec.print(std::cout);
    return 0;
}

int
cmdImpedance(double decap)
{
    const auto cfg =
        pdn::PackageConfig::core2duo().withDecapFraction(decap);
    auto net = pdn::buildLadder(cfg, 1);
    const auto sweep = circuit::impedanceSweep(net.net, net.dieNode,
                                               Hertz(1e6), Hertz(500e6),
                                               40);
    TextTable t("impedance, decap fraction " + TextTable::num(decap, 2));
    t.setHeader({"freq (MHz)", "|Z| (mOhm)"});
    for (const auto &p : sweep)
        t.addRow({TextTable::num(p.frequencyHz / 1e6, 2),
                  TextTable::num(p.magnitude() * 1e3, 3)});
    t.print(std::cout);
    const auto peak = circuit::resonancePeak(sweep);
    std::cout << "resonance: " << TextTable::num(peak.frequencyHz / 1e6, 0)
              << " MHz, " << TextTable::num(peak.magnitude() * 1e3, 2)
              << " mOhm\n";
    return 0;
}

int
cmdResetDroop(double decap)
{
    const auto cfg =
        pdn::PackageConfig::core2duo().withDecapFraction(decap);
    const auto wf = pdn::simulateReset(cfg);
    std::cout << "decap fraction " << TextTable::num(decap, 2)
              << ": droop " << TextTable::num(wf.maxDroop() * 1e3, 1)
              << " mV, overshoot "
              << TextTable::num(wf.maxOvershoot() * 1e3, 1)
              << " mV, p2p " << TextTable::num(wf.peakToPeak() * 1e3, 1)
              << " mV\n";
    return 0;
}

struct RunOptions
{
    double decap = 1.0;
    Cycles cycles = 2'000'000;
    double margin = 0.0;
    std::uint32_t recovery = 0;
    bool predictor = false;
    bool damper = false;
    bool split = false;
    std::string traceFile;
    std::uint64_t seed = 1;
    std::vector<std::string> benchmarks;
};

int
cmdRun(const RunOptions &opt)
{
    if (opt.benchmarks.empty() || opt.benchmarks.size() > 2)
        fatal("run takes one or two benchmark names");

    sim::SystemConfig cfg;
    cfg.package =
        pdn::PackageConfig::core2duo().withDecapFraction(opt.decap);
    cfg.enableTrace = !opt.traceFile.empty();
    cfg.splitSupplies = opt.split;
    cfg.enableEmergencyPredictor = opt.predictor;
    cfg.enableResonanceDamper = opt.damper;
    if (opt.margin > 0.0) {
        cfg.emergencyMargin = opt.margin;
        cfg.recoveryCostCycles = opt.recovery > 0 ? opt.recovery : 1000;
    }

    sim::System sys(cfg);
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName(opt.benchmarks[0]),
                              opt.cycles, true),
        opt.seed + 1));
    if (opt.benchmarks.size() == 2) {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::scheduleFor(
                workload::specByName(opt.benchmarks[1]), opt.cycles,
                true),
            opt.seed + 2));
    } else {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::idleSchedule(1000), opt.seed + 2));
    }
    sys.run(opt.cycles);

    TextTable t("vsmooth run");
    t.setHeader({"metric", "value"});
    t.addRow({"cycles", TextTable::num(sys.cycles())});
    t.addRow({"max droop (%)",
              TextTable::num(sys.scope().maxDroop() * 100, 2)});
    t.addRow({"max overshoot (%)",
              TextTable::num(sys.scope().maxOvershoot() * 100, 2)});
    t.addRow({"droops/1K cycles (2.3%)",
              TextTable::num(1000.0 * sys.scope().fractionBelow(-0.023),
                             1)});
    t.addRow({"samples beyond +/-4% (%)",
              TextTable::num(sys.scope().fractionOutside(0.04) * 100,
                             4)});
    for (std::size_t c = 0; c < sys.numCores(); ++c) {
        t.addRow({"core" + TextTable::num(static_cast<int>(c)) + " IPC",
                  TextTable::num(sys.core(c).counters().ipc(), 2)});
        t.addRow({"core" + TextTable::num(static_cast<int>(c)) +
                      " stall ratio",
                  TextTable::num(sys.core(c).counters().stallRatio(),
                                 2)});
    }
    if (opt.margin > 0.0)
        t.addRow({"emergencies", TextTable::num(sys.emergencies())});
    if (sys.predictor()) {
        t.addRow({"predictor throttled cycles",
                  TextTable::num(sys.predictor()->throttledCycles())});
    }
    if (sys.damper()) {
        t.addRow({"damper throttled cycles",
                  TextTable::num(sys.damper()->throttledCycles())});
    }
    t.print(std::cout);

    if (!opt.traceFile.empty()) {
        std::ofstream out(opt.traceFile);
        if (!out)
            fatal("cannot open trace file '%s'", opt.traceFile.c_str());
        sys.trace().writeCsv(out);
        std::cout << "trace written to " << opt.traceFile << "\n";
    }
    return 0;
}

int
cmdVerify(int argc, char **argv)
{
    tools::VerifyOptions opt;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--bench-dir") {
            opt.benchDir = next();
        } else if (arg == "--golden-dir") {
            opt.goldenDir = next();
        } else if (arg == "--work-dir") {
            opt.workDir = next();
        } else if (arg == "--experiments") {
            // Every entry must name an experiment: an empty list or
            // entry would otherwise read as "no list given" and check
            // (or, under --update, rewrite) the default subset.
            std::string list = next();
            std::size_t start = 0;
            while (start <= list.size()) {
                const std::size_t comma = list.find(',', start);
                const std::string name = list.substr(
                    start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
                if (name.empty())
                    fatal("--experiments needs comma-separated experiment"
                          " names, got '%s'",
                          list.c_str());
                opt.experiments.push_back(name);
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        } else if (arg == "--all") {
            opt.all = true;
        } else if (arg == "--update") {
            opt.update = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--jobs") {
            const std::uint64_t v = parseU64(next(), "--jobs");
            if (v < 1)
                fatal("--jobs needs a positive thread count");
            opt.jobs = v;
        } else if (arg == "--list") {
            TextTable t("registered experiments");
            t.setHeader({"experiment", "binary", "default subset"});
            for (const auto &e : tools::experimentRegistry())
                t.addRow({e.name, e.binaryName(),
                          e.fast ? "yes" : "no (--all)"});
            t.print(std::cout);
            return 0;
        } else {
            usage();
        }
    }
    return tools::runVerify(opt);
}

int
cmdFuzz(int argc, char **argv)
{
    simtest::FuzzOptions opt;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--seed") {
            opt.seed = parseU64(next(), "--seed");
        } else if (arg == "--iters") {
            opt.iters = parseU64(next(), "--iters");
        } else if (arg == "--properties") {
            std::string list = next();
            std::size_t start = 0;
            while (start <= list.size()) {
                const std::size_t comma = list.find(',', start);
                const std::string name = list.substr(
                    start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
                if (!name.empty())
                    opt.properties.push_back(name);
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        } else if (arg == "--repro") {
            opt.reproFile = next();
        } else if (arg == "--corpus") {
            opt.corpusDir = next();
        } else if (arg == "--repro-out") {
            opt.reproOut = next();
        } else if (arg == "--summary") {
            opt.summaryFile = next();
        } else if (arg == "--list") {
            opt.listProperties = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--jobs") {
            const std::uint64_t v = parseU64(next(), "--jobs");
            if (v < 1)
                fatal("--jobs needs a positive thread count");
            setJobs(static_cast<std::size_t>(v));
        } else {
            usage();
        }
    }
    return simtest::runFuzz(opt);
}

int
cmdServe(int argc, char **argv)
{
    serve::ServeOptions opt;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--socket") {
            opt.socketPath = next();
        } else if (arg == "--port") {
            const std::uint64_t v = parseU64(next(), "--port");
            if (v > 65535)
                fatal("--port %llu out of range",
                      static_cast<unsigned long long>(v));
            opt.port = static_cast<int>(v);
        } else if (arg == "--workers") {
            const std::uint64_t v = parseU64(next(), "--workers");
            if (v < 1)
                fatal("--workers needs a positive thread count");
            opt.workers = static_cast<std::size_t>(v);
        } else if (arg == "--cache-bytes") {
            opt.cacheBytes = static_cast<std::size_t>(
                parseU64(next(), "--cache-bytes"));
        } else if (arg == "--queue") {
            const std::uint64_t v = parseU64(next(), "--queue");
            if (v < 1)
                fatal("--queue needs a positive capacity");
            opt.queueCapacity = static_cast<std::size_t>(v);
        } else if (arg == "--ready-file") {
            opt.readyFile = next();
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--jobs") {
            const std::uint64_t v = parseU64(next(), "--jobs");
            if (v < 1)
                fatal("--jobs needs a positive thread count");
            setJobs(static_cast<std::size_t>(v));
        } else {
            usage();
        }
    }
    if (opt.socketPath.empty() && opt.port == 0)
        warn("serve: no --socket or --port given; using an "
             "ephemeral TCP port (see --ready-file)");
    return serve::runServe(opt);
}

int
cmdClient(int argc, char **argv)
{
    serve::ClientOptions opt;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--socket") {
            opt.socketPath = next();
        } else if (arg == "--port") {
            const std::uint64_t v = parseU64(next(), "--port");
            if (v < 1 || v > 65535)
                fatal("--port %llu out of range",
                      static_cast<unsigned long long>(v));
            opt.port = static_cast<int>(v);
        } else if (arg == "--batch") {
            opt.batchFile = next();
        } else if (arg == "--id") {
            opt.batchId = next();
        } else if (arg == "--local") {
            opt.local = true;
        } else if (arg == "--results-only") {
            opt.resultsOnly = true;
        } else if (arg == "--shutdown") {
            opt.shutdown = true;
        } else if (arg == "--stats") {
            opt.stats = true;
        } else if (arg == "--jobs") {
            const std::uint64_t v = parseU64(next(), "--jobs");
            if (v < 1)
                fatal("--jobs needs a positive thread count");
            setJobs(static_cast<std::size_t>(v));
        } else {
            usage();
        }
    }
    if (opt.batchFile.empty() && !opt.shutdown && !opt.stats)
        fatal("client needs --batch FILE (or --shutdown / --stats)");
    return serve::runClient(opt);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    // Resolve the SIMD dispatch level, the job count and the tick
    // path up front: a bad VSMOOTH_SIMD, VSMOOTH_LANES, VSMOOTH_JOBS
    // or VSMOOTH_SCALAR_TICK value fails before any work starts, and
    // the selected kernel/lane-width report lands once at the top of
    // the output instead of mid-run.
    simd::activeLevel();
    numJobs();
    sim::scalarTickForced();
    const std::string cmd = argv[1];

    if (cmd == "list")
        return cmdList();
    if (cmd == "verify")
        return cmdVerify(argc, argv);
    if (cmd == "fuzz")
        return cmdFuzz(argc, argv);
    if (cmd == "serve")
        return cmdServe(argc, argv);
    if (cmd == "client")
        return cmdClient(argc, argv);

    double decap = 1.0;
    RunOptions opt;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--decap") {
            decap = opt.decap = parseDouble(next(), "--decap");
        } else if (arg == "--cycles") {
            opt.cycles = static_cast<Cycles>(
                parseU64(next(), "--cycles"));
        } else if (arg == "--margin") {
            opt.margin = parseDouble(next(), "--margin");
        } else if (arg == "--recovery") {
            const std::uint64_t r = parseU64(next(), "--recovery");
            if (r > UINT32_MAX)
                fatal("--recovery %llu exceeds the 32-bit cycle cap",
                      static_cast<unsigned long long>(r));
            opt.recovery = static_cast<std::uint32_t>(r);
        } else if (arg == "--predictor") {
            opt.predictor = true;
        } else if (arg == "--damper") {
            opt.damper = true;
        } else if (arg == "--split") {
            opt.split = true;
        } else if (arg == "--trace") {
            opt.traceFile = next();
        } else if (arg == "--seed") {
            opt.seed = parseU64(next(), "--seed");
        } else if (arg == "--jobs") {
            const std::uint64_t v = parseU64(next(), "--jobs");
            if (v < 1)
                fatal("--jobs needs a positive thread count");
            setJobs(static_cast<std::size_t>(v));
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
        } else {
            opt.benchmarks.push_back(arg);
        }
    }

    if (cmd == "impedance")
        return cmdImpedance(decap);
    if (cmd == "reset-droop")
        return cmdResetDroop(decap);
    if (cmd == "run")
        return cmdRun(opt);
    usage();
}
