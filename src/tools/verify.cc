#include "verify.hh"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "common/fsio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/result.hh"
#include "common/table.hh"

namespace vsmooth::tools {

namespace fs = std::filesystem;

const std::vector<ExperimentInfo> &
experimentRegistry()
{
    // `fast` marks the default verify subset: experiments that finish
    // in a few seconds even single-threaded, chosen to still cover
    // the PDN analysis, the tech-node model, the full simulator stack
    // (fig12), parallel sweeps (fig12, fig15, ablation_core_scaling,
    // so jobs-invariance is exercised end-to-end), and the
    // sliding-window scheduler (fig16).
    // Fig 7-10 share four workload populations, and Fig 17-19 and
    // Table I one oracle pre-run, so one study binary emits each
    // group's four Results.
    static const std::vector<ExperimentInfo> registry = {
        {"fig01_future_swings", true},
        {"fig02_margin_frequency", true},
        {"fig04_impedance", true},
        {"fig05_reset_droops", true},
        {"fig06_decap_swings", true},
        {"fig07_voltage_cdf", false, "population_study"},
        {"fig08_typical_case", false, "population_study"},
        {"fig09_future_cdf", false, "population_study"},
        {"fig10_heatmaps", false, "population_study"},
        {"fig11_tlb_overshoot", false},
        {"fig12_event_swings", true},
        {"fig13_interference", false},
        {"fig14_noise_phases", false},
        {"fig15_stall_correlation", true},
        {"fig16_sliding_window", true},
        {"fig17_coschedule_spread", false, "oracle_study"},
        {"fig18_policy_scatter", false, "oracle_study"},
        {"fig19_pass_increase", false, "oracle_study"},
        {"table1_optimal_margins", false, "oracle_study"},
        {"ablation_core_scaling", true},
        {"ablation_mitigations", false},
        {"ablation_noise_model", false},
        {"adaptive_margin", false},
        {"fault_injection", true},
    };
    return registry;
}

namespace {

const ExperimentInfo *
findExperiment(const std::string &name)
{
    for (const auto &e : experimentRegistry())
        if (name == e.name)
            return &e;
    return nullptr;
}

std::vector<std::string>
selectExperiments(const VerifyOptions &opt)
{
    if (!opt.experiments.empty()) {
        for (const auto &name : opt.experiments)
            if (!findExperiment(name))
                fatal("unknown experiment '%s' (see `vsmooth verify"
                      " --list`)",
                      name.c_str());
        return opt.experiments;
    }
    std::vector<std::string> out;
    for (const auto &e : experimentRegistry())
        if (opt.all || e.fast)
            out.push_back(e.name);
    return out;
}

/** Load <path> as a Result; false (with a report line) on failure. */
bool
loadResult(const std::string &path, Result &out, Json *rawOut)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "  cannot open '" << path << "'\n";
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string error;
    Json j = Json::parse(buf.str(), &error);
    if (!error.empty()) {
        std::cerr << "  " << path << ": " << error << "\n";
        return false;
    }
    if (!Result::fromJson(j, out, &error)) {
        std::cerr << "  " << path << ": " << error << "\n";
        return false;
    }
    if (rawOut)
        *rawOut = std::move(j);
    return true;
}

/** Our environment with each `NAME=value` in `overrides` replacing
 *  any entry of the same name. */
std::vector<std::string>
childEnvironment(const std::vector<std::string> &overrides)
{
    auto nameOf = [](std::string_view entry) {
        return entry.substr(0, entry.find('='));
    };
    std::vector<std::string> env;
    for (char **e = environ; *e; ++e) {
        const std::string_view entry(*e);
        if (std::none_of(overrides.begin(), overrides.end(),
                         [&](const std::string &o) {
                             return nameOf(o) == nameOf(entry);
                         }))
            env.emplace_back(entry);
    }
    env.insert(env.end(), overrides.begin(), overrides.end());
    return env;
}

/** Run an experiment's binary with result emission into `workDir`.
 *  The binary is executed directly, not through a shell, so no
 *  character in a path needs quoting. */
bool
runExperiment(const VerifyOptions &opt, const std::string &name,
              const std::string &workDir)
{
    const fs::path binary =
        fs::path(opt.benchDir) / findExperiment(name)->binaryName();
    if (!fs::exists(binary)) {
        std::cerr << "  missing binary '" << binary.string()
                  << "' (build the bench targets first)\n";
        return false;
    }
    std::vector<std::string> overrides = {"VSMOOTH_RESULT_DIR=" + workDir};
    if (opt.jobs > 0)
        overrides.push_back("VSMOOTH_JOBS=" + std::to_string(opt.jobs));
    std::vector<std::string> env = childEnvironment(overrides);
    std::vector<char *> envp;
    for (auto &e : env)
        envp.push_back(e.data());
    envp.push_back(nullptr);
    std::string path = binary.string();
    char *argv[] = {path.data(), nullptr};

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    if (opt.verbose)
        posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO,
                                         STDOUT_FILENO);
    else
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         "/dev/null", O_WRONLY, 0);
    pid_t pid;
    const int err = posix_spawn(&pid, path.c_str(), &actions, nullptr,
                                argv, envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (err != 0) {
        std::cerr << "  cannot run '" << path << "': " << std::strerror(err)
                  << "\n";
        return false;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            std::cerr << "  cannot wait for '" << path
                      << "': " << std::strerror(errno) << "\n";
            return false;
        }
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
        return true;
    if (WIFSIGNALED(status))
        std::cerr << "  '" << path << "' killed by signal "
                  << WTERMSIG(status) << "\n";
    else
        std::cerr << "  '" << path << "' exited with status "
                  << WEXITSTATUS(status) << "\n";
    return false;
}

/** In --update mode: write the fresh result as the new golden,
 *  preserving a "tolerances" object already present in the old one.
 *  The replacement is atomic (temp + rename): an interrupt mid-update
 *  must never leave a truncated golden where a valid one stood. */
bool
updateGolden(const std::string &goldenPath, const Result &actual)
{
    Json out = actual.toJson();
    std::ifstream in(goldenPath);
    if (in) {
        std::stringstream buf;
        buf << in.rdbuf();
        std::string error;
        const Json old = Json::parse(buf.str(), &error);
        if (error.empty() && old.isObject() && old.contains("tolerances"))
            out.set("tolerances", old.at("tolerances"));
    }
    std::string error;
    if (!writeFileAtomic(
            goldenPath,
            [&](std::ostream &os) {
                out.write(os, 2);
                os << "\n";
                return os.good();
            },
            &error)) {
        std::cerr << "  " << error << "\n";
        return false;
    }
    return true;
}

void
printDiffs(const std::string &name, const CompareReport &report)
{
    TextTable t("drift: " + name);
    t.setHeader({"metric", "golden", "actual", "note"});
    for (const auto &d : report.diffs) {
        t.addRow({d.name,
                  d.note.empty() ? TextTable::num(d.golden, 9) : "",
                  d.note.empty() ? TextTable::num(d.actual, 9) : "",
                  d.note});
    }
    t.print(std::cerr);
}

} // namespace

int
runVerify(const VerifyOptions &opt)
{
    const auto names = selectExperiments(opt);

    // Without --work-dir, the work dir is this run's own scratch and
    // goes when it ends; a given one is kept for inspection.
    const bool ownWorkDir = opt.workDir.empty();
    std::error_code ec;
    const std::string workDir = ownWorkDir
        ? (fs::temp_directory_path(ec) /
           ("vsmooth-verify-" + std::to_string(getpid())))
              .string()
        : opt.workDir;
    if (ec)
        fatal("no temp dir for the work dir (%s); pass --work-dir",
              ec.message().c_str());
    fs::create_directories(workDir, ec);
    if (ec)
        fatal("cannot create work dir '%s': %s", workDir.c_str(),
              ec.message().c_str());
    if (opt.update)
        fs::create_directories(opt.goldenDir, ec);

    std::size_t failures = 0;
    for (const auto &name : names) {
        const std::string resultPath = workDir + "/" + name + ".json";
        const std::string goldenPath =
            opt.goldenDir + "/" + name + ".json";

        // A binary that exits 0 without emitting must not be scored
        // against a Result left by an earlier run.
        fs::remove(resultPath, ec);
        if (!runExperiment(opt, name, workDir)) {
            std::cout << name << ": FAIL (run error)\n";
            ++failures;
            continue;
        }
        Result actual;
        if (!loadResult(resultPath, actual, nullptr)) {
            std::cout << name << ": FAIL (bad result file)\n";
            ++failures;
            continue;
        }

        if (opt.update) {
            if (!updateGolden(goldenPath, actual)) {
                std::cout << name << ": FAIL (cannot update golden)\n";
                ++failures;
            } else {
                std::cout << name << ": golden updated ("
                          << actual.metrics().size() << " metrics, "
                          << actual.allSeries().size() << " series)\n";
            }
            continue;
        }

        Result golden;
        Json goldenRaw;
        if (!loadResult(goldenPath, golden, &goldenRaw)) {
            std::cout << name
                      << ": FAIL (missing/bad golden; run with"
                         " --update to create it)\n";
            ++failures;
            continue;
        }
        const Json *tolerances = goldenRaw.isObject()
                                     ? goldenRaw.find("tolerances")
                                     : nullptr;
        const auto report = compareResults(golden, actual, tolerances);
        if (report.pass) {
            std::cout << name << ": PASS (" << report.checked
                      << " metrics/series checked)\n";
        } else {
            std::cout << name << ": FAIL (" << report.diffs.size()
                      << " drifting value(s) across " << report.checked
                      << " metrics/series)\n";
            printDiffs(name, report);
            ++failures;
        }
    }
    if (ownWorkDir)
        fs::remove_all(workDir, ec);

    if (opt.update) {
        std::cout << names.size() << " golden(s) written to "
                  << opt.goldenDir << "\n";
        return failures == 0 ? 0 : 1;
    }
    std::cout << (names.size() - failures) << "/" << names.size()
              << " experiments matched their goldens\n";
    return failures == 0 ? 0 : 1;
}

} // namespace vsmooth::tools
