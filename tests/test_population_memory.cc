/**
 * @file
 * Memory of the population sweeps. Each run folds into its chunk's
 * partial as it finishes (parallelFold), so a population's peak holds
 * one 4000-bin scope per fold chunk and per run in flight. Keeping
 * every run's 32 KB scope until one merge at the end made the peak
 * grow with the run count instead.
 *
 * Each measurement runs in population_memory_probe, spawned fresh, at
 * a pinned 4 jobs, so neither an earlier test in this process nor the
 * host's core count moves it. The folded sweeps grow the peak by 3-5
 * MB, 2 MB of that the 64 chunk scopes; one scope per run grew it by
 * 26-27 MB for the 475-run population and 33 MB for the 1024-run serve
 * item. Sanitizer runtimes change memory use, so those builds skip.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

extern char **environ;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/** Longest a probe may run before it counts as hung. */
constexpr auto kProbeTimeout = std::chrono::minutes(5);

/**
 * Run population_memory_probe `what` with VSMOOTH_LANES=`lanes` (or
 * the inherited value when null) and return the peak growth it
 * printed, in MB; negative when it failed, or was killed after
 * kProbeTimeout.
 */
double
probeGrowthMb(const char *what, const char *lanes)
{
    std::vector<std::string> env;
    for (char **e = environ; *e; ++e) {
        if (!lanes || std::string(*e).rfind("VSMOOTH_LANES=", 0) != 0)
            env.emplace_back(*e);
    }
    if (lanes)
        env.push_back(std::string("VSMOOTH_LANES=") + lanes);
    std::vector<char *> envp;
    for (auto &e : env)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    int out[2];
    if (::pipe(out) != 0)
        return -1.0;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    std::string path = VSMOOTH_MEMORY_PROBE_PATH;
    std::string arg = what;
    char *argv[] = {path.data(), arg.data(), nullptr};
    pid_t pid = -1;
    const int err = posix_spawn(&pid, path.c_str(), &actions, nullptr,
                                argv, envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    if (err != 0) {
        ::close(out[0]);
        return -1.0;
    }

    // Read until EOF, giving up (and killing the probe) at the timeout.
    std::string text;
    const auto deadline = std::chrono::steady_clock::now() + kProbeTimeout;
    bool hung = false;
    for (;;) {
        using std::chrono::milliseconds;
        const auto left = std::chrono::duration_cast<milliseconds>(
                              deadline - std::chrono::steady_clock::now())
                              .count();
        pollfd p{out[0], POLLIN, 0};
        if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) == 0) {
            hung = true;
            break;
        }
        char buf[256];
        const ssize_t n = ::read(out[0], buf, sizeof(buf));
        if (n <= 0)
            break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(out[0]);
    if (hung)
        ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (hung || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        text.empty())
        return -1.0;
    return std::atof(text.c_str()) / 1024.0;
}

} // namespace

TEST(PopulationMemory, BenchPopulationPeakDoesNotGrowPerRun)
{
    if (kSanitized)
        GTEST_SKIP() << "sanitizer runtimes change memory use";
    for (const char *lanes : {"1", "8"}) {
        const double mb = probeGrowthMb("bench", lanes);
        ASSERT_GE(mb, 0.0) << "lanes " << lanes;
        EXPECT_LT(mb, 10.0) << "lanes " << lanes;
    }
}

TEST(PopulationMemory, ServePopulationItemPeakDoesNotGrowPerRun)
{
    if (kSanitized)
        GTEST_SKIP() << "sanitizer runtimes change memory use";
    const double mb = probeGrowthMb("serve", nullptr);
    ASSERT_GE(mb, 0.0);
    EXPECT_LT(mb, 10.0);
}
