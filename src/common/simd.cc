#include "simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "argparse.hh"
#include "logging.hh"
#include "simd_kernels.hh"

namespace vsmooth::simd {

const char *
levelName(IsaLevel level)
{
    switch (level) {
      case IsaLevel::Scalar: return "scalar";
      case IsaLevel::Avx2: return "avx2";
    }
    return "scalar";
}

IsaLevel
detectHostLevel()
{
#if defined(__x86_64__) || defined(_M_X64)
    if (__builtin_cpu_supports("avx2"))
        return IsaLevel::Avx2;
#endif
    return IsaLevel::Scalar;
}

namespace {

std::atomic<int> activeLevelPlusOne{0}; // 0 = not yet resolved

std::size_t
laneWidthFor(IsaLevel level)
{
    const char *env = std::getenv("VSMOOTH_LANES");
    if (env && *env) {
        const auto lanes = tryParseU64(env);
        if (!lanes || *lanes < 1 || *lanes > kMaxLanes) {
            fatal("VSMOOTH_LANES=%s is invalid; it must be an integer "
                  "in [1, %zu]", env, kMaxLanes);
        }
        return static_cast<std::size_t>(*lanes);
    }
    // Two AVX2 vectors in flight; the scalar kernel still interleaves
    // 4 dependency chains for ILP.
    return level == IsaLevel::Avx2 ? 8 : 4;
}

IsaLevel
resolveFromEnvironment()
{
    const IsaLevel host = detectHostLevel();
    const char *env = std::getenv("VSMOOTH_SIMD");
    if (!env || !*env) {
        inform("simd: %s kernels (host maximum), %zu scenario lanes",
               levelName(host), laneWidthFor(host));
        return host;
    }

    IsaLevel wanted;
    if (std::strcmp(env, "scalar") == 0) {
        wanted = IsaLevel::Scalar;
    } else if (std::strcmp(env, "avx2") == 0) {
        wanted = IsaLevel::Avx2;
    } else {
        fatal("VSMOOTH_SIMD=%s is not recognised; it must be one of "
              "scalar, avx2", env);
    }
    if (static_cast<int>(wanted) > static_cast<int>(host)) {
        fatal("VSMOOTH_SIMD=%s requests a level this host lacks "
              "(host maximum is %s)", env, levelName(host));
    }
    inform("simd: %s kernels (VSMOOTH_SIMD override), "
           "%zu scenario lanes", levelName(wanted), laneWidthFor(wanted));
    return wanted;
}

} // namespace

IsaLevel
activeLevel()
{
    int cached = activeLevelPlusOne.load(std::memory_order_acquire);
    if (cached)
        return static_cast<IsaLevel>(cached - 1);

    static std::once_flag once;
    std::call_once(once, [] {
        const IsaLevel level = resolveFromEnvironment();
        activeLevelPlusOne.store(static_cast<int>(level) + 1,
                                 std::memory_order_release);
    });
    return static_cast<IsaLevel>(
        activeLevelPlusOne.load(std::memory_order_acquire) - 1);
}

void
setActiveLevel(IsaLevel level)
{
    if (static_cast<int>(level) > static_cast<int>(detectHostLevel()))
        fatal("setActiveLevel(%s): host maximum is %s", levelName(level),
              levelName(detectHostLevel()));
    activeLevelPlusOne.store(static_cast<int>(level) + 1,
                             std::memory_order_release);
}

std::size_t
vectorWidth(IsaLevel level)
{
    switch (level) {
      case IsaLevel::Scalar: return 1;
      case IsaLevel::Avx2: return 4;
    }
    return 1;
}

std::size_t
defaultLaneWidth()
{
    return laneWidthFor(activeLevel());
}

std::string
description()
{
    return std::string(levelName(activeLevel())) + "x" +
        std::to_string(defaultLaneWidth());
}

const KernelSet &
kernelsFor(IsaLevel level)
{
    switch (level) {
      case IsaLevel::Scalar: return kScalarKernels;
      case IsaLevel::Avx2: return kAvx2Kernels;
    }
    return kScalarKernels;
}

const KernelSet &
kernels()
{
    return kernelsFor(activeLevel());
}

} // namespace vsmooth::simd
