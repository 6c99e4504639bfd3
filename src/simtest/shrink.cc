#include "shrink.hh"

#include <algorithm>
#include <functional>
#include <vector>

namespace vsmooth::simtest {

namespace {

/** One semantic reduction: mutate the config toward "smaller";
 *  returns false when it does not apply (already minimal). */
using ShrinkMove = std::function<bool(FuzzConfig &)>;

const std::vector<ShrinkMove> &
shrinkMoves()
{
    static const std::vector<ShrinkMove> moves = {
        // Cheapest-to-replay reductions first: runtime, then
        // structure, then instrumentation, then parameters.
        [](FuzzConfig &c) {
            if (c.cycles <= 64)
                return false;
            c.cycles = std::max<Cycles>(64, c.cycles / 2);
            return true;
        },
        [](FuzzConfig &c) {
            if (c.baseLength <= 64)
                return false;
            c.baseLength = std::max<Cycles>(64, c.baseLength / 2);
            return true;
        },
        [](FuzzConfig &c) {
            if (c.cores.size() <= 1)
                return false;
            c.cores.pop_back();
            return true;
        },
        [](FuzzConfig &c) {
            bool changed = false;
            for (FuzzCore &core : c.cores) {
                if (!core.flat) {
                    core.flat = true;
                    changed = true;
                }
            }
            return changed;
        },
        [](FuzzConfig &c) {
            bool changed = false;
            for (FuzzCore &core : c.cores) {
                changed = changed || core.bench != 0;
                core.bench = 0;
            }
            return changed;
        },
        [](FuzzConfig &c) {
            const FuzzConfig def;
            if (!c.enableTrace && c.traceCapacity == def.traceCapacity)
                return false;
            c.enableTrace = false;
            c.traceCapacity = def.traceCapacity;
            return true;
        },
        [](FuzzConfig &c) {
            const FuzzConfig def;
            if (!c.enableTimeline &&
                c.timelineInterval == def.timelineInterval) {
                return false;
            }
            c.enableTimeline = false;
            c.timelineInterval = def.timelineInterval;
            return true;
        },
        [](FuzzConfig &c) {
            if (c.osTickInterval == 0)
                return false;
            c.osTickInterval = 0;
            return true;
        },
        [](FuzzConfig &c) {
            if (c.rippleFraction == 0.0)
                return false;
            c.rippleFraction = 0.0;
            return true;
        },
        [](FuzzConfig &c) {
            if (c.decapFraction == 1.0 && c.lScale == 1.0 &&
                c.rScale == 1.0) {
                return false;
            }
            c.decapFraction = 1.0;
            c.lScale = 1.0;
            c.rScale = 1.0;
            return true;
        },
        [](FuzzConfig &c) {
            if (c.emergencyMargin == 0.0 && !c.predictor && !c.damper &&
                !c.split) {
                return false;
            }
            c.emergencyMargin = 0.0;
            c.recoveryCost = 0;
            c.predictor = false;
            c.damper = false;
            c.split = false;
            return true;
        },
        [](FuzzConfig &c) {
            if (c.loop)
                return false;
            c.loop = true;
            return true;
        },
        // Keep jobs >= 2 so the parallel property still exercises the
        // pool; 2 is its minimal interesting value.
        [](FuzzConfig &c) {
            if (c.jobs <= 2)
                return false;
            c.jobs = 2;
            return true;
        },
        // Lane dimensions back to their defaults (seed-derived width,
        // ambient SIMD level) — if the failure only reproduces at a
        // pinned width or level, the repro keeps them.
        [](FuzzConfig &c) {
            if (c.laneWidth == 0)
                return false;
            c.laneWidth = 0;
            return true;
        },
        [](FuzzConfig &c) {
            if (c.simdLevel.empty())
                return false;
            c.simdLevel.clear();
            return true;
        },
        [](FuzzConfig &c) {
            if (c.seed == 1)
                return false;
            c.seed = 1;
            return true;
        },
    };
    return moves;
}

} // namespace

ShrinkOutcome
shrinkConfig(const FuzzConfig &failing, const Property &property,
             std::size_t maxAttempts)
{
    ShrinkOutcome out;
    out.config = failing;
    bool progressed = true;
    while (progressed && out.attempts < maxAttempts) {
        progressed = false;
        for (const ShrinkMove &move : shrinkMoves()) {
            if (out.attempts >= maxAttempts)
                break;
            FuzzConfig candidate = out.config;
            if (!move(candidate) || candidate == out.config)
                continue;
            ++out.attempts;
            if (!property.check(candidate, nullptr)) {
                // Still fails: the reduction is irrelevant to the
                // bug — keep it off the repro.
                out.config = candidate;
                ++out.accepted;
                progressed = true;
            }
        }
    }
    return out;
}

Json
reproJson(const FuzzConfig &cfg, const std::string &propertyName)
{
    // Property name first, then the non-default config fields: the
    // repro reads top-down as "what failed, on what".
    Json j = Json::object();
    j.set("property", Json(propertyName));
    const Json fields = cfg.toJson(true);
    for (const auto &[key, value] : fields.asObject())
        j.set(key, value);
    return j;
}

} // namespace vsmooth::simtest
