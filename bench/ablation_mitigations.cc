/**
 * @file
 * Ablation: the hardware mitigation baselines the paper's software
 * scheduler is positioned against, plus the split-vs-connected supply
 * comparison of footnote 3.
 *
 *  - Signature-based emergency prediction (Reddi et al., HPCA'09 [29])
 *  - Resonance-aware throttling (Powell & Vijaykumar [17][18])
 *  - Split per-core rails vs one connected rail (James et al. [1])
 */

#include <iostream>
#include <iterator>
#include <memory>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "cpu/fast_core.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;

namespace {

struct Outcome
{
    std::uint64_t emergencies = 0;
    double ipc = 0.0;
    double throttledPct = 0.0;
};

Outcome
run(bool predictor, bool damper, bool split)
{
    sim::SystemConfig cfg;
    cfg.emergencyMargin = 0.04;
    cfg.recoveryCostCycles = 600;
    cfg.enableEmergencyPredictor = predictor;
    cfg.enableResonanceDamper = damper;
    cfg.damperParams.triggerAmplitude = 0.022;
    cfg.throttleFactor = 0.75;
    cfg.splitSupplies = split;
    sim::System sys(cfg);
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName("sphinx"), 800'000,
                              true),
        3));
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName("mcf"), 800'000, true),
        4));
    sys.run(800'000);

    Outcome o;
    o.emergencies = sys.emergencies();
    o.ipc = sys.core(0).counters().ipc() + sys.core(1).counters().ipc();
    std::uint64_t throttled = 0;
    if (sys.predictor())
        throttled += sys.predictor()->throttledCycles();
    if (sys.damper())
        throttled += sys.damper()->throttledCycles();
    o.throttledPct =
        100.0 * static_cast<double>(throttled) /
        static_cast<double>(sys.cycles());
    return o;
}

} // namespace

int
main()
{
    TextTable t("Mitigation baselines (sphinx+mcf, 4% margin, "
                "600-cycle recovery)");
    t.setHeader({"configuration", "emergencies", "combined IPC",
                 "throttled (%)"});
    const struct
    {
        const char *name;
        const char *tag;
        bool predictor, damper, split;
    } configs[] = {
        {"connected rail, no mitigation", "baseline", false, false, false},
        {"+ signature predictor [29]", "predictor", true, false, false},
        {"+ resonance damper [17,18]", "damper", false, true, false},
        {"+ both", "both", true, true, false},
        {"split per-core rails [1]", "split", false, false, true},
    };
    // The five runs are independent: fan them out over the pool.
    const auto outcomes =
        parallelMap<Outcome>(std::size(configs), [&](std::size_t i) {
            return run(configs[i].predictor, configs[i].damper,
                       configs[i].split);
        });
    auto result = bench::makeResult("ablation_mitigations");
    for (std::size_t i = 0; i < std::size(configs); ++i) {
        const auto &c = configs[i];
        const auto &o = outcomes[i];
        t.addRow({c.name, TextTable::num(o.emergencies),
                  TextTable::num(o.ipc, 2),
                  TextTable::num(o.throttledPct, 1)});
        result.metric(std::string("emergencies_") + c.tag,
                      static_cast<double>(o.emergencies));
        result.metric(std::string("ipc_") + c.tag, o.ipc);
        result.metric(std::string("throttled_pct_") + c.tag,
                      o.throttledPct);
    }
    t.print(std::cout);
    bench::emitResult(result);
    std::cout << "\nExpected: both mitigations cut emergencies at a"
                 " small throughput cost; split rails make noise"
                 " worse (the paper's footnote 3), which is why the"
                 " shared-rail + software-scheduling route wins.\n";
    return 0;
}
