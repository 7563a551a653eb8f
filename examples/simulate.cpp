/**
 * @file
 * Command-line driver for the asymmetric-machine simulator: run any
 * kernel x system x variant and print a gem5-style stats report
 * (per-core activity/energy, region breakdown, scheduler counters),
 * optionally with the activity profile.
 *
 * Usage: simulate <kernel|list> [4B4L|1B7L] [variant] [--trace]
 *        [--stats]
 *   e.g. simulate radix-2 4B4L base+psm --trace --stats
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "aaws/experiment.h"
#include "sim/stats_writer.h"

using namespace aaws;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <kernel|list> [4B4L|1B7L] [variant] "
                     "[--trace]\n", argv[0]);
        return 1;
    }
    if (std::strcmp(argv[1], "list") == 0) {
        for (const auto &name : kernelNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    std::string kernel_name = argv[1];
    SystemShape shape = SystemShape::s4B4L;
    Variant variant = Variant::base_psm;
    bool trace = false;
    bool stats = false;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "4B4L")
            shape = SystemShape::s4B4L;
        else if (arg == "1B7L")
            shape = SystemShape::s1B7L;
        else if (arg == "--trace")
            trace = true;
        else if (arg == "--stats")
            stats = true;
        else
            variant = variantFromName(arg);
    }

    Kernel kernel = makeKernel(kernel_name);
    RunResult run = runKernel(kernel, shape, variant, trace);
    const SimResult &r = run.sim;

    std::printf("kernel            %s (%s, %s)\n", kernel_name.c_str(),
                kernel.stats.suite, kernel.stats.pm);
    std::printf("system / variant  %s / %s\n", systemName(shape),
                variantName(variant));
    std::printf("exec time         %.3f ms\n", r.exec_seconds * 1e3);
    std::printf("instructions      %.1f M\n", r.instructions / 1e6);
    std::printf("energy            %.4g (avg power %.4g)\n", r.energy,
                r.avg_power);
    std::printf("tasks / steals    %llu / %llu (+%llu failed)\n",
                (unsigned long long)r.tasks_executed,
                (unsigned long long)r.steals,
                (unsigned long long)r.failed_steals);
    std::printf("mugs / dvfs trans %llu (+%llu aborted) / %llu\n",
                (unsigned long long)r.mugs,
                (unsigned long long)r.aborted_mugs,
                (unsigned long long)r.transitions);
    const RegionBreakdown &g = r.regions;
    std::printf("regions           serial %.1f%%  HP %.1f%%  BI<LA "
                "%.1f%%  BI>=LA %.1f%%  oLP %.1f%%\n",
                100 * g.serial / g.total(), 100 * g.hp / g.total(),
                100 * g.lp_bi_lt_la / g.total(),
                100 * g.lp_bi_ge_la / g.total(),
                100 * g.lp_other / g.total());

    std::printf("\nper-core stats:\n");
    std::printf("  %-6s %-7s %10s %10s %10s\n", "core", "type",
                "busy(ms)", "wait(ms)", "energy");
    MachineConfig config = configFor(kernel, shape, variant);
    const CoreTopology &topo = config.topology;
    for (size_t c = 0; c < r.core_stats.size(); ++c) {
        const CoreStats &s = r.core_stats[c];
        std::printf("  %-6zu %-7s %10.3f %10.3f %10.4g\n", c,
                    topo.cluster(topo.clusterOf(static_cast<int>(c)))
                        .name.c_str(),
                    s.busy_seconds * 1e3, s.waiting_seconds * 1e3,
                    s.energy);
    }

    if (stats) {
        std::printf("\n%s", formatStats(config, r).c_str());
    }

    if (trace) {
        std::printf("\nactivity profile:\n%s",
                    r.trace
                        .renderAscii(static_cast<int>(r.core_stats.size()),
                                     100, 1.0)
                        .c_str());
    }
    return 0;
}
