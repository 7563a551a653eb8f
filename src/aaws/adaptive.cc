#include "aaws/adaptive.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace aaws {

namespace {

/** Metrics of one evaluation run. */
struct Eval
{
    double seconds = 0.0;
    double power = 0.0;
    double edp = 0.0;
    std::vector<double> occupancy;
};

Eval
evaluate(const Kernel &kernel, SystemShape shape, Variant variant,
         const DvfsLookupTable &table)
{
    MachineConfig config = configFor(kernel, shape, variant);
    config.table_override = &table;
    SimResult result = Machine(config, kernel.dag).run();
    Eval eval;
    eval.seconds = result.exec_seconds;
    eval.power = result.avg_power;
    eval.edp = result.energy * result.exec_seconds;
    eval.occupancy = result.occupancy_seconds;
    return eval;
}

} // namespace

AdaptiveReport
adaptDvfsTable(const Kernel &kernel, SystemShape shape,
               const AdaptiveOptions &options)
{
    AAWS_ASSERT(options.voltage_step > 0.0 && options.max_accepted >= 0,
                "bad adaptive options");
    MachineConfig base_config = configFor(kernel, shape, options.variant);
    FirstOrderModel designer(base_config.table_params);
    const double v_min = base_config.table_params.v_min;
    const double v_max = base_config.table_params.v_max;
    // The refinement walks (big-active, little-active) cells, so it is
    // defined for two-cluster shapes only.
    const CoreTopology &topo = base_config.topology;
    AAWS_ASSERT(topo.numClusters() == 2,
                "adaptive tuning requires a two-cluster topology");
    int n_little = topo.cluster(1).count;

    // The same table the machine would build: designer estimates over
    // the machine's shape (see Machine's DVFS-table construction).
    AdaptiveReport report{
        DvfsLookupTable(designer,
                        topo.retargeted(base_config.table_params)),
        0, 0, 0, 0, 0, 0, {}};

    Eval best = evaluate(kernel, shape, options.variant, report.table);
    report.static_seconds = best.seconds;
    report.static_edp = best.edp;
    report.static_power = best.power;
    double power_cap = best.power * options.power_slack;

    while (static_cast<int>(report.accepted.size()) <
           options.max_accepted) {
        // Rank entries by observed occupancy time (the counters a real
        // adaptive controller samples).
        std::vector<std::pair<double, int>> ranked;
        for (size_t i = 0; i < best.occupancy.size(); ++i) {
            int ba = static_cast<int>(i) / (n_little + 1);
            int la = static_cast<int>(i) % (n_little + 1);
            if (ba == 0 && la == 0)
                continue; // nothing active: voltages unused
            if (best.occupancy[i] > 1e-9)
                ranked.push_back({best.occupancy[i],
                                  static_cast<int>(i)});
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });
        if (ranked.size() >
            static_cast<size_t>(options.entries_per_pass)) {
            ranked.resize(options.entries_per_pass);
        }

        bool improved = false;
        for (const auto &[occ, idx] : ranked) {
            (void)occ;
            int ba = idx / (n_little + 1);
            int la = idx % (n_little + 1);
            DvfsTableEntry current = report.table.at(ba, la);
            // Four axis-aligned voltage perturbations; skip axes whose
            // core type is inactive in this entry.
            DvfsTableEntry trials[4] = {current, current, current,
                                        current};
            int n_trials = 0;
            if (ba > 0) {
                trials[n_trials] = current;
                trials[n_trials].v[0] = std::clamp(
                    current.v[0] + options.voltage_step, v_min, v_max);
                n_trials++;
                trials[n_trials] = current;
                trials[n_trials].v[0] = std::clamp(
                    current.v[0] - options.voltage_step, v_min, v_max);
                n_trials++;
            }
            if (la > 0) {
                trials[n_trials] = current;
                trials[n_trials].v[1] = std::clamp(
                    current.v[1] + options.voltage_step, v_min,
                    v_max);
                n_trials++;
                trials[n_trials] = current;
                trials[n_trials].v[1] = std::clamp(
                    current.v[1] - options.voltage_step, v_min,
                    v_max);
                n_trials++;
            }
            for (int t = 0; t < n_trials; ++t) {
                if (std::abs(trials[t].v[0] - current.v[0]) < 1e-9 &&
                    std::abs(trials[t].v[1] - current.v[1]) <
                        1e-9) {
                    continue; // clamped to the same point
                }
                report.table.setEntry(ba, la, trials[t]);
                Eval trial = evaluate(kernel, shape, options.variant,
                                      report.table);
                bool better = trial.edp < best.edp * 0.999 &&
                              trial.power <= power_cap;
                if (better) {
                    best = trial;
                    report.accepted.push_back({ba, la, trials[t].v[0],
                                               trials[t].v[1],
                                               trial.edp});
                    improved = true;
                    break; // greedy: re-rank with fresh counters
                }
                report.table.setEntry(ba, la, current); // revert
            }
            if (improved)
                break;
        }
        if (!improved)
            break;
    }

    report.tuned_seconds = best.seconds;
    report.tuned_edp = best.edp;
    report.tuned_power = best.power;
    return report;
}

} // namespace aaws
