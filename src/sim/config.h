/**
 * @file
 * Machine configuration for the cycle-approximate multicore simulator.
 *
 * The machine shape is a `CoreTopology` (model/topology.h): an ordered
 * list of core clusters, fastest first, each with its own class
 * parameters and DVFS-rail domain.  The paper's Table I machines are
 * the two-cluster presets — 4B4L and 1B7L at a 333 MHz nominal
 * frequency with per-core integrated voltage regulators (40 ns /
 * 0.15 V transition model) — but any `topologyFor`-style preset
 * ("2b2m4l", ":pc" shared rails, ...) drops in through the `topology`
 * field.  Core performance and energy are parameterized per
 * application through `app_params` (alpha, beta, and little-core IPC
 * from Table III), while the DVFS lookup table is always generated
 * from the designer's system-wide estimates in `table_params`
 * (alpha = 3, beta = 2), exactly as Section III-A prescribes; an
 * N-cluster topology derives its per-cluster table parameters from the
 * same estimates (CoreTopology::retargeted).
 *
 * One rule ties the shape to the application: the Machine simulates
 * `topology.retargeted(app_params)`, so preset clusters always run
 * under the final `app_params` no matter whether the topology or the
 * application model was set first (configFor picks the Table I preset
 * before it fills in the kernel's parameters).  Custom ('c') clusters
 * keep their own parameters.
 */

#ifndef AAWS_SIM_CONFIG_H
#define AAWS_SIM_CONFIG_H

#include "dvfs/controller.h"
#include "model/topology.h"
#include "sched/policy_stack.h"
#include "sim/cost_model.h"

namespace aaws {

/** Full configuration of one simulated machine + runtime variant. */
struct MachineConfig
{
    /**
     * Machine shape, fastest cluster first.  Preset clusters are
     * re-derived from `app_params` when the machine is built (see
     * resolvedTopology()).  Defaults to the paper's 4B4L machine.
     */
    CoreTopology topology = CoreTopology::bigLittle(4, 4, ModelParams{});
    /** Per-application model (alpha, beta, ipc_little from Table III). */
    ModelParams app_params;
    /** Designer's system-wide model used to build the DVFS table. */
    ModelParams table_params;
    /** Voltage techniques applied by the DVFS controller. */
    DvfsPolicy policy;
    /** Enable work-mugging (Section III-B). */
    bool work_mugging = false;
    /** Enable work-biasing (Section III-C; part of the baseline). */
    bool work_biasing = true;
    /**
     * Use random victim selection instead of occupancy-based (the
     * baseline follows [Contreras & Martonosi]; random is the classic
     * Cilk policy, kept for the ablation bench).  Takes precedence
     * over `victim` for backward compatibility.
     */
    bool random_victim = false;
    /**
     * Victim-selection policy when `random_victim` is false:
     * occupancy (the baseline) or criticality (prefer victims hosted
     * on faster clusters, Costero-style; see sched/victim.h).
     */
    sched::VictimPolicy victim = sched::VictimPolicy::occupancy;
    /** Runtime and mug cost constants. */
    RuntimeCosts costs;
    /** Regulator transition latency per voltage step. */
    double regulator_ns_per_step = 40.0;
    double regulator_volts_per_step = 0.15;
    /** Record an activity trace (Figures 1 and 7). */
    bool collect_trace = false;
    /** Livelock guard: panic with a state dump past this many events. */
    uint64_t max_events = 400'000'000;
    /**
     * Application L2 misses per kilo-instruction (Table III).  Together
     * with `mem_contention` this models shared-L2/memory contention: the
     * effective IPC of every active core is divided by
     * (1 + mem_contention * mpki * (active_cores - 1)), the first-order
     * queueing effect a gem5 MESI/SimpleMemory system exhibits.
     */
    double mpki = 0.0;
    /** Contention slope (calibrated against Table III speedups). */
    double mem_contention = 0.003;
    /**
     * Optional externally supplied DVFS lookup table (borrowed; must
     * outlive the machine).  When null the machine generates the table
     * from `table_params`.  Used by the adaptive controller.
     */
    const DvfsLookupTable *table_override = nullptr;

    /**
     * The topology the machine simulates: `topology` with its preset
     * clusters re-derived from the final `app_params`.
     */
    CoreTopology
    resolvedTopology() const
    {
        return topology.retargeted(app_params);
    }

    /**
     * The flat sched::PolicyConfig this configuration describes — the
     * single source the Machine assembles its policy stack from (and
     * the same shape runtime::PoolOptions consumes natively).
     */
    sched::PolicyConfig
    schedPolicy() const
    {
        sched::PolicyConfig sp;
        sp.victim = random_victim ? sched::VictimPolicy::random : victim;
        sp.work_biasing = work_biasing;
        sp.work_mugging = work_mugging;
        sp.serial_sprinting = policy.serial_sprinting;
        sp.work_pacing = policy.work_pacing;
        sp.work_sprinting = policy.work_sprinting;
        return sp;
    }

    /** 4 big + 4 little commercial-style configuration. */
    static MachineConfig system4B4L();
    /** 1 big + 7 little configuration. */
    static MachineConfig system1B7L();
};

} // namespace aaws

#endif // AAWS_SIM_CONFIG_H
