/**
 * @file
 * Batch-execution equivalence fuzz (DESIGN.md §10): the wide sweep
 * behind the unit tests in tests/test_batch_sim.cc.
 *
 * Two promises are checked, compared as serialized SimResult JSON, so
 * every statistic, per-core counter, and double bit pattern
 * participates:
 *
 *  1. The clone contract: for every SweepKnob x kernel x variant, a
 *     run that reports a knob as never read is byte-identical to a
 *     from-scratch run under a different value of that knob.
 *  2. The engine's batched execution (never-read clones) and its
 *     worker count are invisible in the results: jobs=1/jobs=N,
 *     batching on/off all produce byte-equal result arrays (campaign
 *     size scaled by AAWS_BATCH_FUZZ_SEEDS; 50 in the uninstrumented
 *     build).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "aaws/experiment.h"
#include "exp/engine.h"
#include "kernels/registry.h"
#include "sim/machine.h"
#include "sim/result_json.h"
#include "stress_util.h"

namespace aaws {
namespace {

/** Small, fast kernels so the seed sweep stays time-boxed. */
const char *const kFuzzKernels[] = {"dict", "sampsort", "bfs-d",
                                    "cilksort"};

int64_t
fuzzSeeds()
{
    return stress::envKnob("AAWS_BATCH_FUZZ_SEEDS", 50, 12);
}

/** `config` with `knob` moved off its value. */
MachineConfig
withOtherKnobValue(MachineConfig config, SweepKnob knob)
{
    switch (knob) {
      case SweepKnob::steal_attempt_cycles:
        config.costs.steal_attempt_cycles =
            3 * config.costs.steal_attempt_cycles + 7;
        break;
      case SweepKnob::mug_interrupt_cycles:
        config.costs.mug_interrupt_cycles =
            3 * config.costs.mug_interrupt_cycles + 7;
        break;
      case SweepKnob::regulator_ns_per_step:
        config.regulator_ns_per_step =
            3.0 * config.regulator_ns_per_step + 7.0;
        break;
    }
    return config;
}

TEST(BatchFuzz, NeverReadKnobsAreClones)
{
    const uint64_t seed = stress::nthSeed(stress::baseSeed(), 3000);
    int clones_checked = 0;
    for (const std::string &name : kernelNames()) {
        Kernel kernel = makeKernel(name, seed);
        for (Variant variant : allVariants()) {
            MachineConfig config =
                configFor(kernel, SystemShape::s4B4L, variant);
            Machine reference(config, kernel.dag);
            const std::string expected = simResultToJson(reference.run());
            for (int k = 0; k < kNumSweepKnobs; ++k) {
                const auto knob = static_cast<SweepKnob>(k);
                if (reference.knobRead(knob))
                    continue;
                SCOPED_TRACE(testing::Message()
                             << name << " " << variantName(variant)
                             << " knob " << k << ", seed 0x" << std::hex
                             << seed);
                MachineConfig other = withOtherKnobValue(config, knob);
                EXPECT_EQ(expected,
                          simResultToJson(Machine(other, kernel.dag).run()))
                    << "a never-read knob changed the result";
                clones_checked++;
            }
        }
    }
    EXPECT_GT(clones_checked, 0) << "no never-read knob: oracle is vacuous";
}

/**
 * The engine batch a fig08+sensitivity campaign produces: kernels x
 * variants plus a one-knob sweep row (plain or clone path, depending on
 * whether the variant ever reads the knob).
 */
std::vector<exp::RunSpec>
campaignSpecs(uint64_t base, int64_t seed_count)
{
    std::vector<exp::RunSpec> specs;
    for (int64_t s = 0; s < seed_count; ++s) {
        const char *name = kFuzzKernels[s % std::size(kFuzzKernels)];
        uint64_t seed = stress::nthSeed(base, 1000 + s);
        for (Variant variant : allVariants())
            specs.emplace_back(name, SystemShape::s4B4L, variant, seed);
    }
    // Plain sweep units: mug-latency sweep on a mugging variant...
    for (uint64_t cycles : {150ull, 450ull, 900ull}) {
        exp::RunSpec spec("dict", SystemShape::s4B4L, Variant::base_psm,
                          stress::nthSeed(base, 2000));
        spec.overrides.mug_interrupt_cycles = cycles;
        specs.push_back(spec);
    }
    // ...and clone candidates: the same sweep on a variant that never
    // mugs, so the knob is provably never read.
    for (uint64_t cycles : {150ull, 450ull, 900ull}) {
        exp::RunSpec spec("dict", SystemShape::s4B4L, Variant::base_ps,
                          stress::nthSeed(base, 2001));
        spec.overrides.mug_interrupt_cycles = cycles;
        specs.push_back(spec);
    }
    return specs;
}

std::vector<std::string>
resultLines(const std::vector<RunResult> &results)
{
    std::vector<std::string> lines;
    lines.reserve(results.size());
    for (const RunResult &result : results)
        lines.push_back(exp::runResultToJson(result));
    return lines;
}

TEST(BatchFuzz, EngineBatchingAndJobsAreInvisibleInResults)
{
    const int64_t seed_count = std::max<int64_t>(fuzzSeeds() / 10, 3);
    std::vector<exp::RunSpec> specs =
        campaignSpecs(stress::baseSeed(), seed_count);

    exp::EngineOptions options;
    options.jobs = 1;
    options.use_cache = false;
    options.progress = false;
    options.batching = false;
    exp::BatchStats serial_stats;
    std::vector<RunResult> serial =
        exp::runBatch(specs, options, &serial_stats);
    EXPECT_EQ(serial_stats.fork_runs, 0u);
    EXPECT_EQ(serial_stats.cloned_results, 0u);

    options.batching = true;
    exp::BatchStats batched_stats;
    std::vector<RunResult> batched =
        exp::runBatch(specs, options, &batched_stats);
    EXPECT_GT(batched_stats.cloned_results, 0u)
        << "campaign should exercise the sweep path";
    EXPECT_EQ(resultLines(serial), resultLines(batched))
        << "batched execution changed results";

    options.jobs = static_cast<int>(
        stress::envKnob("AAWS_EXP_STRESS_JOBS", 8, 4));
    std::vector<RunResult> parallel = exp::runBatch(specs, options);
    EXPECT_EQ(resultLines(serial), resultLines(parallel))
        << "worker count changed batched results";
}

} // namespace
} // namespace aaws
