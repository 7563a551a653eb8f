/**
 * @file
 * Batch-execution equivalence fuzz (DESIGN.md §10): the wide sweep
 * behind the unit tests in tests/test_batch_sim.cc.
 *
 * Two promises are fuzzed across kernels, variants and seeds (scaled
 * by AAWS_BATCH_FUZZ_SEEDS; 50 in the uninstrumented build), compared
 * as serialized SimResult JSON, so every statistic, per-core counter,
 * and double bit pattern participates:
 *
 *  1. Snapshot/restore continuations replay the reference run
 *     bit-for-bit from arbitrary cut points.
 *  2. The engine's batched execution (snapshot forks, never-read
 *     clones) and its worker count are invisible in the results:
 *     jobs=1/jobs=N, batching on/off all produce byte-equal result
 *     arrays.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "aaws/experiment.h"
#include "exp/engine.h"
#include "sim/machine.h"
#include "sim/result_json.h"
#include "sim_compare.h"
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

TEST(BatchFuzz, SnapshotForkContinuationsMatchReference)
{
    const uint64_t base = stress::baseSeed() ^ 0xF0F0'F0F0ull;
    const int64_t rounds = std::max<int64_t>(fuzzSeeds() / 4, 4);
    for (int64_t round = 0; round < rounds; ++round) {
        const char *name =
            kFuzzKernels[round % std::size(kFuzzKernels)];
        const uint64_t seed = stress::nthSeed(base, round);
        SCOPED_TRACE(testing::Message()
                     << "round " << round << ": kernel " << name
                     << ", seed 0x" << std::hex << seed);
        Kernel kernel = makeKernel(name, seed);
        MachineConfig config =
            configFor(kernel, SystemShape::s4B4L, Variant::base_psm);
        SimResult reference = Machine(config, kernel.dag).run();
        ASSERT_GT(reference.sim_events, 10u);

        // Pseudo-random cut point strictly inside the run.
        const uint64_t cut =
            1 + stress::nthSeed(seed, 1) % (reference.sim_events - 1);
        SCOPED_TRACE(testing::Message() << "cut at event " << std::dec
                                        << cut);
        Machine prefix(config, kernel.dag);
        ASSERT_EQ(prefix.runEvents(cut), cut);
        Machine::Snapshot snap = prefix.snapshot();

        Machine forked(config, kernel.dag);
        forked.restore(snap);
        SimResult continued = forked.resumeRun();
        EXPECT_EQ(simResultToJson(reference), simResultToJson(continued))
            << "snapshot/restore continuation diverged";
    }
}

/**
 * The engine batch a fig08+sensitivity campaign produces: kernels x
 * variants plus a one-knob sweep row (fork or clone path, depending on
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
    // Fork candidates: mug-latency sweep on a mugging variant...
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
    EXPECT_GT(batched_stats.fork_runs + batched_stats.cloned_results, 0u)
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
