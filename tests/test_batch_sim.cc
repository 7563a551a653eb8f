/**
 * @file
 * Batch-simulation unit tests (DESIGN.md §10): snapshots must
 * round-trip through restore into a bit-identical continuation, and the
 * knob-first-read bookkeeping must implement the fork contract (a knob
 * never read before event E makes configs differing only in that knob
 * interchangeable through E).  The wide kernels x variants x seeds
 * sweep lives in tests/stress/stress_batch_sim.cc; these tests pin the
 * mechanisms on a handful of hand-picked cases.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "aaws/experiment.h"
#include "sim/machine.h"
#include "sim/result_json.h"
#include "stress/sim_compare.h"

namespace aaws {
namespace {

// --- snapshot / restore -----------------------------------------------------

TEST(MachineSnapshot, RoundTripContinuationIsBitIdentical)
{
    Kernel kernel = makeKernel("sampsort", 0x4444);
    MachineConfig config =
        configFor(kernel, SystemShape::s4B4L, Variant::base_psm);

    SimResult reference = Machine(config, kernel.dag).run();
    const uint64_t total = reference.sim_events;
    ASSERT_GT(total, 100u);

    // Snapshot at several depths, restore into a fresh machine, and
    // the continuation must replay the reference bit-for-bit.
    for (uint64_t cut : {uint64_t{1}, total / 3, total / 2, total - 1}) {
        SCOPED_TRACE(testing::Message() << "cut at event " << cut);
        Machine prefix(config, kernel.dag);
        EXPECT_EQ(prefix.runEvents(cut), cut);
        Machine::Snapshot snap = prefix.snapshot();

        Machine forked(config, kernel.dag);
        forked.restore(snap);
        SimResult continued = forked.resumeRun();
        stress::expectIdenticalResults(reference, continued);
        EXPECT_EQ(simResultToJson(reference), simResultToJson(continued));
    }
}

TEST(MachineSnapshot, SnapshotSourceContinuesUnperturbed)
{
    // Taking a snapshot must not disturb the machine it came from.
    Kernel kernel = makeKernel("mis", 0x5555);
    MachineConfig config =
        configFor(kernel, SystemShape::s1B7L, Variant::base_ps);

    SimResult reference = Machine(config, kernel.dag).run();

    Machine machine(config, kernel.dag);
    machine.runEvents(reference.sim_events / 2);
    Machine::Snapshot snap = machine.snapshot();
    (void)snap;
    SimResult continued = machine.resumeRun();
    stress::expectIdenticalResults(reference, continued);
}

TEST(MachineSnapshot, RestoreIsRepeatable)
{
    // One snapshot, many forks: each continuation must be identical
    // (the sweep engine forks the same prefix once per sweep value).
    Kernel kernel = makeKernel("cilksort", 0x6666);
    MachineConfig config =
        configFor(kernel, SystemShape::s4B4L, Variant::base_psm);

    SimResult reference = Machine(config, kernel.dag).run();
    Machine prefix(config, kernel.dag);
    prefix.runEvents(reference.sim_events / 2);
    Machine::Snapshot snap = prefix.snapshot();

    for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE(testing::Message() << "fork " << i);
        Machine forked(config, kernel.dag);
        forked.restore(snap);
        stress::expectIdenticalResults(reference, forked.resumeRun());
    }
}

// --- knob-first-read fork contract ------------------------------------------

TEST(MachineKnobTracking, StealKnobIsReadAtBoot)
{
    // Cores 1..n-1 enter the steal loop during boot(), so the steal
    // cost is consumed before the first event: forking on it can never
    // skip any prefix.
    Kernel kernel = makeKernel("sampsort", 0x7777);
    MachineConfig config =
        configFor(kernel, SystemShape::s4B4L, Variant::base);
    Machine machine(config, kernel.dag);
    machine.run();
    EXPECT_EQ(machine.knobFirstReadEvent(SweepKnob::steal_attempt_cycles),
              0u);
}

TEST(MachineKnobTracking, MugKnobNeverReadWithoutMugging)
{
    // Variants without work-mugging never call issueMug, so the mug
    // interrupt latency is never consumed: any two mug-latency values
    // are interchangeable for the whole run (the engine's clone case).
    Kernel kernel = makeKernel("sampsort", 0x8888);
    MachineConfig config =
        configFor(kernel, SystemShape::s4B4L, Variant::base_ps);
    Machine machine(config, kernel.dag);
    SimResult result = machine.run();
    EXPECT_EQ(result.mugs, 0u);
    EXPECT_EQ(machine.knobFirstReadEvent(SweepKnob::mug_interrupt_cycles),
              Machine::kKnobNeverRead);
}

TEST(MachineKnobTracking, ForkBeforeMugKnobReadMatchesFromScratch)
{
    // The engine's fork path: simulate a reference run, find where the
    // mug knob is first read, replay a fresh prefix to just before
    // that event, snapshot, and fork under a *different* mug latency.
    // The continuation must equal a from-scratch run of the new
    // config.  This is the mechanism behind batched sens_mug_latency.
    Kernel kernel = makeKernel("sampsort", 0x9999);
    MachineConfig ref_config =
        configFor(kernel, SystemShape::s4B4L, Variant::base_psm);

    Machine reference(ref_config, kernel.dag);
    SimResult ref_result = reference.run();
    const uint64_t first_read =
        reference.knobFirstReadEvent(SweepKnob::mug_interrupt_cycles);
    ASSERT_GT(ref_result.mugs, 0u) << "kernel/seed no longer mugs; "
                                      "pick a different seed";
    ASSERT_NE(first_read, Machine::kKnobNeverRead);
    ASSERT_GT(first_read, 0u);

    Machine prefix(ref_config, kernel.dag);
    prefix.runEvents(first_read - 1);
    Machine::Snapshot snap = prefix.snapshot();

    for (uint32_t latency : {100u, 400u, 1000u}) {
        SCOPED_TRACE(testing::Message() << "mug latency " << latency);
        MachineConfig swept = ref_config;
        swept.costs.mug_interrupt_cycles = latency;

        Machine forked(swept, kernel.dag);
        forked.restore(snap);
        SimResult from_fork = forked.resumeRun();

        SimResult from_scratch = Machine(swept, kernel.dag).run();
        stress::expectIdenticalResults(from_scratch, from_fork);
        EXPECT_EQ(simResultToJson(from_scratch),
                  simResultToJson(from_fork));
    }
}

} // namespace
} // namespace aaws
