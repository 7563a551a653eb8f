/**
 * @file
 * Batch-simulation unit tests (DESIGN.md §10): the knob-read
 * bookkeeping must implement the clone contract (a run that never
 * read a knob is interchangeable with a run under any other value of
 * it).  The wide kernels x variants x knobs oracle lives in
 * tests/stress/stress_batch_sim.cc; these tests pin the mechanism on a
 * handful of hand-picked cases.
 */

#include <gtest/gtest.h>

#include "aaws/experiment.h"
#include "sim/machine.h"

namespace aaws {
namespace {

// --- knob-read clone contract ------------------------------------------

TEST(MachineKnobTracking, StealKnobIsReadAtBoot)
{
    // Cores 1..n-1 enter the steal loop during boot(), so the steal
    // cost is consumed by every run: a steal sweep never clones.
    Kernel kernel = makeKernel("sampsort", 0x7777);
    MachineConfig config =
        configFor(kernel, SystemShape::s4B4L, Variant::base);
    Machine machine(config, kernel.dag);
    machine.run();
    EXPECT_TRUE(machine.knobRead(SweepKnob::steal_attempt_cycles));
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
    EXPECT_FALSE(machine.knobRead(SweepKnob::mug_interrupt_cycles));
}

TEST(MachineKnobTracking, MugKnobReadWhenMugging)
{
    // dict mugs on base+psm, so its mug latency shapes the history and
    // a mug sweep on it must not be served by clones.
    Kernel kernel = makeKernel("dict");
    MachineConfig config =
        configFor(kernel, SystemShape::s4B4L, Variant::base_psm);
    Machine machine(config, kernel.dag);
    SimResult result = machine.run();
    ASSERT_GT(result.mugs, 0u) << "dict no longer mugs on base+psm";
    EXPECT_TRUE(machine.knobRead(SweepKnob::mug_interrupt_cycles));
}

} // namespace
} // namespace aaws
