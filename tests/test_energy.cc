/**
 * @file
 * Tests of the energy accountant (timeline integration, per-state
 * breakdown) and the component-level microbenchmark energy model.
 */

#include <gtest/gtest.h>

#include "energy/accountant.h"
#include "energy/instr_mix.h"
#include "energy/microbench.h"
#include "kernels/table3.h"

namespace aaws {
namespace {

class AccountantFixture : public ::testing::Test
{
  protected:
    FirstOrderModel model_;
    /** Core 0 big, core 1 little. */
    CoreTopology topo_ = CoreTopology::bigLittle(1, 1, model_.params());
};

TEST_F(AccountantFixture, ActiveIntervalIntegratesExactly)
{
    EnergyAccountant acct(model_, topo_);
    acct.setState(0, 0.0, PowerState::active, 1.0);
    acct.finish(2.0);
    EXPECT_NEAR(acct.coreEnergy(0).active,
                2.0 * model_.activePower(CoreType::big, 1.0), 1e-9);
    EXPECT_DOUBLE_EQ(acct.coreEnergy(0).waiting, 0.0);
}

TEST_F(AccountantFixture, WaitingIntervalUsesWaitingPower)
{
    EnergyAccountant acct(model_, topo_);
    acct.setState(1, 0.0, PowerState::waiting, 0.7);
    acct.finish(3.0);
    EXPECT_NEAR(acct.coreEnergy(1).waiting,
                3.0 * model_.waitingPower(CoreType::little, 0.7), 1e-9);
}

TEST_F(AccountantFixture, OffIntervalsCostNothing)
{
    EnergyAccountant acct(model_, topo_);
    acct.finish(5.0);
    EXPECT_DOUBLE_EQ(acct.totalEnergy(), 0.0);
}

TEST_F(AccountantFixture, VoltageChangeSplitsTheInterval)
{
    EnergyAccountant acct(model_, topo_);
    acct.setState(0, 0.0, PowerState::active, 1.0);
    acct.setState(0, 1.0, PowerState::active, 1.3);
    acct.finish(2.0);
    double expected = model_.activePower(CoreType::big, 1.0) +
                      model_.activePower(CoreType::big, 1.3);
    EXPECT_NEAR(acct.coreEnergy(0).total(), expected, 1e-9);
}

TEST_F(AccountantFixture, MixedStatesAccumulateSeparately)
{
    EnergyAccountant acct(model_, topo_);
    acct.setState(0, 0.0, PowerState::active, 1.0);
    acct.setState(0, 1.0, PowerState::waiting, 1.0);
    acct.finish(2.5);
    EXPECT_NEAR(acct.coreEnergy(0).active,
                model_.activePower(CoreType::big, 1.0), 1e-9);
    EXPECT_NEAR(acct.coreEnergy(0).waiting,
                1.5 * model_.waitingPower(CoreType::big, 1.0), 1e-9);
}

TEST_F(AccountantFixture, AveragePowerIsEnergyOverTime)
{
    EnergyAccountant acct(model_, topo_);
    acct.setState(0, 0.0, PowerState::active, 1.0);
    acct.setState(1, 0.0, PowerState::active, 1.0);
    acct.finish(4.0);
    EXPECT_NEAR(acct.averagePower(),
                model_.activePower(CoreType::big, 1.0) +
                    model_.activePower(CoreType::little, 1.0),
                1e-9);
}

TEST_F(AccountantFixture, WaitingEnergyAggregatesAcrossCores)
{
    EnergyAccountant acct(model_, topo_);
    acct.setState(0, 0.0, PowerState::waiting, 1.0);
    acct.setState(1, 0.0, PowerState::waiting, 1.0);
    acct.finish(1.0);
    EXPECT_NEAR(acct.waitingEnergy(),
                model_.waitingPower(CoreType::big, 1.0) +
                    model_.waitingPower(CoreType::little, 1.0),
                1e-9);
}

TEST_F(AccountantFixture, TimeGoingBackwardsPanics)
{
    EnergyAccountant acct(model_, topo_);
    acct.setState(0, 1.0, PowerState::active, 1.0);
    EXPECT_DEATH(acct.setState(0, 0.5, PowerState::active, 1.0),
                 "backwards");
}

TEST(Microbench, SuiteCoversInstructionClasses)
{
    auto suite = makeMicrobenchSuite();
    EXPECT_GE(suite.size(), 10u);
}

TEST(Microbench, BigCoreCostsMorePerInstruction)
{
    EventEnergyTable table;
    for (const auto &mb : makeMicrobenchSuite()) {
        EXPECT_GT(microbenchEnergyPj(table, CoreType::big, mb),
                  microbenchEnergyPj(table, CoreType::little, mb))
            << mb.name;
    }
}

TEST(Microbench, DerivedAlphaNearPaperEstimate)
{
    // The component model should independently reproduce the alpha ~ 3
    // energy ratio the first-order model assumes.
    EventEnergyTable table;
    double alpha = deriveAlpha(table, makeMicrobenchSuite());
    EXPECT_GT(alpha, 2.3);
    EXPECT_LT(alpha, 3.7);
}

TEST(Microbench, DivIsTheMostExpensiveIntOp)
{
    EventEnergyTable table;
    EXPECT_GT(table.energyPj(CoreType::little, EnergyEvent::int_div),
              table.energyPj(CoreType::little, EnergyEvent::int_mul));
    EXPECT_GT(table.energyPj(CoreType::little, EnergyEvent::int_mul),
              table.energyPj(CoreType::little, EnergyEvent::int_alu));
}

TEST(Microbench, LittleCoreHasNoOoOStructures)
{
    EventEnergyTable table;
    EXPECT_DOUBLE_EQ(
        table.energyPj(CoreType::little, EnergyEvent::rename_dispatch),
        0.0);
    EXPECT_DOUBLE_EQ(table.energyPj(CoreType::little, EnergyEvent::rob_lsq),
                     0.0);
    EXPECT_DOUBLE_EQ(table.energyPj(CoreType::little, EnergyEvent::bpred),
                     0.0);
}

TEST(Microbench, VoltageScalingIsQuadratic)
{
    EXPECT_NEAR(EventEnergyTable::scaleToVoltage(10.0, 1.3, 1.0), 16.9,
                1e-9);
    EXPECT_NEAR(EventEnergyTable::scaleToVoltage(10.0, 0.7, 1.0), 4.9,
                1e-9);
}

TEST(Microbench, EventNamesAreStable)
{
    EXPECT_STREQ(energyEventName(EnergyEvent::int_alu), "int_alu");
    EXPECT_STREQ(energyEventName(EnergyEvent::bpred), "bpred");
}

TEST(InstrMix, AllKernelsHaveValidMixes)
{
    for (const auto &row : table3()) {
        const InstrMix &mix = instrMixFor(row.name);
        EXPECT_NO_FATAL_FAILURE(mix.validate());
        EXPECT_GE(mix.aluFraction(), 0.0) << row.name;
    }
}

TEST(InstrMix, UnknownKernelIsFatal)
{
    EXPECT_DEATH((void)instrMixFor("nope"), "no instruction mix");
}

TEST(InstrMix, ComponentAlphaInPlausibleBand)
{
    EventEnergyTable table;
    for (const auto &row : table3()) {
        double alpha = componentAlpha(table, instrMixFor(row.name));
        EXPECT_GT(alpha, 1.8) << row.name;
        EXPECT_LT(alpha, 4.5) << row.name;
        // Agreement with the Table III ERatio within ~40%.
        EXPECT_NEAR(alpha / row.alpha, 1.0, 0.4) << row.name;
    }
}

TEST(InstrMix, FpHeavyMixesCostMorePerInstruction)
{
    EventEnergyTable table;
    double fp = energyPerInstrPj(table, CoreType::little,
                                 instrMixFor("nbody"));
    double branchy = energyPerInstrPj(table, CoreType::little,
                                      instrMixFor("ksack"));
    EXPECT_GT(fp, branchy);
}

TEST(InstrMix, BigOverheadDilutesWithExpensiveInstructions)
{
    // The big core's fixed OoO bookkeeping is a constant adder, so
    // mixes with expensive little-core instructions (FP) imply a lower
    // alpha than cheap branchy mixes.
    EventEnergyTable table;
    double alpha_fp = componentAlpha(table, instrMixFor("nbody"));
    double alpha_branch = componentAlpha(table, instrMixFor("ksack"));
    EXPECT_LT(alpha_fp, alpha_branch);
}

TEST(InstrMix, ValidateRejectsOverfullMix)
{
    InstrMix mix;
    mix.loads = 0.8;
    mix.fp_mul = 0.5;
    EXPECT_DEATH(mix.validate(), "exceed");
}

} // namespace
} // namespace aaws
