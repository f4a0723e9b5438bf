// Regression net for the reproduction itself: the paper's headline numbers
// as asserted bands. If a refactor drifts the calibration out of the
// paper's regime, these fail before EXPERIMENTS.md quietly rots.
#include <gtest/gtest.h>

#include <iomanip>
#include <ostream>

#include "core/scenario_runner.h"
#include "hw/iot_hub.h"
#include "sim/simulator.h"

namespace iotsim::core {
namespace {

using apps::AppId;

ScenarioResult run(std::vector<AppId> ids, Scheme scheme, int windows = 3) {
  return run_scenario(
      Scenario::builder().apps(std::move(ids)).scheme(scheme).windows(windows).build());
}

// ---- Fig. 1: the 9.5× idle ratio (band: 8–13×) ----------------------------

TEST(PaperReproduction, IdleRatioNearPaper) {
  sim::Simulator sim;
  energy::EnergyAccountant acct;
  hw::IotHub hub{sim, acct, hw::default_hub_spec()};
  sim.run_until(sim::SimTime::origin() + sim::Duration::sec(2));
  hub.flush_power();
  const double idle_w =
      energy::EnergyReport::from_accountant(acct, sim::Duration::sec(2)).average_watts();

  double sum_w = 0.0;
  for (auto id : apps::kLightweightApps) {
    sum_w += run({id}, Scheme::kBaseline).average_watts();
  }
  const double ratio = (sum_w / 10.0) / idle_w;
  EXPECT_GT(ratio, 8.0);   // paper: 9.5×
  EXPECT_LT(ratio, 13.0);
}

// ---- Fig. 10: per-app savings bands ----------------------------------------

struct SavingsBand {
  AppId id;
  double batching_lo, batching_hi;
  double com_lo, com_hi;
};

// gtest would otherwise name each case by a byte dump of the struct, which
// includes the uninitialised padding after `id` and so changes on every run.
void PrintTo(const SavingsBand& band, std::ostream* os) {
  *os << apps::code_of(band.id) << std::fixed << std::setprecision(2) << " batching ["
      << band.batching_lo << ", " << band.batching_hi << "] com [" << band.com_lo << ", "
      << band.com_hi << "]";
}

class SavingsSweep : public ::testing::TestWithParam<SavingsBand> {};

TEST_P(SavingsSweep, WithinBand) {
  const auto& band = GetParam();
  const auto base = run({band.id}, Scheme::kBaseline);
  const double batching = run({band.id}, Scheme::kBatching).energy.savings_vs(base.energy);
  const double com = run({band.id}, Scheme::kCom).energy.savings_vs(base.energy);
  EXPECT_GE(batching, band.batching_lo) << "batching";
  EXPECT_LE(batching, band.batching_hi) << "batching";
  EXPECT_GE(com, band.com_lo) << "com";
  EXPECT_LE(com, band.com_hi) << "com";
}

// Bands bracket both the paper's figures and this model's measured values.
INSTANTIATE_TEST_SUITE_P(
    Apps, SavingsSweep,
    ::testing::Values(SavingsBand{AppId::kA1CoapServer, 0.45, 0.72, 0.70, 0.92},
                      SavingsBand{AppId::kA2StepCounter, 0.45, 0.72, 0.70, 0.92},
                      SavingsBand{AppId::kA3ArduinoJson, 0.50, 0.78, 0.70, 0.92},
                      SavingsBand{AppId::kA4M2x, 0.35, 0.65, 0.60, 0.90},
                      SavingsBand{AppId::kA5Blynk, 0.30, 0.60, 0.65, 0.92},
                      SavingsBand{AppId::kA6Dropbox, 0.40, 0.70, 0.65, 0.92},
                      SavingsBand{AppId::kA7Earthquake, 0.45, 0.72, 0.70, 0.92},
                      SavingsBand{AppId::kA8Heartbeat, 0.50, 0.78, 0.55, 0.85},
                      SavingsBand{AppId::kA9JpegDecoder, 0.25, 0.60, 0.70, 0.92},
                      SavingsBand{AppId::kA10Fingerprint, 0.45, 0.75, 0.65, 0.92}),
    [](const auto& info) { return std::string{apps::code_of(info.param.id)}; });

TEST(PaperReproduction, AverageSavingsNearHeadline) {
  double batching_sum = 0.0, com_sum = 0.0;
  for (auto id : apps::kLightweightApps) {
    const auto base = run({id}, Scheme::kBaseline);
    batching_sum += run({id}, Scheme::kBatching).energy.savings_vs(base.energy);
    com_sum += run({id}, Scheme::kCom).energy.savings_vs(base.energy);
  }
  // Paper: 52% and 85%.
  EXPECT_NEAR(batching_sum / 10.0, 0.52, 0.10);
  EXPECT_NEAR(com_sum / 10.0, 0.85, 0.08);
}

// ---- Fig. 10 baseline structure: data transfer dominates -------------------

TEST(PaperReproduction, DataTransferDominatesEveryBaseline) {
  for (auto id : apps::kLightweightApps) {
    const auto r = run({id}, Scheme::kBaseline);
    const double dt = r.energy.paper_fraction(energy::Routine::kDataTransfer);
    EXPECT_GT(dt, 0.55) << apps::code_of(id);  // paper: ~70–81%
    EXPECT_LT(dt, 0.95) << apps::code_of(id);
  }
}

// ---- Fig. 4: the transfer-energy split -------------------------------------

TEST(PaperReproduction, TransferSplitSharesNearPaper) {
  const auto r = run({AppId::kA2StepCounter}, Scheme::kBaseline);
  double cpu = 0.0, mcu = 0.0, physical = 0.0;
  for (const auto& [name, row] : r.energy.by_component()) {
    const double dt = row[energy::index_of(energy::Routine::kDataTransfer)];
    if (name == "cpu") cpu += dt;
    else if (name == "mcu") mcu += dt;
    else if (name == "link" || name.rfind("pio_", 0) == 0) physical += dt;
  }
  const double total = cpu + mcu + physical;
  EXPECT_NEAR(cpu / total, 0.77, 0.10);       // paper 77%
  EXPECT_NEAR(mcu / total, 0.13, 0.06);       // paper 13%
  EXPECT_NEAR(physical / total, 0.10, 0.07);  // paper 10%
}

// ---- Fig. 13: the speedup structure -----------------------------------------

TEST(PaperReproduction, OnlyA3AndA8SlowDownUnderCom) {
  for (auto id : apps::kLightweightApps) {
    const auto base = run({id}, Scheme::kBaseline);
    const auto com = run({id}, Scheme::kCom);
    const double speedup = base.apps.at(id).busy_per_window.total().to_seconds() /
                           com.apps.at(id).busy_per_window.total().to_seconds();
    if (id == AppId::kA3ArduinoJson || id == AppId::kA8Heartbeat) {
      EXPECT_LT(speedup, 1.0) << apps::code_of(id);
      EXPECT_GT(speedup, 0.6) << apps::code_of(id);  // paper: 0.9 / 0.8
    } else {
      EXPECT_GT(speedup, 1.0) << apps::code_of(id);
    }
  }
}

// ---- §III-A: the 1.14 ms break-even ------------------------------------------

TEST(PaperReproduction, BreakevenFormulaMatchesPaper) {
  EXPECT_NEAR(energy::paper_reference_cpu().light_sleep_breakeven().to_ms(), 1.14, 0.01);
}

// ---- Fig. 12 ordering: heavy mixes -------------------------------------------

TEST(PaperReproduction, HeavyMixSchemeOrdering) {
  const std::vector<AppId> mix{AppId::kA11SpeechToText, AppId::kA6Dropbox};
  const auto base = run(mix, Scheme::kBaseline);
  const double beam = run(mix, Scheme::kBeam).energy.savings_vs(base.energy);
  const double batching = run(mix, Scheme::kBatching).energy.savings_vs(base.energy);
  const double bcom = run(mix, Scheme::kBcom).energy.savings_vs(base.energy);
  // Paper Fig. 12b: BEAM < Batching < BCOM.
  EXPECT_LT(beam, batching);
  EXPECT_LT(batching, bcom);
}

}  // namespace
}  // namespace iotsim::core
