// Parameterized characterization sweep across technologies (the paper's
// closing claim: "its adaptability allows easy application to other
// technologies like IGZO and LTPS"): the full measurement pipeline must
// yield physical results for every material system without changes.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <ostream>

#include "src/cells/characterize.hpp"

namespace stco::compact {

// gtest prints a parameter that has no operator<< as a dump of its bytes,
// and ctest puts that dump into the test name. Dump a copy whose padding
// after `kind` is zeroed, so the names do not change from build to build.
static void PrintTo(const TechnologyPoint& tp, std::ostream* os) {
  unsigned char bytes[sizeof(TechnologyPoint)] = {};
  std::memcpy(bytes + offsetof(TechnologyPoint, kind), &tp.kind, sizeof tp.kind);
  std::memcpy(bytes + offsetof(TechnologyPoint, vdd), &tp.vdd, sizeof tp.vdd);
  std::memcpy(bytes + offsetof(TechnologyPoint, vth), &tp.vth, sizeof tp.vth);
  std::memcpy(bytes + offsetof(TechnologyPoint, cox), &tp.cox, sizeof tp.cox);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

}  // namespace stco::compact

namespace stco::cells {
namespace {

class TechnologySweep : public ::testing::TestWithParam<compact::TechnologyPoint> {
 protected:
  CharConfig config() const {
    CharConfig cfg;
    cfg.tech = GetParam();
    // Slow technologies (IGZO) need a longer schedule quantum.
    cfg.time_unit = 250e-9;
    cfg.dt = 4e-9;
    cfg.input_slew = 25e-9;
    return cfg;
  }
};

TEST_P(TechnologySweep, InverterCharacterizes) {
  const auto r = characterize_cell(find_cell("INV"), config());
  ASSERT_GE(r.arcs.size(), 2u);
  for (const auto& arc : r.arcs) {
    EXPECT_GT(arc.delay, 0.0);
    EXPECT_LT(arc.delay, 2e-6);
    EXPECT_GT(arc.output_slew, 0.0);
    EXPECT_GT(arc.flip_energy, 0.0);
  }
  EXPECT_GT(r.leakage_power, 0.0);
  EXPECT_GT(r.input_capacitance.at("A"), 1e-16);
}

TEST_P(TechnologySweep, Nand2DelayOrderingAcrossLoads) {
  CharConfig light = config(), heavy = config();
  light.load_cap = 20e-15;
  heavy.load_cap = 120e-15;
  const auto rl = characterize_cell(find_cell("NAND2"), light);
  const auto rh = characterize_cell(find_cell("NAND2"), heavy);
  ASSERT_FALSE(rl.arcs.empty());
  ASSERT_FALSE(rh.arcs.empty());
  EXPECT_GT(rh.worst_delay(), rl.worst_delay());
}

TEST_P(TechnologySweep, DffCapturesInEveryTechnology) {
  const auto r = characterize_cell(find_cell("DFF"), config());
  EXPECT_GE(r.arcs.size(), 1u);
  EXPECT_GT(r.min_setup, 0.0);
  EXPECT_GT(r.min_pulse_width, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Technologies, TechnologySweep,
    ::testing::Values(compact::cnt_tech(), compact::ltps_tech(),
                      compact::igzo_tech()),
    [](const ::testing::TestParamInfo<compact::TechnologyPoint>& info) {
      return tcad::to_string(info.param.kind);
    });

}  // namespace
}  // namespace stco::cells
