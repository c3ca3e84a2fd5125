// Parameterized physics sweeps for the TCAD substrate: every technology and
// bias combination must satisfy solver invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <ostream>

#include "src/tcad/poisson.hpp"
#include "src/tcad/transport.hpp"

namespace stco::tcad {
namespace {

struct TechBias {
  SemiconductorKind kind;
  double vg_frac;  ///< gate bias as a fraction of 5 V (sign applied per type)
};

// gtest prints a parameter that has no operator<< as a dump of its bytes,
// and ctest puts that dump into the test name. Dump a copy whose padding
// after `kind` is zeroed, so the names do not change from build to build.
void PrintTo(const TechBias& p, std::ostream* os) {
  unsigned char bytes[sizeof(TechBias)] = {};
  std::memcpy(bytes + offsetof(TechBias, kind), &p.kind, sizeof p.kind);
  std::memcpy(bytes + offsetof(TechBias, vg_frac), &p.vg_frac, sizeof p.vg_frac);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class TcadSweep : public ::testing::TestWithParam<TechBias> {
 protected:
  TftDevice device() const {
    TftDevice dev;
    dev.semi = params_for(GetParam().kind);
    return dev;
  }
  double sign() const {
    return params_for(GetParam().kind).carrier == CarrierType::kNType ? 1.0 : -1.0;
  }
};

TEST_P(TcadSweep, PoissonConvergesEverywhere) {
  const auto dev = device();
  const double s = sign();
  const Bias b{s * GetParam().vg_frac * 5.0, s * 1.0, 0.0};
  const auto sol = solve_poisson(dev, b, 14, 4, 3);
  EXPECT_TRUE(sol.converged);
  for (double phi : sol.potential) EXPECT_TRUE(std::isfinite(phi));
}

TEST_P(TcadSweep, CarriersObeyMassAction) {
  // n * p = ni^2 * exp terms; with a common quasi-Fermi level per node the
  // product equals ni^2 exactly.
  const auto dev = device();
  const double s = sign();
  const Bias b{s * GetParam().vg_frac * 5.0, s * 0.5, 0.0};
  const auto mesh = build_mesh(dev, b, 12, 4, 3);
  const auto sol = solve_poisson(dev, b, mesh);
  for (std::size_t i = 0; i < mesh.num_nodes(); ++i) {
    if (mesh.node(i).material != mesh::Material::kSemiconductor) continue;
    const double np = sol.electron_density[i] * sol.hole_density[i];
    EXPECT_NEAR(np / (dev.semi.ni * dev.semi.ni), 1.0, 1e-6);
  }
}

TEST_P(TcadSweep, SheetChargeMonotoneInOverdrive) {
  const auto dev = device();
  const double s = sign();
  double prev = -1.0;
  for (double f = 0.1; f <= 1.0; f += 0.15) {
    const double q = sheet_charge(dev, s * f * 5.0, 0.0);
    EXPECT_GT(q, 0.0);
    if (prev >= 0.0) {
      EXPECT_GE(q, prev * (1.0 - 1e-9));
    }
    prev = q;
  }
}

TEST_P(TcadSweep, TransferCurveMonotone) {
  const auto dev = device();
  const double s = sign();
  std::vector<double> vgs;
  for (double f = -0.2; f <= 1.0; f += 0.2) vgs.push_back(s * f * 5.0);
  const auto curve = transfer_curve(dev, s * 1.5, vgs);
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i].id, curve[i - 1].id * (1.0 - 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    TechSweep, TcadSweep,
    ::testing::Values(TechBias{SemiconductorKind::kCnt, 0.2},
                      TechBias{SemiconductorKind::kCnt, 0.8},
                      TechBias{SemiconductorKind::kIgzo, 0.2},
                      TechBias{SemiconductorKind::kIgzo, 0.8},
                      TechBias{SemiconductorKind::kLtps, 0.2},
                      TechBias{SemiconductorKind::kLtps, 0.8},
                      TechBias{SemiconductorKind::kSilicon, 0.5}),
    [](const ::testing::TestParamInfo<TechBias>& info) {
      return to_string(info.param.kind) +
             std::to_string(static_cast<int>(info.param.vg_frac * 10));
    });

// --- mesh refinement convergence ---------------------------------------------

class MeshRefinement : public ::testing::TestWithParam<std::size_t> {};

double mid_channel_potential(std::size_t nx) {
  TftDevice dev;
  dev.semi = igzo_params();
  const Bias b{3.0, 0.5, 0.0};
  const auto mesh = build_mesh(dev, b, nx, 4, 3);
  const auto sol = solve_poisson(dev, b, mesh);
  EXPECT_TRUE(sol.converged);
  return sol.potential[mesh.index(nx / 2, 3)];
}

TEST_P(MeshRefinement, SurfacePotentialStableUnderRefinement) {
  // Mid-channel back-interface potential must agree within tens of
  // millivolts between the coarse reference grid and finer grids.
  const double reference = mid_channel_potential(10);
  EXPECT_NEAR(mid_channel_potential(GetParam()), reference, 0.12);
}

INSTANTIATE_TEST_SUITE_P(NxSweep, MeshRefinement, ::testing::Values(20, 30, 40));

}  // namespace
}  // namespace stco::tcad
