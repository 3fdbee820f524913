// Cross-module integration tests: the full pipeline from dataset creation
// through collective writes, collective computing, and profiling.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/runtime.hpp"
#include "mpi/runtime.hpp"
#include "ncio/dataset.hpp"
#include "prof/cpu_profile.hpp"
#include "wrf/hurricane.hpp"

namespace colcom {
namespace {

mpi::MachineConfig small_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  cfg.pfs.n_osts = 4;
  cfg.pfs.stripe_size = 8192;
  return cfg;
}

TEST(Integration, WriteThenAnalyzeRoundTrip) {
  // Ranks collectively write a field they computed, then the analysis layer
  // reduces over what landed on "disk" — the value must match exactly.
  const int nprocs = 8;
  mpi::Runtime rt(small_machine(), nprocs);
  auto ds = ncio::DatasetBuilder(rt.fs(), "sim.nc")
                .add_var("vorticity", mpi::Prim::f64, {32, 64})
                .finish();
  double expected = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    for (std::uint64_t j = 0; j < 64; ++j) {
      expected += static_cast<double>(i * 64 + j) * 0.5;
    }
  }
  std::vector<double> got(nprocs, -1);
  rt.run([&](mpi::Comm& c) {
    const auto v = ds.var("vorticity");
    const auto r = static_cast<std::uint64_t>(c.rank());
    const std::array<std::uint64_t, 2> start{r * 4, 0};
    const std::array<std::uint64_t, 2> count{4, 64};
    std::vector<double> field(4 * 64);
    for (std::uint64_t i = 0; i < 4; ++i) {
      for (std::uint64_t j = 0; j < 64; ++j) {
        field[i * 64 + j] =
            static_cast<double>(((start[0] + i) * 64 + j)) * 0.5;
      }
    }
    ds.put_vara_all<double>(c, v, start, count, field);
    c.barrier();
    core::ObjectIO io;
    io.var = v;
    io.start = {start[0], 0};
    io.count = {4, 64};
    io.op = mpi::Op::sum();
    core::CcOutput out;
    core::collective_compute(c, ds, io, out);
    got[static_cast<std::size_t>(c.rank())] = out.global_as<double>();
  });
  for (double g : got) EXPECT_NEAR(g, expected, 1e-9);
}

TEST(Integration, MultiVariableSequentialAnalyses) {
  const int nprocs = 6;
  mpi::Runtime rt(small_machine(), nprocs);
  wrf::HurricaneConfig storm;
  storm.nt = 4;
  storm.ny = 36;
  storm.nx = 40;
  auto ds = wrf::make_hurricane_dataset(rt.fs(), "w.nc", storm);
  float slp_min = 0, w_max = 0, u_min = 0, v_max = 0;
  rt.run([&](mpi::Comm& c) {
    auto analyze = [&](const char* var, mpi::Op op) {
      core::ObjectIO io;
      io.var = ds.var(var);
      const auto rows = storm.ny / static_cast<std::uint64_t>(c.size());
      io.start = {0, static_cast<std::uint64_t>(c.rank()) * rows, 0};
      io.count = {storm.nt, rows, storm.nx};
      io.op = std::move(op);
      io.hints.cb_buffer_size = 8192;
      core::CcOutput out;
      core::collective_compute(c, ds, io, out);
      return out.global_as<float>();
    };
    const float a = analyze("SLP", mpi::Op::min());
    const float b = analyze("W10", mpi::Op::max());
    const float d = analyze("U10", mpi::Op::min());
    const float e = analyze("V10", mpi::Op::max());
    if (c.rank() == 0) {
      slp_min = a;
      w_max = b;
      u_min = d;
      v_max = e;
    }
  });
  EXPECT_LT(slp_min, storm.background_hpa);
  EXPECT_GT(slp_min, storm.background_hpa - storm.depth_hpa - 1);
  EXPECT_GT(w_max, 0.9f * static_cast<float>(storm.vmax_knots));
  EXPECT_LT(u_min, 0.f);  // cyclonic flow has both signs
  EXPECT_GT(v_max, 0.f);
}

TEST(Integration, CpuProfileSeesAnalysisCompute) {
  mpi::Runtime rt(small_machine(), 4);
  prof::CpuProfile profile(0.01);
  rt.engine().add_trace_sink(&profile);
  auto ds = ncio::DatasetBuilder(rt.fs(), "d.nc")
                .add_generated_var<float>(
                    "v", {64, 128},
                    [](std::span<const std::uint64_t> c) {
                      return static_cast<float>(c[0] + c[1]);
                    })
                .finish();
  rt.run([&](mpi::Comm& c) {
    core::ObjectIO io;
    io.var = ds.var("v");
    io.start = {static_cast<std::uint64_t>(c.rank()) * 16, 0};
    io.count = {16, 128};
    io.op = mpi::Op::sum();
    io.compute.ratio_of_io = 2.0;  // substantial analysis load
    core::CcOutput out;
    core::collective_compute(c, ds, io, out);
  });
  const auto total = profile.total();
  EXPECT_GT(total.user_pct, 10.0);  // the map shows up as user time
}

TEST(Integration, DeterministicEndToEnd) {
  auto once = [] {
    mpi::Runtime rt(small_machine(), 8);
    auto ds = ncio::DatasetBuilder(rt.fs(), "d.nc")
                  .add_generated_var<double>(
                      "v", {48, 96},
                      [](std::span<const std::uint64_t> c) {
                        return std::sin(static_cast<double>(c[0] * 96 + c[1]));
                      })
                  .finish();
    double value = 0;
    rt.run([&](mpi::Comm& c) {
      core::ObjectIO io;
      io.var = ds.var("v");
      io.start = {static_cast<std::uint64_t>(c.rank()) * 6, 0};
      io.count = {6, 96};
      io.op = mpi::Op::sum();
      io.reduce_mode = core::ReduceMode::all_to_all;
      core::CcOutput out;
      core::collective_compute(c, ds, io, out);
      if (c.rank() == 0) value = out.global_as<double>();
    });
    return std::pair{value, rt.elapsed()};
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Integration, ManySmallCollectivesInterleaved) {
  // Repeated small collective computes stress tag matching and per-pair
  // ordering across operations.
  mpi::Runtime rt(small_machine(), 5);
  auto ds = ncio::DatasetBuilder(rt.fs(), "d.nc")
                .add_generated_var<std::int64_t>(
                    "v", {50, 20},
                    [](std::span<const std::uint64_t> c) {
                      return static_cast<std::int64_t>(c[0] + 2 * c[1]);
                    })
                .finish();
  std::vector<std::int64_t> sums(10, -1);
  rt.run([&](mpi::Comm& c) {
    for (int s = 0; s < 10; ++s) {
      core::ObjectIO io;
      io.var = ds.var("v");
      io.start = {static_cast<std::uint64_t>(s * 5 +
                                             c.rank()),
                  0};
      io.count = {1, 20};
      io.op = mpi::Op::sum();
      io.reduce_mode = (s % 2 == 0) ? core::ReduceMode::all_to_one
                                    : core::ReduceMode::all_to_all;
      core::CcOutput out;
      core::collective_compute(c, ds, io, out);
      if (c.rank() == 0) sums[static_cast<std::size_t>(s)] =
          out.global_as<std::int64_t>();
    }
  });
  for (int s = 0; s < 10; ++s) {
    std::int64_t expect = 0;
    for (int r = 0; r < 5; ++r) {
      const std::int64_t row = s * 5 + r;
      for (std::int64_t j = 0; j < 20; ++j) expect += row + 2 * j;
    }
    EXPECT_EQ(sums[static_cast<std::size_t>(s)], expect) << "round " << s;
  }
}

}  // namespace
}  // namespace colcom
