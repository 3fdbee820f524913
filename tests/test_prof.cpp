// Tests for the CPU profiler behind Figs. 2/3.
#include <gtest/gtest.h>

#include "des/engine.hpp"
#include "mpi/runtime.hpp"
#include "prof/cpu_profile.hpp"
#include "romio/independent.hpp"
#include "romio/collective.hpp"
#include "pfs/store.hpp"

namespace colcom::prof {
namespace {

TEST(CpuProfile, BucketsSplitIntervals) {
  CpuProfile p(1.0);
  p.on_interval(0, 0, des::CpuKind::user, 0.5, 2.5);   // 0.5+1+0.5
  p.on_interval(0, 0, des::CpuKind::wait, 0.0, 0.5);
  const auto rows = p.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].user_pct, 50.0);
  EXPECT_DOUBLE_EQ(rows[0].wait_pct, 50.0);
  EXPECT_DOUBLE_EQ(rows[1].user_pct, 100.0);
  EXPECT_DOUBLE_EQ(rows[2].user_pct, 100.0);
}

TEST(CpuProfile, TotalsSumTo100) {
  CpuProfile p(0.5);
  p.on_interval(0, 0, des::CpuKind::user, 0, 1);
  p.on_interval(1, 1, des::CpuKind::sys, 0, 2);
  p.on_interval(2, 2, des::CpuKind::wait, 1, 4);
  const auto t = p.total();
  EXPECT_NEAR(t.user_pct + t.sys_pct + t.wait_pct, 100.0, 1e-9);
  EXPECT_NEAR(t.user_pct, 1.0 / 6.0 * 100, 1e-9);
}

TEST(CpuProfile, EmptyBucketsAreZero) {
  CpuProfile p(1.0);
  p.on_interval(0, 0, des::CpuKind::user, 3.0, 4.0);
  const auto rows = p.rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_DOUBLE_EQ(rows[1].user_pct + rows[1].sys_pct + rows[1].wait_pct, 0.0);
}

// Regression: the bucketing loop used to advance a floating-point time
// cursor; for begins like 0.29 (where (b+1)*bucket rounds to exactly the
// cursor value) it made zero progress and hung forever. The rewrite
// iterates bucket indices, so this must terminate and attribute the whole
// interval correctly.
TEST(CpuProfile, BoundaryStraddlingIntervalTerminates) {
  CpuProfile p(0.01);
  // 0.29 / 0.01 truncates to 28 while 29 * 0.01 == 0.29 exactly: the old
  // cursor stalled at t = 0.29.
  p.on_interval(0, 0, des::CpuKind::user, 0.29, 0.295);
  const auto rows = p.rows();
  ASSERT_GE(rows.size(), 30u);
  EXPECT_NEAR(rows[29].user_pct, 100.0, 1e-9);
  const auto t = p.total();
  EXPECT_NEAR(t.user_pct + t.sys_pct + t.wait_pct, 100.0, 1e-9);
}

// Percentages must sum to 100 in every non-empty bucket, including ones fed
// by intervals that straddle bucket boundaries at awkward offsets.
TEST(CpuProfile, BucketPercentagesSumTo100) {
  CpuProfile p(0.01);
  double t = 0;
  for (int i = 0; i < 200; ++i) {
    const double dt = 0.001 + 0.0007 * (i % 13);
    p.on_interval(0, 0, static_cast<des::CpuKind>(i % 3), t, t + dt);
    t += dt;
  }
  int nonempty = 0;
  for (const auto& row : p.rows()) {
    const double sum = row.user_pct + row.sys_pct + row.wait_pct;
    if (sum == 0) continue;
    ++nonempty;
    EXPECT_NEAR(sum, 100.0, 1e-6);
  }
  EXPECT_GT(nonempty, 10);
}

// Independent non-contiguous I/O must show a higher wait share than
// two-phase collective I/O on the same workload — the contrast between the
// paper's Fig. 2 and Fig. 3.
TEST(CpuProfile, IndependentWaitsMoreThanCollective) {
  auto run = [](bool collective) {
    mpi::MachineConfig cfg;
    cfg.cores_per_node = 4;
    cfg.pfs.n_osts = 4;
    cfg.pfs.stripe_size = 4096;
    mpi::Runtime rt(cfg, 8);
    auto profile = std::make_unique<CpuProfile>(0.01);
    rt.engine().add_trace_sink(profile.get());
    auto file = rt.fs().create(
        "f", std::make_unique<pfs::GeneratorStore>(
                 4 << 20, [](std::uint64_t, std::span<std::byte> d) {
                   std::fill(d.begin(), d.end(), std::byte{1});
                 }));
    rt.run([&](mpi::Comm& c) {
      std::vector<pfs::ByteExtent> ext;
      for (std::uint64_t b = 0; b < 64; ++b) {
        ext.push_back({(b * 8 + static_cast<std::uint64_t>(c.rank())) * 4096,
                       1024});
      }
      romio::FlatRequest mine(std::move(ext));
      std::vector<std::byte> dst(mine.total_bytes());
      if (collective) {
        romio::CollectiveIo cio{romio::Hints{.cb_buffer_size = 65536}};
        cio.read_all(c, file, mine, dst);
      } else {
        romio::read_indep(c, file, mine, dst);
      }
    });
    return profile->total().wait_pct;
  };
  const double wait_coll = run(true);
  const double wait_ind = run(false);
  EXPECT_GT(wait_ind, wait_coll);
}

}  // namespace
}  // namespace colcom::prof
