// Tests for the future-work extensions: iterative collective computing
// (plan reuse), nonblocking collective I/O, and chunk-read verification
// under PFS-read corruption chaos (healed by re-reads, or a structured
// data_corrupt once they run out).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/iterative.hpp"
#include "core/runtime.hpp"
#include "fault/fault.hpp"
#include "integrity/integrity.hpp"
#include "mpi/runtime.hpp"
#include "ncio/dataset.hpp"
#include "romio/nonblocking.hpp"

namespace colcom::core {
namespace {

mpi::MachineConfig small_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  cfg.pfs.n_osts = 4;
  cfg.pfs.stripe_size = 8192;
  return cfg;
}

ncio::Dataset make_ds(pfs::Pfs& fs, std::vector<std::uint64_t> dims) {
  return ncio::DatasetBuilder(fs, "d.nc")
      .add_generated_var<double>(
          "v", std::move(dims),
          [](std::span<const std::uint64_t> c) {
            double v = 0.25;
            for (auto x : c) v = v * 13.7 + static_cast<double>(x);
            return std::cos(v) * 10.0;
          })
      .finish();
}

TEST(Iterative, StepsMatchFreshCalls) {
  const int nprocs = 6;
  mpi::Runtime rt(small_machine(), nprocs);
  auto ds = make_ds(rt.fs(), {40, 12, 16});
  std::vector<double> fresh(5, -1), iter(5, -2);
  rt.run([&](mpi::Comm& c) {
    ObjectIO io;
    io.var = ds.var("v");
    io.start = {0, static_cast<std::uint64_t>(2 * c.rank()), 0};
    io.count = {8, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 2048;

    IterativeComputer it(c, ds, io);
    for (int s = 0; s < 5; ++s) {
      CcOutput out;
      it.step(static_cast<std::uint64_t>(8 * s), out);
      if (c.rank() == 0) iter[static_cast<std::size_t>(s)] =
          out.global_as<double>();
    }
    for (int s = 0; s < 5; ++s) {
      ObjectIO io2 = io;
      io2.start[0] = static_cast<std::uint64_t>(8 * s);
      CcOutput out;
      collective_compute(c, ds, io2, out);
      if (c.rank() == 0) fresh[static_cast<std::size_t>(s)] =
          out.global_as<double>();
    }
  });
  for (int s = 0; s < 5; ++s) {
    EXPECT_DOUBLE_EQ(iter[static_cast<std::size_t>(s)],
                     fresh[static_cast<std::size_t>(s)])
        << "step " << s;
  }
}

TEST(Iterative, ReuseIsFasterThanReplanning) {
  const int nprocs = 8;
  auto run = [&](bool reuse) {
    mpi::Runtime rt(small_machine(), nprocs);
    auto ds = make_ds(rt.fs(), {64, 16, 16});
    rt.run([&](mpi::Comm& c) {
      ObjectIO io;
      io.var = ds.var("v");
      io.start = {0, static_cast<std::uint64_t>(2 * c.rank()), 0};
      io.count = {8, 2, 16};
      io.op = mpi::Op::sum();
      io.hints.cb_buffer_size = 2048;
      if (reuse) {
        IterativeComputer it(c, ds, io);
        for (int s = 0; s < 8; ++s) {
          CcOutput out;
          it.step(static_cast<std::uint64_t>(8 * s), out);
        }
      } else {
        for (int s = 0; s < 8; ++s) {
          ObjectIO io2 = io;
          io2.start[0] = static_cast<std::uint64_t>(8 * s);
          CcOutput out;
          collective_compute(c, ds, io2, out);
        }
      }
    });
    return rt.elapsed();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Iterative, RejectsOutOfBoundsWindow) {
  mpi::Runtime rt(small_machine(), 2);
  auto ds = make_ds(rt.fs(), {16, 4, 8});
  int threw = 0;
  rt.run([&](mpi::Comm& c) {
    ObjectIO io;
    io.var = ds.var("v");
    io.start = {0, static_cast<std::uint64_t>(2 * c.rank()), 0};
    io.count = {8, 2, 8};
    io.op = mpi::Op::sum();
    IterativeComputer it(c, ds, io);
    try {
      CcOutput out;
      it.step(12, out);  // 12 + 8 > 16
    } catch (const ContractViolation&) {
      ++threw;
    }
  });
  EXPECT_EQ(threw, 2);
}

TEST(NbCio, OverlapsAndDeliversExactBytes) {
  const int nprocs = 4;
  mpi::Runtime rt(small_machine(), nprocs);
  auto ds = make_ds(rt.fs(), {32, 8, 16});
  std::vector<int> bad(static_cast<std::size_t>(nprocs), 0);
  std::vector<double> overlap_work_done(static_cast<std::size_t>(nprocs), 0);
  rt.run([&](mpi::Comm& c) {
    const std::vector<std::uint64_t> start{
        0, static_cast<std::uint64_t>(2 * c.rank()), 0};
    const std::vector<std::uint64_t> count{32, 2, 16};
    const auto req = ds.slab_request(ds.var("v"), start, count);
    std::vector<std::byte> nb_buf(req.total_bytes());
    auto nb = romio::nb_read_all(c, ds.file(), req, nb_buf, {}, 1);
    c.compute(0.01);  // independent work overlapping the collective read
    overlap_work_done[static_cast<std::size_t>(c.rank())] = 0.01;
    nb.wait();
    // Compare with a blocking read of the same request.
    std::vector<std::byte> blk_buf(req.total_bytes());
    romio::CollectiveIo cio;
    cio.read_all(c, ds.file(), req, blk_buf);
    if (nb_buf != blk_buf) ++bad[static_cast<std::size_t>(c.rank())];
  });
  for (int b : bad) EXPECT_EQ(b, 0);
}

TEST(NbCio, RequiresNonZeroContext) {
  mpi::Runtime rt(small_machine(), 1);
  bool threw = false;
  rt.run([&](mpi::Comm& c) {
    std::vector<std::byte> buf(4);
    romio::FlatRequest req({{4096, 4}});
    try {
      romio::nb_read_all(c, pfs::FileId{0}, req, buf, {}, 0);
    } catch (const ContractViolation&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
}

/// A machine whose chunk reads come back corrupt with probability `prob`
/// for their first `attempts` tries (fault::ChaosConfig::pfs_corrupt_prob).
mpi::MachineConfig corrupting_machine(double prob, int attempts) {
  mpi::MachineConfig cfg = small_machine();
  cfg.chaos.pfs_corrupt_prob = prob;
  cfg.chaos.corrupt_attempts = attempts;
  return cfg;
}

TEST(Verify, DetectsAndRepairsCorruption) {
  const int nprocs = 4;
  mpi::Runtime rt(corrupting_machine(0.5, 1), nprocs);
  auto ds = make_ds(rt.fs(), {16, 8, 16});
  double truth = 0;
  {
    ObjectIO all;
    all.var = ds.var("v");
    all.start = {0, 0, 0};
    all.count = {16, 8, 16};
    all.op = mpi::Op::sum();
    truth = serial_reduce(ds, all).as<double>();
  }
  std::vector<double> got(static_cast<std::size_t>(nprocs), -1);
  integrity::reset_stats();
  rt.run([&](mpi::Comm& c) {
    ObjectIO io;
    io.var = ds.var("v");
    io.start = {0, static_cast<std::uint64_t>(2 * c.rank()), 0};
    io.count = {16, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 2048;
    CcOutput out;
    collective_compute(c, ds, io, out);
    got[static_cast<std::size_t>(c.rank())] = out.global_as<double>();
  });
  for (double g : got) EXPECT_NEAR(g, truth, std::abs(truth) * 1e-12 + 1e-9);
  // Faults actually happened, and every corrupt extent is one pfs.read
  // episode that healed.
  EXPECT_GT(rt.chaos()->stats().corruptions_injected, 0u);
  const integrity::Stats& is = integrity::stats();
  EXPECT_GT(is.recovered, 0u);
  EXPECT_EQ(is.detected, is.recovered);
  EXPECT_EQ(is.failed, 0u);
}

TEST(Verify, ExhaustedRereadsFailWithDataCorrupt) {
  // Every read of an extent comes back corrupt for its first 10 attempts,
  // more than ChunkReader's 3 re-reads can outlast. A single-rank world
  // keeps the failure local: the rank catches it, so no peer is left
  // waiting on its shuffle and every fiber ends.
  mpi::Runtime rt(corrupting_machine(1.0, 10), 1);
  auto ds = make_ds(rt.fs(), {16, 8, 16});
  integrity::reset_stats();
  bool data_corrupt = false;
  std::string what;
  rt.run([&](mpi::Comm& c) {
    ObjectIO io;
    io.var = ds.var("v");
    io.start = {0, 0, 0};
    io.count = {16, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 2048;
    CcOutput out;
    try {
      collective_compute(c, ds, io, out);
    } catch (const fault::Error& e) {
      data_corrupt = e.kind() == fault::Kind::data_corrupt;
      what = e.what();
    }
  });
  EXPECT_TRUE(data_corrupt);
  EXPECT_NE(what.find("pfs.read"), std::string::npos) << what;
  const integrity::Stats& is = integrity::stats();
  EXPECT_GT(is.failed, 0u);
  EXPECT_EQ(is.detected, is.recovered + is.failed);
}

TEST(Verify, NoOverheadCounterWhenClean) {
  // With no corruption chaos armed a PFS read is never hashed: the path
  // every benchmark run without chaos takes.
  mpi::Runtime rt(small_machine(), 2);
  auto ds = make_ds(rt.fs(), {8, 4, 8});
  integrity::reset_stats();
  rt.run([&](mpi::Comm& c) {
    ObjectIO io;
    io.var = ds.var("v");
    io.start = {0, static_cast<std::uint64_t>(2 * c.rank()), 0};
    io.count = {8, 2, 8};
    io.op = mpi::Op::sum();
    CcOutput out;
    collective_compute(c, ds, io, out);
  });
  EXPECT_EQ(rt.chaos(), nullptr);
  EXPECT_EQ(integrity::stats().verified, 0u);
  EXPECT_EQ(integrity::stats().detected, 0u);
}

}  // namespace
}  // namespace colcom::core
