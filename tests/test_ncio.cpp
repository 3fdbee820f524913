// Tests for the PnetCDF-like dataset layer: header round-trip, hyperslab
// flattening, typed collective/independent reads, generated variables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "mpi/runtime.hpp"
#include "ncio/dataset.hpp"
#include "util/prng.hpp"

namespace colcom::ncio {
namespace {

mpi::MachineConfig small_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  cfg.pfs.n_osts = 4;
  cfg.pfs.stripe_size = 8192;
  return cfg;
}

TEST(Dataset, HeaderRoundTripThroughOpen) {
  des::Engine e;
  pfs::Pfs fs(e, pfs::PfsConfig{});
  DatasetBuilder b(fs, "data.nc");
  b.add_var("temperature", mpi::Prim::f32, {10, 20, 30});
  b.add_var("pressure", mpi::Prim::f64, {5, 5});
  auto ds = b.finish();

  auto reopened = Dataset::open(fs, "data.nc");
  EXPECT_EQ(reopened.var_count(), 2);
  const auto& t = reopened.info(reopened.var("temperature"));
  EXPECT_EQ(t.prim, mpi::Prim::f32);
  EXPECT_EQ(t.dims, (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_EQ(t.element_count(), 6000u);
  const auto& p = reopened.info(reopened.var("pressure"));
  EXPECT_EQ(p.prim, mpi::Prim::f64);
  EXPECT_EQ(p.file_offset % 4096, 0u);
  EXPECT_GT(p.file_offset, t.file_offset);
  EXPECT_THROW(reopened.var("missing"), ContractViolation);
  EXPECT_EQ(ds.info(ds.var("pressure")).file_offset, p.file_offset);
}

TEST(Dataset, DuplicateVarNameRejected) {
  des::Engine e;
  pfs::Pfs fs(e, pfs::PfsConfig{});
  DatasetBuilder b(fs, "dup.nc");
  b.add_var("x", mpi::Prim::f32, {4});
  b.add_var("x", mpi::Prim::f32, {4});
  EXPECT_THROW(b.finish(), ContractViolation);
}

TEST(Dataset, SlabRequestMatchesManualLayout) {
  des::Engine e;
  pfs::Pfs fs(e, pfs::PfsConfig{});
  auto ds = DatasetBuilder(fs, "s.nc")
                .add_var("v", mpi::Prim::f32, {4, 6})
                .finish();
  const auto v = ds.var("v");
  const std::uint64_t base = ds.info(v).file_offset;
  const std::array<std::uint64_t, 2> start{1, 2}, count{2, 3};
  const auto req = ds.slab_request(v, start, count);
  ASSERT_EQ(req.extents().size(), 2u);
  EXPECT_EQ(req.extents()[0].offset, base + (1 * 6 + 2) * 4);
  EXPECT_EQ(req.extents()[0].length, 12u);
  EXPECT_EQ(req.extents()[1].offset, base + (2 * 6 + 2) * 4);
}

TEST(Dataset, GeneratedVarEvaluatesClosedForm) {
  des::Engine e;
  pfs::Pfs fs(e, pfs::PfsConfig{});
  auto ds = DatasetBuilder(fs, "g.nc")
                .add_generated_var<float>(
                    "field", {8, 16},
                    [](std::span<const std::uint64_t> c) {
                      return static_cast<float>(c[0] * 100 + c[1]);
                    })
                .finish();
  const auto v = ds.var("field");
  // Direct store read of element (3, 7).
  float val = -1;
  fs.store(ds.file()).read(ds.info(v).file_offset + (3 * 16 + 7) * 4,
                           std::as_writable_bytes(std::span<float>(&val, 1)));
  EXPECT_FLOAT_EQ(val, 307.f);
}

/// Elements of a variable at [base, base + bytes) that [off, off + len)
/// touches, for element size `s`.
std::uint64_t touched_elements(std::uint64_t off, std::uint64_t len,
                               std::uint64_t base, std::uint64_t bytes,
                               std::uint64_t s) {
  const std::uint64_t lo = std::max(off, base);
  const std::uint64_t hi = std::min(off + len, base + bytes);
  if (lo >= hi) return 0;
  return (hi - base + s - 1) / s - (lo - base) / s;
}

TEST(Dataset, GeneratedVarsReadAcrossAlignmentGaps) {
  // Raw file reads cross both generated variables and the zero-filled
  // alignment gap between them; each element function runs once per
  // touched element.
  des::Engine e;
  pfs::Pfs fs(e, pfs::PfsConfig{});
  const auto a_of = [](std::span<const std::uint64_t> c) {
    return static_cast<std::int32_t>(c[0] * 1000 + c[1] * 10 + c[2]) - 500;
  };
  const auto b_of = [](std::span<const std::uint64_t> c) {
    return static_cast<double>(c[0]) * 0.25 - static_cast<double>(c[1]);
  };
  std::uint64_t calls_a = 0, calls_b = 0;
  auto ds = DatasetBuilder(fs, "gaps.nc")
                .add_generated_var<std::int32_t>(
                    "a", {3, 5, 7},
                    [&](std::span<const std::uint64_t> c) {
                      ++calls_a;
                      return a_of(c);
                    })
                .add_generated_var<double>(
                    "b", {9, 11},
                    [&](std::span<const std::uint64_t> c) {
                      ++calls_b;
                      return b_of(c);
                    })
                .finish();
  const VarInfo& ia = ds.info(ds.var("a"));
  const VarInfo& ib = ds.info(ds.var("b"));
  const std::uint64_t lo = ia.file_offset;
  const std::uint64_t hi = ib.file_offset + ib.byte_size();
  ASSERT_LT(ia.file_offset + ia.byte_size(), ib.file_offset);  // a real gap

  std::vector<std::byte> ref(hi - lo, std::byte{0});
  for (std::uint64_t i = 0; i < 3 * 5 * 7; ++i) {
    const std::array<std::uint64_t, 3> c{i / 35, i / 7 % 5, i % 7};
    const std::int32_t v = a_of(c);
    std::memcpy(ref.data() + i * 4, &v, 4);
  }
  for (std::uint64_t i = 0; i < 9 * 11; ++i) {
    const std::array<std::uint64_t, 2> c{i / 11, i % 11};
    const double v = b_of(c);
    std::memcpy(ref.data() + (ib.file_offset - lo) + i * 8, &v, 8);
  }

  const pfs::Store& store = fs.store(ds.file());
  const auto check = [&](std::uint64_t off, std::uint64_t len) {
    SCOPED_TRACE(::testing::Message() << "window [" << off << ", "
                                      << off + len << ")");
    std::vector<std::byte> got(len, std::byte{0xee});
    calls_a = calls_b = 0;
    store.read(off, got);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), ref.begin() + (off - lo)));
    EXPECT_EQ(calls_a, touched_elements(off, len, ia.file_offset,
                                        ia.byte_size(), 4));
    EXPECT_EQ(calls_b, touched_elements(off, len, ib.file_offset,
                                        ib.byte_size(), 8));
  };
  check(lo, hi - lo);
  // Misaligned tail of a, the whole gap, misaligned head of b.
  const std::uint64_t a_end = ia.file_offset + ia.byte_size();
  check(a_end - 6, ib.file_offset - (a_end - 6) + 13);
  check(a_end - 1, 2);                   // last byte of a, into the gap
  check(ib.file_offset - 3, 5);          // gap into b's first element
  Prng rng(11);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t off = lo + rng.next_below(hi - lo);
    check(off, rng.next_below(hi - off + 1));
  }
}

TEST(Dataset, PutThenGetVaraAll) {
  mpi::Runtime rt(small_machine(), 4);
  auto ds = DatasetBuilder(rt.fs(), "w.nc")
                .add_var("v", mpi::Prim::i32, {8, 16})
                .finish();
  std::vector<int> bad(4, 0);
  rt.run([&](mpi::Comm& c) {
    const auto v = ds.var("v");
    // Rank r owns rows [2r, 2r+2).
    const std::array<std::uint64_t, 2> start{
        static_cast<std::uint64_t>(2 * c.rank()), 0};
    const std::array<std::uint64_t, 2> count{2, 16};
    std::vector<std::int32_t> mine(32);
    std::iota(mine.begin(), mine.end(), 1000 * c.rank());
    ds.put_vara_all<std::int32_t>(c, v, start, count, mine);
    c.barrier();
    std::vector<std::int32_t> back(32, -1);
    ds.get_vara_all<std::int32_t>(c, v, start, count,
                                  std::span<std::int32_t>(back));
    if (back != mine) ++bad[static_cast<std::size_t>(c.rank())];
  });
  for (int b : bad) EXPECT_EQ(b, 0);
}

TEST(Dataset, TypeMismatchRejected) {
  mpi::Runtime rt(small_machine(), 1);
  auto ds = DatasetBuilder(rt.fs(), "t.nc")
                .add_var("v", mpi::Prim::f32, {4})
                .finish();
  bool threw = false;
  rt.run([&](mpi::Comm& c) {
    std::vector<double> out(4);
    const std::array<std::uint64_t, 1> start{0}, count{4};
    try {
      ds.get_vara_all<double>(c, ds.var("v"), start, count,
                              std::span<double>(out));
    } catch (const ContractViolation&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
}

// The paper's benchmark shape: a 4-D climate variable read collectively as
// per-rank 4-D blocks, verified against the generator.
TEST(Dataset, FourDimensionalClimateSubsetCollective) {
  const int nprocs = 8;
  mpi::Runtime rt(small_machine(), nprocs);
  // Small-scale analogue of 1024x1024x100x1024 (fast dim last in C order).
  const std::vector<std::uint64_t> dims{12, 10, 16, 32};
  auto ds = DatasetBuilder(rt.fs(), "climate.nc")
                .add_generated_var<float>(
                    "temperature", dims,
                    [](std::span<const std::uint64_t> c) {
                      return static_cast<float>(c[0]) * 1000.f +
                             static_cast<float>(c[1]) * 100.f +
                             static_cast<float>(c[2]) * 10.f +
                             static_cast<float>(c[3]);
                    })
                .finish();
  std::vector<int> bad(nprocs, 0);
  rt.run([&](mpi::Comm& c) {
    // Each rank reads a 4-D block 3x4x4x4 at a rank-dependent corner.
    const auto r = static_cast<std::uint64_t>(c.rank());
    const std::array<std::uint64_t, 4> start{r % 4, (r / 4) * 5, 2, 8};
    const std::array<std::uint64_t, 4> count{3, 4, 4, 4};
    std::vector<float> out(3 * 4 * 4 * 4, -1.f);
    romio::Hints h;
    h.cb_buffer_size = 4096;
    ds.get_vara_all<float>(c, ds.var("temperature"), start, count,
                           std::span<float>(out), h);
    std::size_t i = 0;
    for (std::uint64_t a = 0; a < count[0]; ++a) {
      for (std::uint64_t b = 0; b < count[1]; ++b) {
        for (std::uint64_t d = 0; d < count[2]; ++d) {
          for (std::uint64_t e2 = 0; e2 < count[3]; ++e2, ++i) {
            const float expect =
                static_cast<float>(start[0] + a) * 1000.f +
                static_cast<float>(start[1] + b) * 100.f +
                static_cast<float>(start[2] + d) * 10.f +
                static_cast<float>(start[3] + e2);
            if (out[i] != expect) ++bad[static_cast<std::size_t>(c.rank())];
          }
        }
      }
    }
  });
  for (int b : bad) EXPECT_EQ(b, 0);
}

TEST(Dataset, StridedSlabRequestLayout) {
  des::Engine e;
  pfs::Pfs fs(e, pfs::PfsConfig{});
  auto ds = DatasetBuilder(fs, "str.nc")
                .add_var("v", mpi::Prim::f32, {8, 12})
                .finish();
  const auto v = ds.var("v");
  const std::uint64_t base = ds.info(v).file_offset;
  // Every 2nd row (rows 1,3,5), every 3rd column (cols 0,3,6,9).
  const std::array<std::uint64_t, 2> start{1, 0}, count{3, 4}, stride{2, 3};
  const auto req = ds.slab_request_strided(v, start, count, stride);
  ASSERT_EQ(req.extents().size(), 12u);  // single elements, no merging
  EXPECT_EQ(req.extents()[0].offset, base + (1 * 12 + 0) * 4);
  EXPECT_EQ(req.extents()[1].offset, base + (1 * 12 + 3) * 4);
  EXPECT_EQ(req.extents()[4].offset, base + (3 * 12 + 0) * 4);
  EXPECT_EQ(req.total_bytes(), 12u * 4);
}

TEST(Dataset, StridedUnitStrideEqualsVara) {
  des::Engine e;
  pfs::Pfs fs(e, pfs::PfsConfig{});
  auto ds = DatasetBuilder(fs, "str2.nc")
                .add_var("v", mpi::Prim::f64, {6, 10, 14})
                .finish();
  const auto v = ds.var("v");
  const std::array<std::uint64_t, 3> start{1, 2, 3}, count{2, 4, 5};
  const std::array<std::uint64_t, 3> ones{1, 1, 1};
  const auto a = ds.slab_request(v, start, count);
  const auto b = ds.slab_request_strided(v, start, count, ones);
  EXPECT_EQ(a.extents(), b.extents());
}

TEST(Dataset, StridedBoundsChecked) {
  des::Engine e;
  pfs::Pfs fs(e, pfs::PfsConfig{});
  auto ds = DatasetBuilder(fs, "str3.nc")
                .add_var("v", mpi::Prim::f32, {10})
                .finish();
  const std::array<std::uint64_t, 1> start{0}, count{4}, stride{4};
  // last index = 0 + 3*4 = 12 >= 10
  EXPECT_THROW(
      ds.slab_request_strided(ds.var("v"), start, count, stride),
      ContractViolation);
}

TEST(Dataset, GetVarsAllReadsStridedValues) {
  mpi::Runtime rt(small_machine(), 4);
  auto ds = DatasetBuilder(rt.fs(), "str4.nc")
                .add_generated_var<std::int32_t>(
                    "v", {64, 32},
                    [](std::span<const std::uint64_t> c) {
                      return static_cast<std::int32_t>(c[0] * 32 + c[1]);
                    })
                .finish();
  std::vector<int> bad(4, 0);
  rt.run([&](mpi::Comm& c) {
    // Rank r reads every 4th row starting at r, all columns.
    const std::array<std::uint64_t, 2> start{
        static_cast<std::uint64_t>(c.rank()), 0};
    const std::array<std::uint64_t, 2> count{16, 32}, stride{4, 1};
    std::vector<std::int32_t> out(16 * 32, -1);
    ds.get_vars_all<std::int32_t>(c, ds.var("v"), start, count, stride,
                                  std::span<std::int32_t>(out));
    for (std::uint64_t i = 0; i < 16; ++i) {
      for (std::uint64_t j = 0; j < 32; ++j) {
        const auto row = static_cast<std::uint64_t>(c.rank()) + 4 * i;
        if (out[i * 32 + j] != static_cast<std::int32_t>(row * 32 + j)) {
          ++bad[static_cast<std::size_t>(c.rank())];
        }
      }
    }
  });
  for (int b : bad) EXPECT_EQ(b, 0);
}

// Property: collective and independent reads agree for random slabs.
class SlabProperty : public ::testing::TestWithParam<int> {};

TEST_P(SlabProperty, CollectiveEqualsIndependent) {
  Prng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const int nprocs = static_cast<int>(1 + rng.next_below(6));
  mpi::Runtime rt(small_machine(), nprocs);
  const std::size_t nd = 1 + rng.next_below(3);
  std::vector<std::uint64_t> dims(nd);
  for (auto& d : dims) d = 4 + rng.next_below(20);
  auto ds = DatasetBuilder(rt.fs(), "p.nc")
                .add_generated_var<double>(
                    "v", dims,
                    [](std::span<const std::uint64_t> c) {
                      double v = 0.5;
                      for (auto x : c) v = v * 31.0 + static_cast<double>(x);
                      return v;
                    })
                .finish();
  // Random slab per rank (precomputed to keep rank bodies deterministic).
  std::vector<std::vector<std::uint64_t>> starts(
      static_cast<std::size_t>(nprocs)),
      counts(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    auto& s = starts[static_cast<std::size_t>(r)];
    auto& k = counts[static_cast<std::size_t>(r)];
    s.resize(nd);
    k.resize(nd);
    for (std::size_t d = 0; d < nd; ++d) {
      k[d] = 1 + rng.next_below(dims[d]);
      s[d] = rng.next_below(dims[d] - k[d] + 1);
    }
  }
  std::vector<int> bad(static_cast<std::size_t>(nprocs), 0);
  rt.run([&](mpi::Comm& c) {
    const auto me = static_cast<std::size_t>(c.rank());
    std::uint64_t n = 1;
    for (auto k : counts[me]) n *= k;
    std::vector<double> coll(n, -1), ind(n, -2);
    romio::Hints h;
    h.cb_buffer_size = 2048;
    ds.get_vara_all<double>(c, ds.var("v"), starts[me], counts[me],
                            std::span<double>(coll), h);
    ds.get_vara<double>(c, ds.var("v"), starts[me], counts[me],
                        std::span<double>(ind));
    if (coll != ind) ++bad[me];
  });
  for (int b : bad) EXPECT_EQ(b, 0);
}

INSTANTIATE_TEST_SUITE_P(RandomSlabs, SlabProperty, ::testing::Range(0, 15));

}  // namespace
}  // namespace colcom::ncio
