// Unit tests for stores and the striped parallel file system.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "des/engine.hpp"
#include "pfs/extent.hpp"
#include "pfs/pfs.hpp"
#include "pfs/store.hpp"
#include "util/prng.hpp"

namespace colcom::pfs {
namespace {

std::span<std::byte> as_bytes(std::vector<std::uint8_t>& v) {
  return {reinterpret_cast<std::byte*>(v.data()), v.size()};
}
std::span<const std::byte> as_cbytes(const std::vector<std::uint8_t>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()), v.size()};
}

TEST(MemStore, ReadBackWhatWasWritten) {
  MemStore s;
  std::vector<std::uint8_t> w{1, 2, 3, 4, 5};
  s.write(10, as_cbytes(w));
  EXPECT_EQ(s.size(), 15u);
  std::vector<std::uint8_t> r(5);
  s.read(10, as_bytes(r));
  EXPECT_EQ(r, w);
}

TEST(GeneratorStore, SynthesizesTypedElements) {
  auto g = make_element_generator<float>(
      1000, [](std::uint64_t i) { return static_cast<float>(i) * 0.5f; });
  EXPECT_EQ(g->size(), 4000u);
  std::vector<float> out(10);
  g->read(40, std::as_writable_bytes(std::span<float>(out)));
  for (int i = 0; i < 10; ++i) {
    EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)],
                    static_cast<float>(i + 10) * 0.5f);
  }
}

TEST(GeneratorStore, HandlesMisalignedByteReads) {
  auto g = make_element_generator<std::uint32_t>(
      100, [](std::uint64_t i) { return static_cast<std::uint32_t>(i); });
  // Read bytes 2..10 (crosses element boundaries mid-element).
  std::vector<std::uint8_t> partial(8);
  g->read(2, as_bytes(partial));
  std::vector<std::uint8_t> full(12);
  g->read(0, as_bytes(full));
  EXPECT_EQ(0, std::memcmp(partial.data(), full.data() + 2, 8));
}

// ---- fill_elements: the bulk generator loop against a closed form.

/// Distinct per coordinate tuple and touches every byte of wide types.
template <typename T>
T closed_form(std::span<const std::uint64_t> c) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t x : c) h = (h ^ (x + 1)) * 0x100000001b3ull;
  if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(static_cast<double>(h >> 16) / 7.0);
  } else {
    return static_cast<T>(h);
  }
}

/// The whole array's bytes, each element decoded from its flat index on
/// its own (no odometer).
template <typename T>
std::vector<std::byte> reference_bytes(const std::vector<std::uint64_t>& dims) {
  std::uint64_t count = 1;
  for (auto d : dims) count *= d;
  std::vector<std::byte> out(count * sizeof(T));
  std::vector<std::uint64_t> c(dims.size());
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t rem = i;
    for (std::size_t d = dims.size(); d-- > 0;) {
      c[d] = rem % dims[d];
      rem /= dims[d];
    }
    const T v = closed_form<T>(c);
    std::memcpy(out.data() + i * sizeof(T), &v, sizeof(T));
  }
  return out;
}

/// A generator over `dims` that counts element-function calls.
template <typename T>
struct CountingGenerator {
  explicit CountingGenerator(const std::vector<std::uint64_t>& dims)
      : ref(reference_bytes<T>(dims)),
        store(make_array_generator<T>(
            dims, [calls = &calls](std::span<const std::uint64_t> c) {
              ++*calls;
              return closed_form<T>(c);
            })) {}

  /// Reads [off, off + len) and checks bytes and the evaluation count.
  void check(std::uint64_t off, std::uint64_t len) {
    SCOPED_TRACE(::testing::Message() << "window [" << off << ", "
                                      << off + len << ") of " << ref.size());
    std::vector<std::byte> got(len, std::byte{0xee});
    calls = 0;
    store->read(off, got);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin() + off));
    const std::uint64_t touched =
        len == 0 ? 0 : (off + len + sizeof(T) - 1) / sizeof(T) - off / sizeof(T);
    EXPECT_EQ(calls, touched);
  }

  std::uint64_t calls = 0;
  std::vector<std::byte> ref;
  std::unique_ptr<GeneratorStore> store;
};

template <typename T>
class FillElements : public ::testing::Test {};
using FillPrims =
    ::testing::Types<std::uint8_t, std::int32_t, std::int64_t, float, double>;
TYPED_TEST_SUITE(FillElements, FillPrims);

const std::vector<std::vector<std::uint64_t>>& fill_shapes() {
  static const std::vector<std::vector<std::uint64_t>> shapes{
      {37}, {3, 5, 7}, {5, 4, 1}, {2, 1, 3, 2, 2, 1, 2, 3}};
  return shapes;
}

TYPED_TEST(FillElements, RandomWindowsMatchClosedForm) {
  Prng rng(20150901);
  for (const auto& dims : fill_shapes()) {
    CountingGenerator<TypeParam> g(dims);
    const std::uint64_t size = g.ref.size();
    ASSERT_EQ(g.store->size(), size);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t off = rng.next_below(size + 1);
      g.check(off, rng.next_below(size - off + 1));
    }
  }
}

TYPED_TEST(FillElements, EdgeWindowsMatchClosedForm) {
  constexpr std::uint64_t S = sizeof(TypeParam);
  constexpr std::uint64_t mis = S > 1 ? 1 : 0;  // misalignment, when possible
  for (const auto& dims : fill_shapes()) {
    CountingGenerator<TypeParam> g(dims);
    const std::uint64_t size = g.ref.size();
    const std::uint64_t row = dims.back();
    const std::uint64_t plane = dims.size() > 1 ? row * dims[dims.size() - 2]
                                                : row;
    g.check(0, size);                       // whole variable
    g.check(0, 0);                          // empty
    g.check(size, 0);                       // empty, at the end
    g.check(3 * S + mis, 10 * S);           // misaligned head and tail
    g.check(3 * S + mis, S - mis);          // ragged head only
    g.check(4 * S, S + (S > 1 ? S / 2 : 0));  // ragged tail only
    if (S >= 3) g.check(4 * S + 1, S - 2);  // strictly inside one element
    g.check(4 * S, S);                      // exactly one element
    // Across a row carry and a plane carry, starting mid-element (1-D
    // shapes have neither; the window is cut at the end).
    const auto across = [&](std::uint64_t off, std::uint64_t len) {
      g.check(off, std::min(len, size - off));
    };
    across((row - 1) * S + mis, 2 * S);
    across((plane - 1) * S + mis, 3 * S);
    g.check(size - S, S);                   // the variable's last element
    g.check(size - 1, 1);                   // its last byte
    g.check(size - 2 * S - mis, 2 * S + mis);  // ends on the last byte
  }
}

TEST(GeneratorStore, WriteIsRejected) {
  auto g = make_element_generator<float>(10, [](std::uint64_t) { return 0.f; });
  std::vector<std::uint8_t> w{1};
  EXPECT_THROW(g->write(0, as_cbytes(w)), ContractViolation);
}

TEST(OverlayStore, WrittenExtentsShadowBase) {
  auto base = make_element_generator<std::uint8_t>(
      100, [](std::uint64_t) { return std::uint8_t{7}; });
  OverlayStore s(std::move(base));
  std::vector<std::uint8_t> w{1, 2, 3};
  s.write(10, as_cbytes(w));
  std::vector<std::uint8_t> r(6);
  s.read(8, as_bytes(r));
  EXPECT_EQ(r, (std::vector<std::uint8_t>{7, 7, 1, 2, 3, 7}));
}

TEST(OverlayStore, OverlappingWritesMerge) {
  OverlayStore s(std::make_unique<MemStore>(32));
  std::vector<std::uint8_t> a{1, 1, 1, 1}, b{2, 2, 2, 2};
  s.write(0, as_cbytes(a));
  s.write(2, as_cbytes(b));  // overlaps tail of first write
  std::vector<std::uint8_t> r(6);
  s.read(0, as_bytes(r));
  EXPECT_EQ(r, (std::vector<std::uint8_t>{1, 1, 2, 2, 2, 2}));
}

TEST(OverlayStore, GrowsPastBase) {
  OverlayStore s(std::make_unique<MemStore>(4));
  std::vector<std::uint8_t> w{9, 9};
  s.write(10, as_cbytes(w));
  EXPECT_EQ(s.size(), 12u);
  std::vector<std::uint8_t> r(12);
  s.read(0, as_bytes(r));
  EXPECT_EQ(r[9], 0);  // gap is zero-filled
  EXPECT_EQ(r[10], 9);
}

TEST(OverlayStore, WriteAcrossSeveralBlocksFillsTheGaps) {
  OverlayStore s(std::make_unique<MemStore>(24));
  const std::vector<std::uint8_t> a(4, 1);
  s.write(0, as_cbytes(a));
  s.write(8, as_cbytes(a));
  s.write(12, as_cbytes(a));  // touches the block before it
  const std::vector<std::uint8_t> b(16, 2);
  s.write(2, as_cbytes(b));  // over parts of three blocks and two gaps
  std::vector<std::uint8_t> r(24);
  s.read(0, as_bytes(r));
  EXPECT_EQ(r, (std::vector<std::uint8_t>{1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
                                          2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0}));
}

TEST(OverlayStore, RandomWritesMatchFlatReference) {
  constexpr std::uint64_t kBase = 1000;
  std::vector<std::uint8_t> ref(kBase);
  for (std::uint64_t i = 0; i < kBase; ++i) {
    ref[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  auto base = std::make_unique<MemStore>(kBase);
  base->write(0, as_cbytes(ref));
  OverlayStore s(std::move(base));
  Prng rng(24);
  std::vector<ByteExtent> done;
  for (int step = 0; step < 600; ++step) {
    ByteExtent w{rng.next_below(1600), 1 + rng.next_below(300)};
    if (!done.empty()) {
      const ByteExtent& p = done[rng.next_below(done.size())];
      const ByteExtent& q = done[rng.next_below(done.size())];
      switch (rng.next_below(5)) {
        case 0:  // inside an earlier write
          w.offset = p.offset + rng.next_below(p.length);
          w.length = 1 + rng.next_below(p.end() - w.offset);
          break;
        case 1:  // touching an earlier write's end
          w.offset = p.end();
          break;
        case 2:  // touching an earlier write's start
          if (p.offset == 0) break;
          w.length = 1 + rng.next_below(std::min<std::uint64_t>(p.offset, 300));
          w.offset = p.offset - w.length;
          break;
        case 3:  // across several earlier writes and the gaps between them
          w.offset = std::min(p.offset, q.offset) / 2;
          w.length = std::max(p.end(), q.end()) + rng.next_below(64) - w.offset;
          break;
        default:  // anywhere, past the base too
          break;
      }
    }
    std::vector<std::uint8_t> bytes(w.length);
    for (auto& v : bytes) v = static_cast<std::uint8_t>(rng.next_below(256));
    s.write(w.offset, as_cbytes(bytes));
    if (ref.size() < w.end()) ref.resize(w.end(), 0);
    std::copy(bytes.begin(), bytes.end(),
              ref.begin() + static_cast<std::ptrdiff_t>(w.offset));
    done.push_back(w);

    ASSERT_EQ(s.size(), ref.size());
    const std::uint64_t lo = rng.next_below(ref.size());
    std::vector<std::uint8_t> got(1 + rng.next_below(ref.size() - lo));
    s.read(lo, as_bytes(got));
    ASSERT_TRUE(std::equal(got.begin(), got.end(),
                           ref.begin() + static_cast<std::ptrdiff_t>(lo)))
        << "step " << step << ": read at " << lo << " of " << got.size();
  }
  std::vector<std::uint8_t> all(ref.size());
  s.read(0, as_bytes(all));
  EXPECT_EQ(all, ref);
}

TEST(Extent, CoalesceMergesAdjacentAndOverlapping) {
  std::vector<ByteExtent> e{{0, 10}, {10, 5}, {20, 5}, {22, 10}};
  coalesce_sorted(e);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0], (ByteExtent{0, 15}));
  EXPECT_EQ(e[1], (ByteExtent{20, 12}));
}

TEST(Extent, TotalBytes) {
  EXPECT_EQ(total_bytes({{0, 3}, {10, 4}}), 7u);
  EXPECT_EQ(total_bytes({}), 0u);
}

class PfsTest : public ::testing::Test {
 protected:
  PfsConfig small_cfg() {
    PfsConfig c;
    c.n_osts = 4;
    c.stripe_size = 1024;
    c.ost_bw = 1e6;
    c.ost_seek = 1e-3;
    c.ost_request_overhead = 1e-4;
    c.storage_net_bw = 1e9;
    return c;
  }
};

TEST_F(PfsTest, RoundTripBytes) {
  des::Engine e;
  Pfs fs(e, small_cfg());
  auto id = fs.create("f", std::make_unique<MemStore>(16384));
  bool ok = false;
  e.spawn("t", 0, [&] {
    std::vector<std::uint8_t> w(5000);
    std::iota(w.begin(), w.end(), 0);
    fs.write(id, 123, as_cbytes(w));
    std::vector<std::uint8_t> r(5000);
    fs.read(id, 123, as_bytes(r));
    ok = (r == w);
  });
  e.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(fs.stats().read_bytes, 5000u);
  EXPECT_EQ(fs.stats().written_bytes, 5000u);
}

TEST_F(PfsTest, OpenFindsCreatedFile) {
  des::Engine e;
  Pfs fs(e, small_cfg());
  fs.create("a", std::make_unique<MemStore>(1));
  auto id = fs.create("b", std::make_unique<MemStore>(2));
  EXPECT_EQ(fs.open("b").index, id.index);
  EXPECT_THROW(fs.open("missing"), ContractViolation);
}

TEST_F(PfsTest, StripingSpreadsLoadAcrossOsts) {
  des::Engine e;
  Pfs fs(e, small_cfg());  // 4 OSTs, 1 KB stripes
  auto id = fs.create("f", std::make_unique<MemStore>(1 << 20));
  des::SimTime striped = 0, single = 0;
  e.spawn("t", 0, [&] {
    std::vector<std::uint8_t> buf(8192);
    des::SimTime t0 = e.now();
    fs.read(id, 0, as_bytes(buf));  // spans 8 stripes on 4 OSTs in parallel
    striped = e.now() - t0;
    // A read within a single stripe is served by one OST.
    std::vector<std::uint8_t> b2(1024);
    t0 = e.now();
    fs.read(id, 0, as_bytes(b2));
    single = e.now() - t0;
  });
  e.run();
  // 8 KB over 4 parallel OSTs should take ~2x the time of 1 KB on one OST
  // (2 KB per OST), far less than a serial 8x.
  EXPECT_LT(striped, 4.0 * single);
}

TEST_F(PfsTest, NonSequentialAccessPaysSeek) {
  des::Engine e;
  auto cfg = small_cfg();
  cfg.n_osts = 1;
  Pfs fs(e, cfg);
  auto id = fs.create("f", std::make_unique<MemStore>(1 << 20));
  des::SimTime seq = 0, rnd = 0;
  e.spawn("t", 0, [&] {
    std::vector<std::uint8_t> buf(512);
    // Sequential pass.
    des::SimTime t0 = e.now();
    fs.read(id, 0, as_bytes(buf));
    fs.read(id, 512, as_bytes(buf));
    seq = e.now() - t0;
    // Backward jump forces a seek.
    t0 = e.now();
    fs.read(id, 100'000, as_bytes(buf));
    fs.read(id, 0, as_bytes(buf));
    rnd = e.now() - t0;
  });
  e.run();
  // Sequential pass pays one cold seek; the jumpy pass pays two.
  EXPECT_GT(rnd, seq + 0.5e-3);
}

TEST_F(PfsTest, ExtentListReadPacksInOrder) {
  des::Engine e;
  Pfs fs(e, small_cfg());
  auto id = fs.create("f", std::make_unique<MemStore>(4096));
  bool ok = false;
  e.spawn("t", 0, [&] {
    std::vector<std::uint8_t> w(4096);
    std::iota(w.begin(), w.end(), 0);  // wraps mod 256, fine
    fs.write(id, 0, as_cbytes(w));
    std::vector<ByteExtent> ext{{10, 4}, {100, 2}, {1000, 3}};
    std::vector<std::uint8_t> r(9);
    fs.read_extents_async(id, ext, as_bytes(r)).wait();
    ok = r == (std::vector<std::uint8_t>{10, 11, 12, 13, 100, 101,
                                         static_cast<std::uint8_t>(1000 % 256),
                                         static_cast<std::uint8_t>(1001 % 256),
                                         static_cast<std::uint8_t>(1002 % 256)});
  });
  e.run();
  EXPECT_TRUE(ok);
}

TEST_F(PfsTest, ManySmallExtentsCostMoreThanOneBigRead) {
  des::Engine e;
  Pfs fs(e, small_cfg());
  auto id = fs.create("f", std::make_unique<MemStore>(1 << 20));
  des::SimTime many = 0, big = 0;
  e.spawn("t", 0, [&] {
    // 64 scattered 64-byte extents vs one 4 KB read.
    std::vector<ByteExtent> ext;
    for (int i = 0; i < 64; ++i) {
      ext.push_back({static_cast<std::uint64_t>(i) * 16384, 64});
    }
    std::vector<std::uint8_t> r(64 * 64);
    des::SimTime t0 = e.now();
    fs.read_extents_async(id, ext, as_bytes(r)).wait();
    many = e.now() - t0;
    std::vector<std::uint8_t> r2(4096);
    t0 = e.now();
    fs.read(id, 0, as_bytes(r2));
    big = e.now() - t0;
  });
  e.run();
  EXPECT_GT(many, 5.0 * big);  // the motivation for collective I/O
}

TEST_F(PfsTest, GeneratorBackedHugeFileReadsWithoutMemory) {
  des::Engine e;
  auto cfg = small_cfg();
  cfg.stripe_size = 4ull << 20;
  Pfs fs(e, cfg);
  // "800 GB" logical file.
  const std::uint64_t elems = (800ull << 30) / 4;
  auto id = fs.create("climate", make_element_generator<float>(
                                     elems, [](std::uint64_t i) {
                                       return static_cast<float>(i % 977);
                                     }));
  bool ok = false;
  e.spawn("t", 0, [&] {
    std::vector<float> buf(1024);
    const std::uint64_t elem_off = 700ull << 28;  // deep into the file
    fs.read(id, elem_off * 4, std::as_writable_bytes(std::span<float>(buf)));
    ok = true;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (buf[i] != static_cast<float>((elem_off + i) % 977)) ok = false;
    }
  });
  e.run();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace colcom::pfs
