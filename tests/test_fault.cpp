// Tests for the fault-injection substrate (paper Sec. VI future work):
// checksums, corrupting stores, transient OST retries, and fault-tolerant
// collective computing.
#include <gtest/gtest.h>

#include <numeric>

#include "des/engine.hpp"
#include "integrity/integrity.hpp"
#include "pfs/fault.hpp"
#include "pfs/pfs.hpp"
#include "pfs/store.hpp"

namespace colcom::pfs {
namespace {

std::span<const std::byte> as_cbytes(const std::vector<std::uint8_t>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()), v.size()};
}

TEST(Checksum, StoreChecksumMatchesDirectHash) {
  MemStore s(0);
  std::vector<std::uint8_t> data(3 << 20);  // > one streaming window
  std::iota(data.begin(), data.end(), 0);
  s.write(0, as_cbytes(data));
  const auto direct = integrity::checksum(as_cbytes(data));
  EXPECT_EQ(integrity::store_checksum(s, 0, data.size()), direct);
  // Sub-range checksums differ from the whole.
  EXPECT_NE(integrity::store_checksum(s, 0, 100), direct);
}

TEST(FaultyStore, ZeroProbabilityIsTransparent) {
  auto base = make_element_generator<float>(
      1000, [](std::uint64_t i) { return static_cast<float>(i); });
  FaultyStore s(std::move(base), 0.0);
  std::vector<float> out(1000);
  s.read(0, std::as_writable_bytes(std::span<float>(out)));
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<float>(i));
  }
  EXPECT_EQ(s.corruptions_served(), 0u);
}

TEST(FaultyStore, CorruptsThenHealsOnRetry) {
  auto base = std::make_unique<MemStore>(4096);
  std::vector<std::uint8_t> data(4096, 7);
  base->write(0, as_cbytes(data));
  FaultyStore s(std::move(base), 1.0, 42, /*corrupt_attempts=*/1);
  std::vector<std::byte> first(4096), second(4096);
  s.read(0, first);
  s.read(0, second);  // same location: corruption budget exhausted
  EXPECT_GE(s.corruptions_served(), 1u);
  EXPECT_NE(0, std::memcmp(first.data(), second.data(), 4096));
  // The healed read matches pristine content.
  std::vector<std::byte> truth(4096);
  s.pristine().read(0, truth);
  EXPECT_EQ(0, std::memcmp(second.data(), truth.data(), 4096));
}

TEST(FaultyStore, ChecksumDetectsCorruption) {
  auto base = std::make_unique<MemStore>(1024);
  std::vector<std::uint8_t> data(1024, 3);
  base->write(0, as_cbytes(data));
  FaultyStore s(std::move(base), 1.0, 9);
  const auto good = integrity::store_checksum(s.pristine(), 0, 1024);
  std::vector<std::byte> buf(1024);
  s.read(0, buf);
  EXPECT_NE(integrity::checksum(buf), good);
}

TEST(FaultyStore, DeterministicPattern) {
  auto make = [] {
    auto base = std::make_unique<MemStore>(8192);
    std::vector<std::uint8_t> d(8192, 1);
    base->write(0, {reinterpret_cast<const std::byte*>(d.data()), d.size()});
    return std::make_unique<FaultyStore>(std::move(base), 0.5, 77, 100);
  };
  auto a = make();
  auto b = make();
  std::vector<std::byte> ba(8192), bb(8192);
  for (int i = 0; i < 4; ++i) {
    a->read(static_cast<std::uint64_t>(i) * 2048, std::span(ba).subspan(0, 2048));
    b->read(static_cast<std::uint64_t>(i) * 2048, std::span(bb).subspan(0, 2048));
  }
  EXPECT_EQ(0, std::memcmp(ba.data(), bb.data(), 2048));
  EXPECT_EQ(a->corruptions_served(), b->corruptions_served());
}

TEST(FaultyStore, AttemptTrackingStaysBounded) {
  // A long-running corrupting store must not grow its attempt map without
  // bound: with a large per-offset budget every corrupting offset holds a
  // live counter, and the FIFO eviction caps them at kMaxTrackedOffsets.
  auto base = std::make_unique<MemStore>(8192);
  std::vector<std::uint8_t> data(8192, 7);
  base->write(0, as_cbytes(data));
  FaultyStore s(std::move(base), 1.0, 42, /*corrupt_attempts=*/1000);
  std::vector<std::byte> one(1);
  const std::uint64_t n = 6000;  // well past the bound
  for (std::uint64_t off = 0; off < n; ++off) s.read(off, one);
  EXPECT_EQ(s.corruptions_served(), n);
  EXPECT_EQ(s.tracked_offsets(), FaultyStore::kMaxTrackedOffsets);
}

TEST(FaultyStore, ExhaustedOffsetStaysCleanUnderEvictionPressure) {
  // Once an offset spends its corruption budget it must read clean forever,
  // even after thousands of other offsets churn the live-counter map: the
  // exhausted set lives in a separate fixed-size filter, not the map.
  auto base = std::make_unique<MemStore>(8192);
  std::vector<std::uint8_t> data(8192, 7);
  base->write(0, as_cbytes(data));
  FaultyStore s(std::move(base), 1.0, 42, /*corrupt_attempts=*/2);
  std::vector<std::byte> buf(1), truth(1);
  s.pristine().read(0, truth);
  s.read(0, buf);  // attempt 1: corrupted
  EXPECT_NE(buf[0], truth[0]);
  s.read(0, buf);  // attempt 2: budget spent with this read
  s.read(0, buf);  // exhausted: clean
  EXPECT_EQ(buf[0], truth[0]);
  // Churn enough distinct offsets to trigger live-counter evictions.
  std::vector<std::byte> one(1);
  for (std::uint64_t off = 1; off <= 5000; ++off) s.read(off, one);
  s.read(0, buf);
  EXPECT_EQ(buf[0], truth[0]);
}

TEST(PfsFaults, TransientRetriesCostTimeNotData) {
  des::Engine e;
  PfsConfig cfg;
  cfg.n_osts = 2;
  cfg.stripe_size = 4096;
  cfg.ost_bw = 1e6;
  cfg.transient_fail_prob = 0.0;
  PfsConfig faulty = cfg;
  faulty.transient_fail_prob = 0.3;
  faulty.retry_delay_s = 0.1;

  auto run = [&](const PfsConfig& c) {
    des::Engine eng;
    Pfs fs(eng, c);
    auto id = fs.create("f", std::make_unique<MemStore>(1 << 20));
    des::SimTime elapsed = 0;
    bool data_ok = true;
    eng.spawn("t", 0, [&] {
      std::vector<std::uint8_t> w(65536, 9);
      fs.write(id, 0, as_cbytes(w));
      std::vector<std::byte> r(65536);
      fs.read(id, 0, r);
      elapsed = eng.now();
      for (const auto b : r) data_ok &= (b == std::byte{9});
    });
    eng.run();
    return std::pair{elapsed, data_ok};
  };
  const auto clean = run(cfg);
  const auto injected = run(faulty);
  EXPECT_TRUE(clean.second);
  EXPECT_TRUE(injected.second);          // bytes are never lost
  EXPECT_GT(injected.first, clean.first);  // retries cost virtual time
}

TEST(PfsFaults, RetryCountIsDeterministic) {
  auto count = [] {
    des::Engine eng;
    PfsConfig c;
    c.n_osts = 4;
    c.stripe_size = 1024;
    c.transient_fail_prob = 0.4;
    Pfs fs(eng, c);
    auto id = fs.create("f", std::make_unique<MemStore>(1 << 20));
    eng.spawn("t", 0, [&] {
      std::vector<std::byte> r(262144);
      fs.read(id, 0, r);
    });
    eng.run();
    return fs.stats().retries;
  };
  const auto a = count();
  EXPECT_GT(a, 0u);
  EXPECT_EQ(a, count());
}

}  // namespace
}  // namespace colcom::pfs
