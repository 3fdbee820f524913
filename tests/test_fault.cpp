// Tests for the storage fault substrate (paper Sec. VI future work):
// transient OST timeouts retried by the PFS cost virtual time, never bytes,
// and roll deterministically. Corrupted PFS reads are a chaos class of
// their own, verified in romio::ChunkReader (tests/test_integrity.cpp).
#include <gtest/gtest.h>

#include "des/engine.hpp"
#include "pfs/pfs.hpp"
#include "pfs/store.hpp"

namespace colcom::pfs {
namespace {

std::span<const std::byte> as_cbytes(const std::vector<std::uint8_t>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()), v.size()};
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
