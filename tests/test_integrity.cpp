// colcom::integrity tests — end-to-end data integrity across every custody
// stage. The contract under test: a planted corruption (chaos-injected or
// hand-planted) is either healed bit-identically — a corrupted PFS chunk
// read re-read by romio::ChunkReader, cache bit-rot re-fetched
// from the PFS, torn write-behind extents re-staged from the pristine
// shadow, corrupted stream payloads re-requested from the producer's
// unretired buffer, a corrupt checkpoint generation falling back to the
// newest intact one, resident rot repaired by the scrubber — or surfaces as
// a structured fault::Error{data_corrupt} naming the custody stage when the
// recovery budget runs out. Never a silently wrong answer, and every
// detection is accounted: detected == recovered + failed. CI sweeps
// COLCOM_CHAOS_SEED and COLCOM_CHECK=1 over this suite (see scripts/ci.sh).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "core/iterative.hpp"
#include "core/object_io.hpp"
#include "core/runtime.hpp"
#include "des/completion.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "integrity/integrity.hpp"
#include "mpi/runtime.hpp"
#include "ncio/dataset.hpp"
#include "pfs/store.hpp"
#include "stage/stage.hpp"
#include "stream/stream.hpp"
#include "trace/trace.hpp"
#include "wrf/hurricane.hpp"
#include "wrf/writer.hpp"

namespace colcom {
namespace {

/// CI sweeps several seeds: COLCOM_CHAOS_SEED overrides the default.
std::uint64_t chaos_seed() {
  if (const char* s = std::getenv("COLCOM_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return 0x1a7e6;
}

mpi::MachineConfig small_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  cfg.pfs.n_osts = 4;
  cfg.pfs.stripe_size = 8192;
  return cfg;
}

ncio::Dataset make_ds(pfs::Pfs& fs, std::vector<std::uint64_t> dims) {
  return ncio::DatasetBuilder(fs, "integrity.nc")
      .add_generated_var<float>(
          "v", std::move(dims),
          [](std::span<const std::uint64_t> c) {
            double v = 1.0;
            for (auto x : c) v = v * 3.7 + static_cast<double>(x);
            return static_cast<float>(v * 1e-3);
          })
      .finish();
}

/// The acceptance invariant: every detection closed by exactly one
/// recovery or one structured failure.
void expect_accounted(const integrity::Stats& s) {
  EXPECT_EQ(s.detected, s.recovered + s.failed)
      << "detected=" << s.detected << " recovered=" << s.recovered
      << " failed=" << s.failed;
}

// ---------------- checksum primitives (no runtime) ----------------

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 131 + static_cast<int>(i)) & 0xff);
  }
  return v;
}

TEST(ChecksumPrimitives, HasherIncrementalMatchesFullChecksum) {
  const auto a = pattern(1000, 1);
  const auto b = pattern(37, 2);
  std::vector<std::byte> cat = a;
  cat.insert(cat.end(), b.begin(), b.end());
  integrity::Hasher h;
  h.update(a).update(b);
  EXPECT_EQ(h.digest(), integrity::checksum(cat));
  EXPECT_NE(h.digest(), integrity::checksum(a));
  // Every split point, and byte-by-byte feeding, of lengths around the
  // 32-byte stripe: the partial stripe must carry over between updates.
  std::vector<std::size_t> lengths(130);
  std::iota(lengths.begin(), lengths.end(), 0);
  lengths.push_back(1000);
  for (const std::size_t len : lengths) {
    const auto buf = pattern(len, static_cast<int>(len));
    const std::span<const std::byte> all(buf);
    const std::uint64_t want = integrity::checksum(all);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      integrity::Hasher split;
      split.update(all.first(cut)).update(all.subspan(cut));
      ASSERT_EQ(split.digest(), want) << "len " << len << " split at " << cut;
    }
    integrity::Hasher bytewise;
    for (std::size_t i = 0; i < len; ++i) bytewise.update(all.subspan(i, 1));
    ASSERT_EQ(bytewise.digest(), want) << "len " << len << " byte by byte";
  }
}

std::span<const std::byte> text_bytes(std::string_view s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

TEST(ChecksumPrimitives, MatchesPublishedXxh64Digests) {
  // XXH64, seed 0. The 39- and 43-byte inputs cover a whole stripe plus
  // 8-, 4- and 1-byte tail steps.
  EXPECT_EQ(integrity::checksum({}), 0xef46db3751d8e999ull);
  EXPECT_EQ(integrity::checksum(text_bytes("a")), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(integrity::checksum(text_bytes("abc")), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(integrity::checksum(
                text_bytes("Nobody inspects the spammish repetition")),
            0xfbcea83c8a378bf1ull);
  EXPECT_EQ(integrity::checksum(
                text_bytes("The quick brown fox jumps over the lazy dog")),
            0x0b242d361fda71bcull);
}

TEST(ChecksumPrimitives, EverySingleBitFlipChangesTheDigest) {
  auto buf = pattern(4096, 6);
  const std::uint64_t clean = integrity::checksum(buf);
  std::unordered_set<std::uint64_t> seen{clean};
  std::size_t unchanged = 0;
  for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
    const auto mask = static_cast<std::byte>(1u << (bit % 8));
    buf[bit / 8] ^= mask;
    const std::uint64_t sum = integrity::checksum(buf);
    buf[bit / 8] ^= mask;
    if (sum == clean) ++unchanged;
    seen.insert(sum);
  }
  EXPECT_EQ(unchanged, 0u);
  // No two flips collide either: 32,768 flips, 32,768 distinct digests.
  EXPECT_EQ(seen.size(), buf.size() * 8 + 1);
}

TEST(ChecksumPrimitives, TopBitFlipsInTwoWordsDoNotCancel) {
  // A word-wise FNV (h ^= w; h *= prime) carries a flip of bit 63 only into
  // bit 63, so two such flips cancel. Pairs cover two lanes of one stripe,
  // one lane across stripes, and a stripe word against a tail word.
  auto buf = pattern(4096 + 24, 7);
  const std::uint64_t clean = integrity::checksum(buf);
  const std::pair<std::size_t, std::size_t> pairs[] = {
      {0, 1}, {0, 4}, {3, 7}, {10, 511}, {0, 512}, {511, 514}};
  for (const auto& [a, b] : pairs) {
    buf[a * 8 + 7] ^= std::byte{0x80};
    buf[b * 8 + 7] ^= std::byte{0x80};
    EXPECT_NE(integrity::checksum(buf), clean) << "words " << a << ", " << b;
    buf[a * 8 + 7] ^= std::byte{0x80};
    buf[b * 8 + 7] ^= std::byte{0x80};
  }
}

TEST(ChecksumPrimitives, UnalignedSubspansHashLikeAlignedCopies) {
  const auto buf = pattern(4096 + 8, 8);
  for (std::size_t skew = 1; skew <= 7; ++skew) {
    for (const std::size_t len : {1, 7, 8, 31, 32, 33, 100, 1000, 4096}) {
      const auto sub = std::span<const std::byte>(buf).subspan(skew, len);
      const std::vector<std::byte> copy(sub.begin(), sub.end());
      EXPECT_EQ(integrity::checksum(sub), integrity::checksum(copy))
          << "skew " << skew << " len " << len;
      EXPECT_EQ(integrity::Hasher{}.update(sub).digest(),
                integrity::checksum(copy));
    }
  }
}

TEST(ChecksumPrimitives, CombineIsOrderAndLengthSensitive) {
  const auto a = pattern(64, 3);
  const auto b = pattern(64, 4);
  const std::uint64_t sa = integrity::checksum(a);
  const std::uint64_t sb = integrity::checksum(b);
  const std::uint64_t ab = integrity::combine(
      integrity::combine(integrity::kCombineSeed, sa, a.size()), sb, b.size());
  const std::uint64_t ba = integrity::combine(
      integrity::combine(integrity::kCombineSeed, sb, b.size()), sa, a.size());
  EXPECT_NE(ab, ba) << "extent reordering must change the combined digest";
  // Same digests, different claimed lengths: a truncation marker.
  const std::uint64_t ab2 = integrity::combine(
      integrity::combine(integrity::kCombineSeed, sa, a.size() - 1), sb,
      b.size());
  EXPECT_NE(ab, ab2);
  // Deterministic: recombining yields the identical value.
  EXPECT_EQ(ab, integrity::combine(integrity::combine(integrity::kCombineSeed,
                                                      sa, a.size()),
                                   sb, b.size()));
}

TEST(ChecksumPrimitives, SampledModeIsADeterministicProperSubset) {
  int sampled = 0;
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const bool v = integrity::should_verify(integrity::VerifyMode::sampled, k);
    EXPECT_EQ(v,
              integrity::should_verify(integrity::VerifyMode::sampled, k))
        << "sampling must be stable per key";
    sampled += v ? 1 : 0;
    EXPECT_TRUE(integrity::should_verify(integrity::VerifyMode::always, k));
    EXPECT_FALSE(integrity::should_verify(integrity::VerifyMode::off, k));
  }
  // Roughly 1-in-8; generous bounds keep the test seed-stable.
  EXPECT_GT(sampled, 4096 / 16);
  EXPECT_LT(sampled, 4096 / 4);
}

TEST(ChecksumPrimitives, ChaosFlipIsInvolutory) {
  const auto orig = pattern(1024, 5);
  auto buf = orig;
  fault::chaos_flip(buf, 0xfeedULL);
  EXPECT_NE(0, std::memcmp(buf.data(), orig.data(), buf.size()));
  fault::chaos_flip(buf, 0xfeedULL);
  EXPECT_EQ(0, std::memcmp(buf.data(), orig.data(), buf.size()));
}

// ---------------- cache bit-rot (stage.cache) ----------------

constexpr int kProcs = 8;

struct StagedRun {
  float value[2] = {0, 0};  ///< rank 0's global per step
  int err_kind = -1;        ///< fault::Kind caught on rank 0, -1 = none
  std::string err_what;
  integrity::Stats integ;
  stage::StageStats stats;
  fault::FaultStats faults;
};

/// Two identical steps over a (64, 16, 16) f32 variable with 4 KB chunks;
/// step 2 is the warm iteration whose cache hits the rot chaos targets.
/// `tracer`, when set, records the run.
StagedRun run_two_steps(int nprocs, const fault::ChaosConfig* cc,
                        const stage::StageConfig& scfg = {},
                        trace::Tracer* tracer = nullptr) {
  integrity::reset_stats();
  mpi::Runtime rt(small_machine(), nprocs);
  if (cc != nullptr) {
    rt.install_chaos(fault::ChaosSchedule(*cc, rt.n_nodes(), nprocs, 8));
  }
  auto ds = make_ds(rt.fs(), {64, 16, 16});
  if (tracer != nullptr) tracer->attach(rt.engine());
  StagedRun res;
  rt.run([&](mpi::Comm& c) {
    core::ObjectIO io;
    io.var = ds.var("v");
    const std::uint64_t rows = 16 / static_cast<std::uint64_t>(nprocs);
    io.start = {0, rows * static_cast<std::uint64_t>(c.rank()), 0};
    io.count = {32, rows, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 4096;
    stage::StagingArea sa(c, scfg);
    core::IterativeComputer it(c, ds, io);
    it.attach_staging(&sa);
    try {
      for (int s = 0; s < 2; ++s) {
        core::CcOutput out;
        it.step(0, out);
        if (c.rank() == 0) res.value[s] = out.global_as<float>();
      }
    } catch (const fault::Error& e) {
      if (c.rank() == 0) {
        res.err_kind = static_cast<int>(e.kind());
        res.err_what = e.what();
      }
    }
    if (c.rank() == 0) res.stats = sa.stats();
  });
  if (tracer != nullptr) tracer->detach();
  res.integ = integrity::stats();
  if (rt.chaos() != nullptr) res.faults = rt.chaos()->stats();
  return res;
}

TEST(CacheIntegrity, BitRotOnWarmHitHealsBitIdentical) {
  const StagedRun clean = run_two_steps(kProcs, nullptr);
  ASSERT_EQ(clean.err_kind, -1);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  cc.cache_rot_prob = 1.0;  // every verified hit rots once...
  cc.corrupt_attempts = 1;  // ...and the first re-fetch comes back clean
  const StagedRun rot = run_two_steps(kProcs, &cc);
  ASSERT_EQ(rot.err_kind, -1) << rot.err_what;
  // Never silently wrong: both steps bit-identical to the rot-free run.
  EXPECT_EQ(0, std::memcmp(&rot.value[0], &clean.value[0], sizeof(float)));
  EXPECT_EQ(0, std::memcmp(&rot.value[1], &clean.value[1], sizeof(float)));
  EXPECT_GT(rot.faults.corruptions_injected, 0u);
  EXPECT_GT(rot.integ.detected, 0u);
  EXPECT_EQ(rot.integ.failed, 0u);
  EXPECT_EQ(rot.integ.recovered, rot.integ.detected);
  EXPECT_GT(rot.integ.recovered_bytes, 0u);
  expect_accounted(rot.integ);
}

TEST(CacheIntegrity, RotBudgetExhaustionSurfacesDataCorruptNamingStage) {
  // A single-rank world keeps the failure local (no peers to strand in the
  // shuffle when the stage throws).
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  cc.cache_rot_prob = 1.0;
  cc.corrupt_attempts = 100;  // past any verify_recovery_budget
  const StagedRun r = run_two_steps(1, &cc);
  EXPECT_EQ(r.err_kind, static_cast<int>(fault::Kind::data_corrupt));
  EXPECT_NE(r.err_what.find("stage.cache"), std::string::npos) << r.err_what;
  EXPECT_GE(r.integ.failed, 1u);
  expect_accounted(r.integ);
}

TEST(CacheIntegrity, VerifyOffIsSilentlyWrongUnderRot) {
  // The policy baseline the overhead study measures: rot is injected either
  // way, but with verification off nothing detects it — the run "succeeds"
  // with wrong bytes. This is exactly the silent-corruption failure mode
  // the default-on integrity layer exists to rule out.
  const StagedRun clean = run_two_steps(kProcs, nullptr);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  cc.cache_rot_prob = 1.0;
  cc.corrupt_attempts = 1;
  stage::StageConfig off;
  off.verify = integrity::VerifyMode::off;
  const StagedRun r = run_two_steps(kProcs, &cc, off);
  ASSERT_EQ(r.err_kind, -1);
  EXPECT_GT(r.faults.corruptions_injected, 0u);
  EXPECT_EQ(r.integ.detected, 0u) << "off-mode must not verify";
  EXPECT_NE(0, std::memcmp(&r.value[1], &clean.value[1], sizeof(float)))
      << "without verification the rot flows straight into the answer";
  expect_accounted(r.integ);
}

// ---------------- PFS chunk reads (pfs.read) ----------------

/// PFS-read corruption chaos: the first `attempts` tries of every chunk
/// read come back corrupt with probability `prob`.
fault::ChaosConfig pfs_corruption(double prob, int attempts) {
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  cc.pfs_corrupt_prob = prob;
  cc.corrupt_attempts = attempts;
  return cc;
}

struct PfsRun {
  float value = 0;  ///< rank 0's global result
  integrity::Stats integ;
  fault::FaultStats faults;
  int makeups = 0;  ///< cold make-up chunks served ("makeup" spans)
};

/// kProcs ranks on 2 nodes (aggregators: ranks 0 and 4) sum a (64, 16, 16)
/// f32 variable in 8 KB chunks, through collective computing or, with
/// `blocking`, the traditional read-then-compute path, under `chaos` plus
/// the explicit `events`.
PfsRun run_pfs(const fault::ChaosConfig& chaos, bool blocking = false,
               const std::vector<fault::ChaosEvent>& events = {}) {
  integrity::reset_stats();
  mpi::Runtime rt(small_machine(), kProcs);
  if (chaos.any() || !events.empty()) {
    fault::ChaosSchedule sched(chaos, rt.n_nodes(), kProcs, 8);
    for (const auto& ev : events) sched.add(ev);
    rt.install_chaos(std::move(sched));
  }
  auto ds = make_ds(rt.fs(), {64, 16, 16});
  trace::Tracer tr;
  tr.attach(rt.engine());
  PfsRun res;
  rt.run([&](mpi::Comm& c) {
    core::ObjectIO io;
    io.var = ds.var("v");
    io.start = {0, 2 * static_cast<std::uint64_t>(c.rank()), 0};
    io.count = {64, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 8192;
    io.blocking = blocking;
    core::CcOutput out;
    core::collective_compute(c, ds, io, out);
    if (c.rank() == 0) res.value = out.global_as<float>();
  });
  tr.detach();
  res.integ = integrity::stats();
  if (rt.chaos() != nullptr) res.faults = rt.chaos()->stats();
  for (const trace::TraceEvent& e : tr.events()) {
    if (e.ph == trace::TraceEvent::Ph::complete && e.name == "makeup") {
      ++res.makeups;
    }
  }
  return res;
}

/// Every chunk read of `r` was corrupted once and healed by one re-read.
void expect_every_read_healed(const PfsRun& r) {
  EXPECT_GT(r.faults.corruptions_injected, 0u);
  EXPECT_GT(r.integ.verified, 0u);
  EXPECT_EQ(r.integ.detected, r.integ.verified);
  EXPECT_EQ(r.integ.recovered, r.integ.detected);
  EXPECT_EQ(r.integ.failed, 0u);
  expect_accounted(r.integ);
}

TEST(PfsReadIntegrity, AbsorbedChunksHealUnderRoleCrash) {
  const PfsRun clean = run_pfs(fault::ChaosConfig{});
  // Rank 4 (the second aggregator) loses its role before its first read:
  // rank 0 absorbs its whole file domain, and every absorbed read comes
  // back corrupt once.
  fault::ChaosEvent crash;
  crash.kind = fault::Kind::aggregator_crash;
  crash.subject = 4;
  crash.at = 1e-6;
  const PfsRun r = run_pfs(pfs_corruption(1.0, 1), false, {crash});
  EXPECT_EQ(0, std::memcmp(&r.value, &clean.value, sizeof(float)));
  EXPECT_GT(r.faults.absorbed_chunks, 0u);
  expect_every_read_healed(r);
}

TEST(PfsReadIntegrity, ColdMakeUpsHealUnderRoleCrash) {
  const PfsRun clean = run_pfs(fault::ChaosConfig{});
  // Rank 4's role dies mid-iteration and warm partials are off: the
  // survivor re-reads the missed slot from the PFS (the cold make-up).
  fault::ChaosConfig cc = pfs_corruption(1.0, 1);
  cc.warm_partials = false;
  fault::ChaosEvent crash;
  crash.kind = fault::Kind::aggregator_crash;
  crash.subject = 4;
  crash.at = 2e-3;
  const PfsRun r = run_pfs(cc, false, {crash});
  EXPECT_EQ(0, std::memcmp(&r.value, &clean.value, sizeof(float)));
  ASSERT_GT(r.makeups, 0) << "crash time missed the mid-iteration window";
  expect_every_read_healed(r);
}

TEST(PfsReadIntegrity, BaselineCollectiveReadHeals) {
  // traditional_compute reads through CollectiveIo::read_all, whose
  // aggregators read every chunk through the same ChunkReader.
  const PfsRun clean = run_pfs(fault::ChaosConfig{}, /*blocking=*/true);
  const PfsRun r = run_pfs(pfs_corruption(1.0, 1), /*blocking=*/true);
  EXPECT_EQ(0, std::memcmp(&r.value, &clean.value, sizeof(float)));
  expect_every_read_healed(r);
}

TEST(PfsReadIntegrity, StagedMissesHealBeforeCachingSoWarmPassHitsClean) {
  const StagedRun clean = run_two_steps(kProcs, nullptr);
  ASSERT_EQ(clean.err_kind, -1);
  const fault::ChaosConfig cc = pfs_corruption(1.0, 1);
  trace::Tracer tr;
  const StagedRun r = run_two_steps(kProcs, &cc, {}, &tr);
  ASSERT_EQ(r.err_kind, -1) << r.err_what;
  EXPECT_EQ(0, std::memcmp(&r.value[0], &clean.value[0], sizeof(float)));
  EXPECT_EQ(0, std::memcmp(&r.value[1], &clean.value[1], sizeof(float)));
  // The cold pass misses every chunk; the warm pass hits every one of them.
  EXPECT_GT(r.stats.misses, 0u);
  EXPECT_EQ(r.stats.hits, r.stats.misses);
  // Corrupt bytes never entered the cache: every detection was a PFS read,
  // healed before the insert, and no warm hit found anything to repair.
  const auto& counters = tr.metrics().counters();
  ASSERT_TRUE(counters.contains("integrity.detected.pfs.read"));
  EXPECT_GT(counters.at("integrity.detected.pfs.read").value(), 0u);
  EXPECT_FALSE(counters.contains("integrity.detected.stage.cache"));
  EXPECT_GT(counters.at("integrity.verified.stage.cache").value(), 0u);
  EXPECT_EQ(r.integ.failed, 0u);
  expect_accounted(r.integ);
}

// ---------------- write-behind (stage.write_behind) ----------------

TEST(WriteBehindIntegrity, TornExtentIsReStagedFromPristineShadow) {
  integrity::reset_stats();
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  cc.wb_torn_prob = 1.0;
  cc.corrupt_attempts = 1;
  mpi::Runtime rt(small_machine(), 1);
  rt.install_chaos(fault::ChaosSchedule(cc, rt.n_nodes(), 1, 8));
  auto file = rt.fs().create("wb", std::make_unique<pfs::MemStore>(1 << 16));
  const auto src = pattern(4096, 7);
  bool flushed = false;
  rt.run([&](mpi::Comm& c) {
    stage::StagingArea sa(c, {});
    sa.wb_write(file, 512, src);
    sa.wb_flush();
    flushed = true;
    std::vector<std::byte> back(src.size());
    c.runtime().fs().read(file, 512, back);
    // The drained bytes are the staged bytes, not the torn ones.
    EXPECT_EQ(0, std::memcmp(back.data(), src.data(), src.size()));
  });
  ASSERT_TRUE(flushed);
  const auto& s = integrity::stats();
  EXPECT_GE(s.detected, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(rt.chaos()->stats().corruptions_injected, 1u);
  expect_accounted(s);
}

TEST(WriteBehindIntegrity, TornBudgetExhaustionSurfacesDataCorrupt) {
  integrity::reset_stats();
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  cc.wb_torn_prob = 1.0;
  cc.corrupt_attempts = 100;
  mpi::Runtime rt(small_machine(), 1);
  rt.install_chaos(fault::ChaosSchedule(cc, rt.n_nodes(), 1, 8));
  auto file = rt.fs().create("wb2", std::make_unique<pfs::MemStore>(1 << 16));
  const auto src = pattern(4096, 9);
  int err_kind = -1;
  std::string err_what;
  rt.run([&](mpi::Comm& c) {
    stage::StagingArea sa(c, {});
    try {
      sa.wb_write(file, 0, src);
      sa.wb_flush();
    } catch (const fault::Error& e) {
      err_kind = static_cast<int>(e.kind());
      err_what = e.what();
    }
  });
  EXPECT_EQ(err_kind, static_cast<int>(fault::Kind::data_corrupt));
  EXPECT_NE(err_what.find("stage.write_behind"), std::string::npos)
      << err_what;
  const auto& s = integrity::stats();
  EXPECT_GE(s.failed, 1u);
  expect_accounted(s);
}

// ---------------- stream payloads (stream.payload) ----------------

constexpr int kStreamProcs = 4;

struct StreamRun {
  float slp = 0;  ///< rank 0's cross-step min
  std::vector<int> err_kind;
  std::vector<std::string> err_what;
  integrity::Stats integ;
  fault::FaultStats faults;
  bool ran = false;
};

/// A compact in-transit run (cf. tests/test_stream.cpp): per-rank WRF
/// producer fibers stream the steps while the per-step SLP analysis
/// consumes them through stream::Readers.
StreamRun stream_run(const fault::ChaosConfig* cc, int nprocs) {
  integrity::reset_stats();
  wrf::HurricaneConfig storm;
  storm.nt = 4;
  storm.ny = 32;
  storm.nx = 32;
  mpi::Runtime rt(small_machine(), nprocs);
  if (cc != nullptr) {
    rt.install_chaos(fault::ChaosSchedule(*cc, rt.n_nodes(), nprocs, 8));
  }
  auto sink = wrf::make_hurricane_sink(rt.fs(), "wrf_integ.nc", storm);
  stream::Engine se(stream::StreamConfig{});
  StreamRun res;
  res.err_kind.assign(static_cast<std::size_t>(nprocs), -1);
  res.err_what.assign(static_cast<std::size_t>(nprocs), "");
  bool first = true;
  std::vector<std::unique_ptr<stage::StagingArea>> areas(
      static_cast<std::size_t>(nprocs));
  rt.run([&](mpi::Comm& c) {
    const auto i = static_cast<std::size_t>(c.rank());
    areas[i] = std::make_unique<stage::StagingArea>(c, stage::StageConfig{});
    wrf::StreamWriter sw(se, c, sink, "wrf", storm, areas[i].get());
    des::Completion done = c.spawn_thread("producer", [&] { sw.run(1e-5); });
    struct Join {
      const des::Completion* d;
      ~Join() { d->wait(); }
    } join{&done};
    {
      const auto& info = sink.info(sink.var("SLP"));
      core::ObjectIO io;
      io.var = sink.var("SLP");
      const std::uint64_t band =
          info.dims[1] / static_cast<std::uint64_t>(nprocs);
      io.start = {0, band * static_cast<std::uint64_t>(c.rank()), 0};
      io.count = {1, band, info.dims[2]};
      io.op = mpi::Op::min();
      io.hints.cb_buffer_size = 4096;
      stream::Reader rd(sw.topic(0), c, io.hints.sieve_gap);
      core::IterativeComputer it(c, sink, io);
      it.attach_source(&rd);
      try {
        for (std::uint64_t t = 0; t < storm.nt; ++t) {
          core::CcOutput out;
          it.step(t, out);
          if (out.has_global) {
            res.slp = first ? out.global_as<float>()
                            : std::min(res.slp, out.global_as<float>());
            first = false;
          }
        }
        res.ran = true;
      } catch (const fault::Error& e) {
        res.err_kind[i] = static_cast<int>(e.kind());
        res.err_what[i] = e.what();
      }
    }
    done.wait();
  });
  res.integ = integrity::stats();
  if (rt.chaos() != nullptr) res.faults = rt.chaos()->stats();
  return res;
}

TEST(StreamIntegrity, CorruptedPayloadHealsFromProducerShadow) {
  const StreamRun clean = stream_run(nullptr, kStreamProcs);
  ASSERT_TRUE(clean.ran);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  cc.stream_corrupt_prob = 1.0;  // every published extent arrives corrupted
  cc.corrupt_attempts = 1;       // the producer's shadow is still pristine
  const StreamRun r = stream_run(&cc, kStreamProcs);
  ASSERT_TRUE(r.ran) << r.err_what[0];
  EXPECT_EQ(0, std::memcmp(&r.slp, &clean.slp, sizeof(float)))
      << "recovered stream result must be bit-identical";
  EXPECT_GT(r.faults.corruptions_injected, 0u);
  EXPECT_GT(r.integ.detected, 0u);
  EXPECT_EQ(r.integ.recovered, r.integ.detected);
  EXPECT_EQ(r.integ.failed, 0u);
  expect_accounted(r.integ);
}

TEST(StreamIntegrity, ProducerCopyAlsoBadSurfacesDataCorrupt) {
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  cc.stream_corrupt_prob = 1.0;
  cc.corrupt_attempts = 2;  // the re-requested copy is corrupt too
  // A single-rank world: the data_corrupt throw is consumer-local (only
  // the touching aggregator sees it), so peers of a larger world would
  // strand in the step's collectives. The unwinding reader unsubscribes,
  // retirement re-settles, and the producer join completes cleanly.
  const StreamRun r = stream_run(&cc, 1);
  int corrupt_ranks = 0;
  for (int i = 0; i < 1; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (r.err_kind[idx] == static_cast<int>(fault::Kind::data_corrupt)) {
      ++corrupt_ranks;
      EXPECT_NE(r.err_what[idx].find("stream.payload"), std::string::npos)
          << r.err_what[idx];
    }
  }
  EXPECT_GE(corrupt_ranks, 1)
      << "an unhealable stream payload must surface structurally";
  EXPECT_GE(r.integ.failed, 1u);
  expect_accounted(r.integ);
}

// ---------------- checkpoint generations (core.checkpoint) ----------------

struct CkptWorld {
  mpi::Runtime rt;
  ncio::Dataset ds;
  pfs::FileId file;
  CkptWorld()
      : rt(small_machine(), 1),
        ds(make_ds(rt.fs(), {64, 16, 16})),
        file(rt.fs().create("ckpt",
                            std::make_unique<pfs::MemStore>(1 << 20))) {}
};

core::ObjectIO solo_io(const ncio::Dataset& ds) {
  core::ObjectIO io;
  io.var = ds.var("v");
  io.start = {0, 0, 0};
  io.count = {32, 16, 16};
  io.op = mpi::Op::sum();
  io.hints.cb_buffer_size = 4096;
  return io;
}

constexpr std::uint64_t kStride = 64 << 10;

TEST(CheckpointIntegrity, CorruptNewestGenerationFallsBackToOlderIntactOne) {
  integrity::reset_stats();
  CkptWorld w;
  w.rt.run([&](mpi::Comm& c) {
    core::IterativeComputer it(c, w.ds, solo_io(w.ds));
    core::CcOutput out;
    it.step(0, out);
    const auto ck1 = it.checkpoint();  // == the seq-1 image's payload
    it.persist_checkpoint(w.file, 0, /*n_gens=*/2, kStride);  // slot 1
    it.step(0, out);
    const auto ck2 = it.checkpoint();
    it.persist_checkpoint(w.file, 0, 2, kStride);  // seq 2 -> slot 0
    // Intact chain: the load serves the newest generation.
    auto got = core::IterativeComputer::load_checkpoint(c, w.file, 0, 2,
                                                        kStride);
    ASSERT_EQ(got.bytes.size(), ck2.bytes.size());
    EXPECT_EQ(0, std::memcmp(got.bytes.data(), ck2.bytes.data(),
                             ck2.bytes.size()));
    // Rot the newest generation's payload (slot 0 starts at its length
    // prefix; +8 is the first payload byte).
    std::vector<std::byte> b(1);
    c.runtime().fs().read(w.file, 8, b);
    b[0] ^= std::byte{0xff};
    c.runtime().fs().write(w.file, 8, b);
    got = core::IterativeComputer::load_checkpoint(c, w.file, 0, 2, kStride);
    ASSERT_EQ(got.bytes.size(), ck1.bytes.size());
    EXPECT_EQ(0, std::memcmp(got.bytes.data(), ck1.bytes.data(),
                             ck1.bytes.size()))
        << "fallback must serve the older intact generation bit-identically";
    // A restarted computer continues the chain instead of recycling seq 2:
    // its probe finds the live chain and persists seq 3 into slot 1.
    core::IterativeComputer it2(c, w.ds, solo_io(w.ds));
    it2.step(0, out);
    const auto ck3 = it2.checkpoint();
    it2.persist_checkpoint(w.file, 0, 2, kStride);
    got = core::IterativeComputer::load_checkpoint(c, w.file, 0, 2, kStride);
    ASSERT_EQ(got.bytes.size(), ck3.bytes.size());
    EXPECT_EQ(0, std::memcmp(got.bytes.data(), ck3.bytes.data(),
                             ck3.bytes.size()));
  });
  const auto& s = integrity::stats();
  EXPECT_GE(s.detected, 1u);
  EXPECT_GE(s.recovered, 1u);
  EXPECT_EQ(s.failed, 0u);
  expect_accounted(s);
}

TEST(CheckpointIntegrity, NoIntactGenerationThrowsDataCorrupt) {
  integrity::reset_stats();
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  cc.ckpt_corrupt_prob = 1.0;  // every slot read rots...
  cc.corrupt_attempts = 100;   // ...on every attempt
  CkptWorld w;
  w.rt.install_chaos(fault::ChaosSchedule(cc, w.rt.n_nodes(), 1, 8));
  int err_kind = -1;
  std::string err_what;
  w.rt.run([&](mpi::Comm& c) {
    core::IterativeComputer it(c, w.ds, solo_io(w.ds));
    core::CcOutput out;
    it.step(0, out);
    it.persist_checkpoint(w.file, 0, 2, kStride);
    it.step(0, out);
    it.persist_checkpoint(w.file, 0, 2, kStride);
    try {
      (void)core::IterativeComputer::load_checkpoint(c, w.file, 0, 2,
                                                     kStride);
    } catch (const fault::Error& e) {
      err_kind = static_cast<int>(e.kind());
      err_what = e.what();
    }
  });
  EXPECT_EQ(err_kind, static_cast<int>(fault::Kind::data_corrupt));
  EXPECT_NE(err_what.find("core.checkpoint"), std::string::npos) << err_what;
  const auto& s = integrity::stats();
  EXPECT_EQ(s.failed, 1u) << "one load = one corruption episode";
  expect_accounted(s);
}

// ---------------- the scrubber (stage.scrub) ----------------

TEST(ScrubberIntegrity, FindsAndRepairsPlantedResidentRot) {
  integrity::reset_stats();
  mpi::Runtime rt(small_machine(), kProcs);
  auto ds = make_ds(rt.fs(), {64, 16, 16});
  float value[2] = {0, 0};
  std::size_t repaired = 0;
  rt.run([&](mpi::Comm& c) {
    core::ObjectIO io;
    io.var = ds.var("v");
    io.start = {0, 2 * static_cast<std::uint64_t>(c.rank()), 0};
    io.count = {32, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 4096;
    stage::StagingArea sa(c, {});
    core::IterativeComputer it(c, ds, io);
    it.attach_staging(&sa);
    core::CcOutput out;
    it.step(0, out);
    if (c.rank() == 0) value[0] = out.global_as<float>();
    // Plant bit-rot in every resident entry: flip one byte inside each
    // entry's first filled extent, behind the custody checksum's back.
    sa.cache().for_each_entry([](stage::ChunkCache::Entry& e) {
      if (e.bytes.empty() || e.extents.empty()) return;
      const std::size_t at =
          static_cast<std::size_t>(e.extents[0].offset - e.key.offset);
      e.bytes[at] ^= std::byte{0x40};
    });
    const std::size_t n = sa.scrub_once();
    if (c.rank() == 0) repaired = n;
    it.step(0, out);
    if (c.rank() == 0) value[1] = out.global_as<float>();
  });
  EXPECT_GT(repaired, 0u) << "the scrubber must find the planted rot";
  EXPECT_EQ(0, std::memcmp(&value[0], &value[1], sizeof(float)))
      << "the scrubbed warm step must serve repaired bytes";
  const auto& s = integrity::stats();
  EXPECT_GE(s.scrub_passes, 1u);
  EXPECT_GT(s.scrub_extents, 0u);
  EXPECT_GT(s.scrub_repairs, 0u);
  EXPECT_EQ(s.failed, 0u);
  expect_accounted(s);
}

TEST(ScrubberIntegrity, BackgroundFiberScrubsBetweenSteps) {
  integrity::reset_stats();
  mpi::Runtime rt(small_machine(), 1);
  auto ds = make_ds(rt.fs(), {64, 16, 16});
  float value[2] = {0, 0};
  rt.run([&](mpi::Comm& c) {
    stage::StagingArea sa(c, {});
    core::IterativeComputer it(c, ds, solo_io(ds));
    it.attach_staging(&sa);
    core::CcOutput out;
    it.step(0, out);
    value[0] = out.global_as<float>();
    sa.cache().for_each_entry([](stage::ChunkCache::Entry& e) {
      if (e.bytes.empty() || e.extents.empty()) return;
      const std::size_t at =
          static_cast<std::size_t>(e.extents[0].offset - e.key.offset);
      e.bytes[at] ^= std::byte{0x40};
    });
    // One bounded pass: fires within the warm step's virtual time, so the
    // engine still drains (an unbounded scrubber would hold it open).
    sa.start_scrubber(1e-9, /*max_passes=*/1);
    it.step(0, out);
    value[1] = out.global_as<float>();
    sa.stop_scrubber();
  });
  EXPECT_EQ(0, std::memcmp(&value[0], &value[1], sizeof(float)));
  const auto& s = integrity::stats();
  EXPECT_GE(s.scrub_passes, 1u);
  EXPECT_GT(s.scrub_repairs, 0u);
  expect_accounted(s);
}

// ---------------- CHK-SUM (mpi.shuffle envelopes) ----------------

TEST(ChkSum, CleanTrafficRaisesNoPayloadDiagnostics) {
  check::CheckSession cs(check::Mode::report);
  mpi::Runtime rt(small_machine(), 2);
  rt.run([&](mpi::Comm& c) {
    std::vector<std::byte> buf = pattern(256, 11);
    if (c.rank() == 0) {
      c.send(1, 7, buf);
    } else {
      c.recv(0, 7, buf);
    }
  });
  EXPECT_EQ(cs.checker().count(check::Rule::payload_sum), 0u);
}

TEST(ChkSum, MismatchedEnvelopeChecksumIsFlagged) {
  check::CheckSession cs(check::Mode::report);
  mpi::Runtime rt(small_machine(), 2);
  rt.run([&](mpi::Comm& c) {
    if (c.rank() != 0) return;
    const auto payload = pattern(64, 13);
    // A payload whose envelope-carried checksum no longer matches — the
    // corruption CHK-SUM exists to catch between post and delivery.
    check::Checker::current()->verify_payload(1, 0, 5, payload,
                                              /*posted_sum=*/0xdeadbeefULL);
  });
  EXPECT_EQ(cs.checker().count(check::Rule::payload_sum), 1u);
}

}  // namespace
}  // namespace colcom
