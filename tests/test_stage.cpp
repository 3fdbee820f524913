// colcom::stage tests: chunk-cache determinism and LRU/pin semantics,
// warm-vs-cold staging through the runtime, prefetch overlap (and its
// veto), prefetch raced against an aggregator crash (replan-aware
// invalidation, bit-identical results), mid-analysis checkpoint/restart,
// write-behind (async drain, fault fallback, collective flush through
// CollectiveIo::write_all), and the CHK-IO staged-overlap rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "check/check.hpp"
#include "core/iterative.hpp"
#include "core/runtime.hpp"
#include "fault/chaos.hpp"
#include "integrity/integrity.hpp"
#include "mpi/runtime.hpp"
#include "ncio/dataset.hpp"
#include "pfs/store.hpp"
#include "stage/stage.hpp"

namespace colcom {
namespace {

mpi::MachineConfig small_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  cfg.pfs.n_osts = 4;
  cfg.pfs.stripe_size = 8192;
  return cfg;
}

ncio::Dataset make_ds(pfs::Pfs& fs, std::vector<std::uint64_t> dims) {
  return ncio::DatasetBuilder(fs, "stage.nc")
      .add_generated_var<float>(
          "v", std::move(dims),
          [](std::span<const std::uint64_t> c) {
            double v = 1.0;
            for (auto x : c) v = v * 3.7 + static_cast<double>(x);
            return static_cast<float>(v * 1e-3);
          })
      .finish();
}

std::vector<std::byte> filled(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 131 + static_cast<int>(i)) & 0xff);
  }
  return v;
}

// ---------------- ChunkCache (no runtime needed) ----------------

TEST(StageCache, EvictsLeastRecentlyUsedFirst) {
  stage::ChunkCache cache(3 * 64);
  stage::StageStats st;
  const std::vector<pfs::ByteExtent> ext{{0, 64}};
  for (int i = 0; i < 3; ++i) {
    const stage::ChunkKey k{0, static_cast<std::uint64_t>(64 * i), 64};
    ASSERT_NE(cache.insert(k, filled(64, i), ext, st), nullptr);
  }
  // Touch entry 0 so entry 1 becomes the LRU victim.
  ASSERT_NE(cache.find(stage::ChunkKey{0, 0, 64}), nullptr);
  ASSERT_NE(cache.insert(stage::ChunkKey{0, 192, 64}, filled(64, 3), ext, st),
            nullptr);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_NE(cache.find(stage::ChunkKey{0, 0, 64}), nullptr);
  EXPECT_EQ(cache.find(stage::ChunkKey{0, 64, 64}), nullptr);
  EXPECT_EQ(cache.occupancy(), 3u * 64u);
}

TEST(StageCache, PinnedEntriesSurvivePressureAndDieOnUnpin) {
  stage::ChunkCache cache(2 * 64);
  stage::StageStats st;
  const std::vector<pfs::ByteExtent> ext{{0, 64}};
  auto* pinned = cache.insert(stage::ChunkKey{0, 0, 64}, filled(64, 0), ext, st);
  ASSERT_NE(pinned, nullptr);
  cache.pin(*pinned);
  // Two more inserts overflow the budget; only the unpinned entry may go.
  ASSERT_NE(cache.insert(stage::ChunkKey{0, 64, 64}, filled(64, 1), ext, st),
            nullptr);
  ASSERT_NE(cache.insert(stage::ChunkKey{0, 128, 64}, filled(64, 2), ext, st),
            nullptr);
  EXPECT_NE(cache.find(stage::ChunkKey{0, 0, 64}), nullptr);
  EXPECT_EQ(cache.find(stage::ChunkKey{0, 64, 64}), nullptr);
  // Invalidation dooms the pinned entry: no future hit, freed at unpin.
  EXPECT_EQ(cache.invalidate(0, 0, 32, st), 1u);
  EXPECT_EQ(cache.find(stage::ChunkKey{0, 0, 64}), nullptr);
  cache.unpin(*pinned, st);
  EXPECT_LE(cache.occupancy(), cache.capacity());
  EXPECT_EQ(st.invalidations, 1u);
}

TEST(StageCache, InsertUnderPinnedKeyIsRejected) {
  stage::ChunkCache cache(1 << 10);
  stage::StageStats st;
  const std::vector<pfs::ByteExtent> ext{{0, 64}};
  auto* e = cache.insert(stage::ChunkKey{0, 0, 64}, filled(64, 0), ext, st);
  ASSERT_NE(e, nullptr);
  cache.pin(*e);
  EXPECT_EQ(cache.insert(stage::ChunkKey{0, 0, 64}, filled(64, 1), ext, st),
            nullptr);
  cache.unpin(*e, st);
  EXPECT_NE(cache.insert(stage::ChunkKey{0, 0, 64}, filled(64, 1), ext, st),
            nullptr);
}

// ---------------- staged runtime: warm/cold, prefetch, eviction ----------

constexpr int kProcs = 8;

struct StagedRun {
  double elapsed = 0;
  double step_s[2] = {0, 0};  // rank 0's per-step virtual duration
  float value[2] = {0, 0};
  stage::StageStats stats;  // rank 0 (an aggregator)
  fault::FaultStats faults;
};

/// Two identical steps (t = 0 twice) over a (64, 16, 16) f32 variable with
/// 4 KB chunks (4 aggregation iterations per aggregator); ranks 0 and 4
/// aggregate. Step 2 is the warm iteration.
StagedRun run_two_steps(const stage::StageConfig& scfg, bool with_staging,
                        const std::vector<fault::ChaosEvent>& events = {}) {
  mpi::Runtime rt(small_machine(), kProcs);
  if (!events.empty()) {
    fault::ChaosSchedule sched(fault::ChaosConfig{}, rt.n_nodes(), kProcs, 8);
    for (const auto& ev : events) sched.add(ev);
    rt.install_chaos(std::move(sched));
  }
  auto ds = make_ds(rt.fs(), {64, 16, 16});
  StagedRun res;
  rt.run([&](mpi::Comm& c) {
    core::ObjectIO io;
    io.var = ds.var("v");
    io.start = {0, static_cast<std::uint64_t>(2 * c.rank()), 0};
    io.count = {32, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 4096;
    stage::StagingArea sa(c, scfg);
    core::IterativeComputer it(c, ds, io);
    if (with_staging) it.attach_staging(&sa);
    for (int s = 0; s < 2; ++s) {
      const double t0 = c.wtime();
      core::CcOutput out;
      it.step(0, out);
      if (c.rank() == 0) {
        res.step_s[s] = c.wtime() - t0;
        res.value[s] = out.global_as<float>();
      }
    }
    if (c.rank() == 0) res.stats = sa.stats();
  });
  res.elapsed = rt.elapsed();
  if (rt.chaos() != nullptr) res.faults = rt.chaos()->stats();
  return res;
}

TEST(Staging, WarmStepSkipsPfsAndHalvesTheTime) {
  const StagedRun r = run_two_steps(stage::StageConfig{}, true);
  EXPECT_GT(r.stats.hits, 0u);
  EXPECT_GT(r.stats.hit_bytes, 0u);
  // The warm step re-reads nothing: every byte of step 2 is a cache hit.
  EXPECT_EQ(r.stats.misses, r.stats.hits);
  EXPECT_EQ(std::memcmp(&r.value[0], &r.value[1], sizeof(float)), 0);
  EXPECT_LT(2 * r.step_s[1], r.step_s[0])
      << "warm " << r.step_s[1] << "s vs cold " << r.step_s[0] << "s";
}

TEST(Staging, StagedReductionIsBitIdenticalToUnstaged) {
  const StagedRun staged = run_two_steps(stage::StageConfig{}, true);
  const StagedRun plain = run_two_steps(stage::StageConfig{}, false);
  EXPECT_EQ(std::memcmp(&staged.value[0], &plain.value[0], sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&staged.value[1], &plain.value[1], sizeof(float)), 0);
}

TEST(Staging, RunsAreDeterministic) {
  const StagedRun a = run_two_steps(stage::StageConfig{}, true);
  const StagedRun b = run_two_steps(stage::StageConfig{}, true);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.stats.hits, b.stats.hits);
  EXPECT_EQ(a.stats.misses, b.stats.misses);
  EXPECT_EQ(a.stats.evictions, b.stats.evictions);
  EXPECT_EQ(a.stats.read_bytes, b.stats.read_bytes);
  EXPECT_EQ(a.stats.prefetch_issued, b.stats.prefetch_issued);
}

TEST(Staging, ZeroCapacityStaysColdAndCorrect) {
  stage::StageConfig cold;
  cold.capacity_bytes = 0;
  const StagedRun r = run_two_steps(cold, true);
  const StagedRun plain = run_two_steps(cold, false);
  EXPECT_EQ(r.stats.hits, 0u);
  EXPECT_EQ(std::memcmp(&r.value[1], &plain.value[1], sizeof(float)), 0);
}

TEST(Staging, EvictionUnderPressureStaysCorrect) {
  stage::StageConfig tight;
  tight.capacity_bytes = 4096;  // one chunk: steps thrash the cache
  const StagedRun r = run_two_steps(tight, true);
  const StagedRun plain = run_two_steps(stage::StageConfig{}, false);
  EXPECT_GT(r.stats.evictions, 0u);
  EXPECT_EQ(std::memcmp(&r.value[0], &plain.value[0], sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&r.value[1], &plain.value[1], sizeof(float)), 0);
}

TEST(Staging, PrefetchOverlapBeatsPrefetchOff) {
  stage::StageConfig on, off;
  on.capacity_bytes = off.capacity_bytes = 0;  // keep both steps cold
  off.prefetch = false;
  const StagedRun r_on = run_two_steps(on, true);
  const StagedRun r_off = run_two_steps(off, true);
  EXPECT_GT(r_on.stats.prefetch_issued, 0u);
  EXPECT_EQ(r_off.stats.prefetch_issued, 0u);
  EXPECT_LT(r_on.elapsed, r_off.elapsed);
  EXPECT_EQ(std::memcmp(&r_on.value[1], &r_off.value[1], sizeof(float)), 0);
}

TEST(Staging, DeepPrefetchWithHeadroomIsNoSlowerAndIdentical) {
  stage::StageConfig deep, shallow;
  deep.prefetch_depth = 4;
  const StagedRun r_deep = run_two_steps(deep, true);
  const StagedRun r_d1 = run_two_steps(shallow, true);
  EXPECT_GE(r_deep.stats.prefetch_issued, r_d1.stats.prefetch_issued);
  EXPECT_EQ(r_deep.stats.readahead_denied, 0u);  // ample budget: no vetoes
  EXPECT_LE(r_deep.elapsed, r_d1.elapsed);
  EXPECT_EQ(std::memcmp(&r_deep.value[0], &r_d1.value[0], sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&r_deep.value[1], &r_d1.value[1], sizeof(float)), 0);
}

TEST(Staging, DeepPrefetchUnderEvictionPressureIsThrottledAndCorrect) {
  // One-chunk budget with depth 4: the readahead budget (shared with the
  // cache budget) must deny the deep speculative fetches instead of letting
  // them evict chunks before their turn. The throttled run does exactly the
  // PFS work of the depth-1 run — no speculation-induced re-reads — and the
  // values never change.
  stage::StageConfig tight;
  tight.capacity_bytes = 4096;
  stage::StageConfig tight_deep = tight;
  tight_deep.prefetch_depth = 4;
  const StagedRun r_deep = run_two_steps(tight_deep, true);
  const StagedRun r_d1 = run_two_steps(tight, true);
  const StagedRun plain = run_two_steps(stage::StageConfig{}, false);
  EXPECT_GT(r_deep.stats.readahead_denied, 0u);
  EXPECT_EQ(r_deep.stats.misses, r_d1.stats.misses);
  EXPECT_EQ(r_deep.stats.read_bytes, r_d1.stats.read_bytes);
  EXPECT_LE(r_deep.stats.evictions, r_d1.stats.evictions);
  EXPECT_EQ(std::memcmp(&r_deep.value[0], &plain.value[0], sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&r_deep.value[1], &plain.value[1], sizeof(float)), 0);
}

// ---------------- prefetch raced against an aggregator crash -------------

TEST(Staging, CrashReplanInvalidatesStagedChunksBitIdentically) {
  // Pilot run with the crash parked far beyond the horizon: the crash watch
  // is armed (identical timing) but nothing fires — it provides the clean
  // values and the virtual time at which step 2 begins.
  fault::ChaosEvent crash;
  crash.kind = fault::Kind::aggregator_crash;
  crash.subject = 4;
  crash.at = 1e9;
  mpi::Runtime pilot_rt(small_machine(), kProcs);
  {
    fault::ChaosSchedule sched(fault::ChaosConfig{}, pilot_rt.n_nodes(),
                               kProcs, 8);
    sched.add(crash);
    pilot_rt.install_chaos(std::move(sched));
  }
  auto ds = make_ds(pilot_rt.fs(), {64, 16, 16});
  float clean[2] = {0, 0};
  double t_step2 = 0;
  pilot_rt.run([&](mpi::Comm& c) {
    core::ObjectIO io;
    io.var = ds.var("v");
    io.start = {0, static_cast<std::uint64_t>(2 * c.rank()), 0};
    io.count = {32, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 4096;
    stage::StagingArea sa(c, {});
    core::IterativeComputer it(c, ds, io);
    it.attach_staging(&sa);
    for (int s = 0; s < 2; ++s) {
      if (s == 1 && c.rank() == 0) t_step2 = c.wtime();
      core::CcOutput out;
      it.step(0, out);
      if (c.rank() == 0) clean[s] = out.global_as<float>();
    }
  });
  ASSERT_GT(t_step2, 0);

  // Crash the second aggregator just as the warm step begins: its staged
  // chunks of the dead file domain must be invalidated on replan, and the
  // survivor's absorbing re-read must reproduce the clean value exactly.
  crash.at = t_step2 + 1e-9;
  const StagedRun a = run_two_steps(stage::StageConfig{}, true, {crash});
  EXPECT_EQ(std::memcmp(&a.value[0], &clean[0], sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&a.value[1], &clean[1], sizeof(float)), 0);
  EXPECT_GE(a.faults.replans, 1u);
  EXPECT_GT(a.faults.stage_invalidations, 0u);
  const StagedRun b = run_two_steps(stage::StageConfig{}, true, {crash});
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults.stage_invalidations, b.faults.stage_invalidations);
}

// ---------------- mid-analysis checkpoint / restart ----------------------

TEST(Staging, MidStepCutResumesBitIdentically) {
  mpi::Runtime rt(small_machine(), kProcs);
  auto ds = make_ds(rt.fs(), {64, 16, 16});
  float full = 0, resumed = 0, restarted = 0;
  rt.run([&](mpi::Comm& c) {
    core::ObjectIO io;
    io.var = ds.var("v");
    io.start = {0, static_cast<std::uint64_t>(2 * c.rank()), 0};
    io.count = {32, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 4096;

    core::IterativeComputer whole(c, ds, io);
    core::CcOutput out_full;
    whole.step(0, out_full);
    if (c.rank() == 0) full = out_full.global_as<float>();

    // Cut after the first aggregation iteration, then finish in memory.
    core::IterativeComputer cut(c, ds, io);
    core::CcOutput mid, done;
    cut.step_prefix(0, 1, mid);
    EXPECT_FALSE(mid.has_global);
    cut.step(0, done);
    if (c.rank() == 0) resumed = done.global_as<float>();
    EXPECT_EQ(cut.steps_run(), 1);

    // Cut, checkpoint, restart from the image, finish.
    core::IterativeComputer parked(c, ds, io);
    core::CcOutput unused, fin;
    parked.step_prefix(0, 1, unused);
    const auto ck = parked.checkpoint();
    core::IterativeComputer revived(c, ds, io, ck);
    revived.step(0, fin);
    if (c.rank() == 0) restarted = fin.global_as<float>();
    EXPECT_EQ(revived.steps_run(), 1);
  });
  EXPECT_EQ(std::memcmp(&resumed, &full, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&restarted, &full, sizeof(float)), 0);
}

TEST(Staging, PersistedMidStepCheckpointRoundTrips) {
  mpi::Runtime rt(small_machine(), kProcs);
  auto ds = make_ds(rt.fs(), {64, 16, 16});
  auto ckfile = rt.fs().create("ckpt", std::make_unique<pfs::MemStore>(1 << 20));
  float full = 0, restarted = 0;
  std::uint64_t wb_writes = 0;
  rt.run([&](mpi::Comm& c) {
    core::ObjectIO io;
    io.var = ds.var("v");
    io.start = {0, static_cast<std::uint64_t>(2 * c.rank()), 0};
    io.count = {32, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 4096;
    const std::uint64_t my_off =
        static_cast<std::uint64_t>(c.rank()) * (64ull << 10);

    core::IterativeComputer whole(c, ds, io);
    core::CcOutput out_full;
    whole.step(0, out_full);
    if (c.rank() == 0) full = out_full.global_as<float>();

    stage::StagingArea sa(c, {});
    core::IterativeComputer parked(c, ds, io);
    parked.attach_staging(&sa);
    core::CcOutput unused, fin;
    parked.step_prefix(0, 1, unused);
    // Through the write-behind, fsync'd at the barrier that follows.
    EXPECT_GT(parked.persist_checkpoint(ckfile, my_off), 0u);
    sa.wb_flush();
    c.barrier();
    if (c.rank() == 0) wb_writes = sa.stats().wb_writes;

    const auto ck = core::IterativeComputer::load_checkpoint(c, ckfile, my_off);
    core::IterativeComputer revived(c, ds, io, ck);
    revived.step(0, fin);
    if (c.rank() == 0) restarted = fin.global_as<float>();
  });
  EXPECT_EQ(std::memcmp(&restarted, &full, sizeof(float)), 0);
  EXPECT_GE(wb_writes, 1u);
}

// ---------------- write-behind ----------------

TEST(StageWriteBehind, AsyncDrainPersistsBytes) {
  mpi::Runtime rt(small_machine(), 2);
  auto file = rt.fs().create("wb", std::make_unique<pfs::MemStore>(1 << 16));
  bool ok = false;
  std::uint64_t stalls = 0;
  rt.run([&](mpi::Comm& c) {
    if (c.rank() != 0) return;
    stage::StageConfig cfg;
    cfg.write_behind_budget_bytes = 4096;  // force stalls on a 16 KB burst
    stage::StagingArea sa(c, cfg);
    std::vector<std::vector<std::byte>> blocks;
    for (int i = 0; i < 8; ++i) {
      blocks.push_back(filled(2048, i));
      sa.wb_write(file, static_cast<std::uint64_t>(2048 * i), blocks.back());
    }
    sa.wb_flush();
    stalls = sa.stats().wb_stalls;
    ok = true;
    std::vector<std::byte> got(2048);
    for (int i = 0; i < 8; ++i) {
      rt.fs().read(file, static_cast<std::uint64_t>(2048 * i), got);
      ok = ok && got == blocks[static_cast<std::size_t>(i)];
    }
    EXPECT_EQ(sa.wb_dirty_bytes(), 0u);
  });
  EXPECT_TRUE(ok);
  EXPECT_GT(stalls, 0u);
}

TEST(StageWriteBehind, DegradesToFallbackWritesUnderStorageFaults) {
  auto cfg = small_machine();
  cfg.pfs.transient_fail_prob = 0.4;
  cfg.pfs.retry_delay_s = 1e-4;
  cfg.pfs.max_retries = 0;  // first transient fault throws fault::Error
  mpi::Runtime rt(cfg, 2);
  auto file = rt.fs().create("wb", std::make_unique<pfs::MemStore>(1 << 16));
  bool ok = false;
  std::uint64_t fallbacks = 0;
  rt.run([&](mpi::Comm& c) {
    if (c.rank() != 0) return;
    stage::StagingArea sa(c, {});
    std::vector<std::vector<std::byte>> blocks;
    for (int i = 0; i < 16; ++i) {
      blocks.push_back(filled(1024, i));
      sa.wb_write(file, static_cast<std::uint64_t>(1024 * i), blocks.back());
    }
    sa.wb_flush();
    fallbacks = sa.stats().wb_fallback_extents;
    // Verify against the store directly: charged reads would themselves
    // roll transient faults.
    ok = true;
    std::vector<std::byte> got(1024);
    for (int i = 0; i < 16; ++i) {
      rt.fs().store(file).read(static_cast<std::uint64_t>(1024 * i), got);
      ok = ok && got == blocks[static_cast<std::size_t>(i)];
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_GT(fallbacks, 0u);
}

TEST(StageWriteBehind, CollectiveFlushRecoversThroughWriteAllFallback) {
  auto cfg = small_machine();
  cfg.pfs.transient_fail_prob = 0.4;
  cfg.pfs.retry_delay_s = 1e-4;
  cfg.pfs.max_retries = 0;
  mpi::Runtime rt(cfg, 4);
  auto file = rt.fs().create("wb", std::make_unique<pfs::MemStore>(1 << 16));
  bool ok = true;
  std::uint64_t fallbacks = 0;
  rt.run([&](mpi::Comm& c) {
    stage::StageConfig scfg;
    scfg.wb_collective_flush = true;
    stage::StagingArea sa(c, scfg);
    // Each rank stages a striped run of dirty extents of the shared file.
    std::vector<std::vector<std::byte>> blocks;
    for (int i = 0; i < 4; ++i) {
      const int blk = 4 * c.rank() + i;
      blocks.push_back(filled(1024, blk));
      sa.wb_write(file, static_cast<std::uint64_t>(1024 * blk), blocks.back());
    }
    const auto st = sa.wb_flush_collective(file);
    std::int64_t mine = static_cast<std::int64_t>(st.io_fallbacks), sum = 0;
    c.allreduce(&mine, &sum, 1, mpi::Prim::i64, mpi::Op::sum());
    if (c.rank() == 0) fallbacks = static_cast<std::uint64_t>(sum);
    std::vector<std::byte> got(1024);
    for (int i = 0; i < 4; ++i) {
      const int blk = 4 * c.rank() + i;
      rt.fs().store(file).read(static_cast<std::uint64_t>(1024 * blk), got);
      if (got != blocks[static_cast<std::size_t>(i)]) ok = false;
    }
    EXPECT_EQ(sa.wb_dirty_bytes(), 0u);
  });
  EXPECT_TRUE(ok);
  EXPECT_GT(fallbacks, 0u);
}

TEST(StageWriteBehind, CollectiveFlushCoalescesOverlappingExtentsNewestWins) {
  mpi::Runtime rt(small_machine(), 2);
  auto file = rt.fs().create("wb", std::make_unique<pfs::MemStore>(1 << 16));
  bool ok = false;
  rt.run([&](mpi::Comm& c) {
    stage::StageConfig scfg;
    scfg.wb_collective_flush = true;
    stage::StagingArea sa(c, scfg);
    const auto a = filled(1024, 1);
    const auto b = filled(512, 2);
    const auto d = filled(256, 3);
    if (c.rank() == 0) {
      // Three overlapping stages of the same region between flushes: b
      // splits a, d replaces a's head exactly. The flush must pack
      // disjoint sorted extents whose bytes reflect the last write.
      sa.wb_write(file, 0, a);
      sa.wb_write(file, 256, b);
      sa.wb_write(file, 0, d);
    }
    sa.wb_flush_collective(file);
    if (c.rank() == 0) {
      std::vector<std::byte> expect = a;
      std::memcpy(expect.data() + 256, b.data(), b.size());
      std::memcpy(expect.data(), d.data(), d.size());
      std::vector<std::byte> got(1024);
      rt.fs().store(file).read(0, got);
      ok = got == expect;
      EXPECT_EQ(sa.wb_dirty_bytes(), 0u);
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Staging, OverlappingWriteDuringInFlightFetchIsNotCached) {
  mpi::Runtime rt(small_machine(), 2);
  auto file = rt.fs().create("f", std::make_unique<pfs::MemStore>(1 << 16));
  rt.run([&](mpi::Comm& c) {
    if (c.rank() != 0) return;
    stage::StageConfig scfg;
    scfg.wb_collective_flush = true;  // staged bytes reach the store at flush
    stage::StagingArea sa(c, scfg);
    std::vector<romio::FlatRequest> dreqs;
    dreqs.push_back(romio::FlatRequest({{0, 1024}}));
    stage::StagedReader sr(sa, rt.fs(), file, 0, nullptr);
    sr.begin(pfs::ByteExtent{0, 1024}, dreqs, false);
    // The overlapping staged write lands while the fetch is in flight; the
    // fetch copied pre-write bytes at issue time.
    const auto fresh = filled(1024, 9);
    sa.wb_write(file, 0, fresh);
    const auto pre = sr.take();
    EXPECT_FALSE(pre.hit);
    sr.release();
    sa.wb_flush();  // persists the staged bytes, closes the epoch
    // The pre-write bytes must not have entered the cache: a new fetch is
    // a miss and sees the staged bytes.
    sr.begin(pfs::ByteExtent{0, 1024}, dreqs, false);
    const auto post = sr.take();
    EXPECT_FALSE(post.hit);
    EXPECT_EQ(std::memcmp(post.data.data(), fresh.data(), fresh.size()), 0);
    sr.release();
    EXPECT_EQ(sa.stats().stale_fetches, 1u);
  });
}

// ---------------- PfsReader: the unstaged ChunkSource ----------------

constexpr std::uint64_t kChunk = 4096;

/// 64 KB whose 4 KB chunks all differ (byte j of chunk k is 31 j + k).
std::vector<std::byte> pattern_bytes() {
  std::vector<std::byte> v(1 << 16);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::byte>((i * 31 + i / kChunk) & 0xff);
  }
  return v;
}

/// A file of pattern_bytes(); whole_file_request() has one rank read it all.
pfs::FileId make_pattern_file(mpi::Runtime& rt) {
  auto file = rt.fs().create("pfs", std::make_unique<pfs::MemStore>(1 << 16));
  rt.fs().store(file).write(0, pattern_bytes());
  return file;
}

std::vector<romio::FlatRequest> whole_file_request() {
  std::vector<romio::FlatRequest> dreqs;
  dreqs.push_back(romio::FlatRequest({{0, 1 << 16}}));
  return dreqs;
}

pfs::ByteExtent chunk_at(std::uint64_t k) {
  return pfs::ByteExtent{k * kChunk, kChunk};
}

bool holds_chunk(const stage::SourceChunk& sc, std::uint64_t k) {
  const auto want = pattern_bytes();
  return sc.data.size() == kChunk &&
         std::memcmp(sc.data.data(), want.data() + k * kChunk, kChunk) == 0;
}

TEST(PfsReader, TakesInFifoOrderAndRecyclesTwoBuffers) {
  mpi::Runtime rt(small_machine(), 1);
  const auto file = make_pattern_file(rt);
  const auto dreqs = whole_file_request();
  rt.run([&](mpi::Comm& c) {
    stage::PfsReader rd(c, rt.fs(), file, 0, nullptr);
    // Two begun chunks come back in begin order.
    EXPECT_TRUE(rd.begin(chunk_at(0), dreqs, false));
    EXPECT_TRUE(rd.begin(chunk_at(1), dreqs, true));
    const auto c0 = rd.take();
    EXPECT_TRUE(holds_chunk(c0, 0));
    EXPECT_EQ(c0.bytes_read, kChunk);
    EXPECT_GT(c0.service_s, 0.0);
    rd.release();
    const auto c1 = rd.take();
    EXPECT_TRUE(holds_chunk(c1, 1));
    // begin() while a chunk is held, as the runtime's k+1 prefetch does.
    EXPECT_TRUE(rd.begin(chunk_at(2), dreqs, true));
    EXPECT_TRUE(holds_chunk(c1, 1));  // the held bytes stay put
    rd.release();
    const auto c2 = rd.take();
    EXPECT_TRUE(holds_chunk(c2, 2));
    // Chunk k+2 lands in chunk k's buffer: nothing is allocated per chunk.
    EXPECT_EQ(c2.data.data(), c0.data.data());
    EXPECT_NE(c1.data.data(), c0.data.data());
    rd.release();
  });
}

TEST(PfsReader, ReportsFallbacksPerTake) {
  // Every extent's first attempt that rolls a transient fault exhausts the
  // retry budget and degrades to an independent re-read. The oracle is a
  // fresh romio::ChunkReader per chunk over the same request sequence.
  auto per_chunk = [](bool pfs_reader) {
    auto cfg = small_machine();
    cfg.pfs.transient_fail_prob = 0.3;
    cfg.pfs.retry_delay_s = 1e-4;
    cfg.pfs.max_retries = 0;
    mpi::Runtime rt(cfg, 1);
    const auto file = make_pattern_file(rt);
    const auto dreqs = whole_file_request();
    std::vector<std::uint64_t> fallbacks;
    bool bytes_ok = true;
    rt.run([&](mpi::Comm& c) {
      stage::PfsReader rd(c, rt.fs(), file, 0, nullptr);
      for (std::uint64_t k = 0; k < 16; ++k) {
        if (pfs_reader) {
          rd.begin(chunk_at(k), dreqs, false);
          const auto sc = rd.take();
          bytes_ok = bytes_ok && holds_chunk(sc, k);
          fallbacks.push_back(sc.fallbacks);
          rd.release();
        } else {
          romio::ChunkReader cr;
          std::vector<std::byte> buf;
          cr.issue(rt.fs(), file, dreqs, chunk_at(k), buf, 0, c.wtime());
          cr.wait();
          fallbacks.push_back(cr.fallbacks());
        }
      }
    });
    EXPECT_TRUE(bytes_ok);
    return fallbacks;
  };
  const auto got = per_chunk(true);
  EXPECT_EQ(got, per_chunk(false));
  // At least two chunks degrade, so a running total would differ from the
  // per-take counts.
  EXPECT_GE(std::count_if(got.begin(), got.end(),
                          [](std::uint64_t n) { return n > 0; }),
            2);
}

TEST(PfsReader, AuxReaderIsIndependentOfItsParent) {
  mpi::Runtime rt(small_machine(), 1);
  const auto file = make_pattern_file(rt);
  const auto dreqs = whole_file_request();
  rt.run([&](mpi::Comm& c) {
    stage::PfsReader rd(c, rt.fs(), file, 0, nullptr);
    rd.begin(chunk_at(0), dreqs, false);
    rd.begin(chunk_at(1), dreqs, true);
    const auto held = rd.take();
    // The parent holds one chunk and has another in flight — its limit —
    // yet the aux reader begins, takes and releases on its own buffers.
    const auto aux = rd.aux();
    ASSERT_TRUE(aux->begin(chunk_at(7), dreqs, false));
    const auto side = aux->take();
    EXPECT_TRUE(holds_chunk(side, 7));
    EXPECT_NE(side.data.data(), held.data.data());
    aux->release();
    EXPECT_TRUE(holds_chunk(held, 0));
    rd.release();
    EXPECT_TRUE(holds_chunk(rd.take(), 1));
    rd.release();
  });
}

// ---------------- CHK-IO: staged write-behind vs demand reads ------------

TEST(CheckIo, UnflushedStagedWriteOverlappingReadIsFlagged) {
  check::CheckSession cs(check::Mode::report);
  mpi::Runtime rt(small_machine(), 2);
  auto file = rt.fs().create("f", std::make_unique<pfs::MemStore>(1 << 16));
  rt.run([&](mpi::Comm& c) {
    if (c.rank() != 0) return;
    stage::StagingArea sa(c, {});
    const auto data = filled(1024, 7);
    sa.wb_write(file, 0, data);
    // Demand-read the same region with no flush epoch in between: the read
    // races the asynchronous drain.
    stage::StagedReader sr(sa, rt.fs(), file, 0, nullptr);
    std::vector<romio::FlatRequest> dreqs;
    dreqs.push_back(romio::FlatRequest({{0, 1024}}));
    sr.begin(pfs::ByteExtent{0, 1024}, dreqs, false);
    (void)sr.take();
    sr.release();
    sa.wb_flush();
  });
  EXPECT_GE(cs.checker().count(check::Rule::io_overlap), 1u);
}

TEST(CheckIo, FlushEpochSilencesTheOverlapRule) {
  check::CheckSession cs(check::Mode::report);
  mpi::Runtime rt(small_machine(), 2);
  auto file = rt.fs().create("f", std::make_unique<pfs::MemStore>(1 << 16));
  rt.run([&](mpi::Comm& c) {
    if (c.rank() != 0) return;
    stage::StagingArea sa(c, {});
    const auto data = filled(1024, 7);
    sa.wb_write(file, 0, data);
    sa.wb_flush();  // epoch: the drain is complete before the read
    stage::StagedReader sr(sa, rt.fs(), file, 0, nullptr);
    std::vector<romio::FlatRequest> dreqs;
    dreqs.push_back(romio::FlatRequest({{0, 1024}}));
    sr.begin(pfs::ByteExtent{0, 1024}, dreqs, false);
    (void)sr.take();
    sr.release();
  });
  EXPECT_EQ(cs.checker().count(check::Rule::io_overlap), 0u);
}

TEST(CheckIo, CollectiveFlushOfOneFileKeepsOtherFilesDirty) {
  check::CheckSession cs(check::Mode::report);
  mpi::Runtime rt(small_machine(), 2);
  auto fa = rt.fs().create("a", std::make_unique<pfs::MemStore>(1 << 16));
  auto fb = rt.fs().create("b", std::make_unique<pfs::MemStore>(1 << 16));
  rt.run([&](mpi::Comm& c) {
    stage::StageConfig scfg;
    scfg.wb_collective_flush = true;
    stage::StagingArea sa(c, scfg);
    if (c.rank() == 0) {
      sa.wb_write(fa, 0, filled(512, 1));
      sa.wb_write(fb, 0, filled(512, 2));
    }
    // The collective flush closes the epoch for fa only; fb's staged
    // extent is still unflushed, so the demand read below must be flagged.
    sa.wb_flush_collective(fa);
    if (c.rank() == 0) {
      stage::StagedReader sr(sa, rt.fs(), fb, 0, nullptr);
      std::vector<romio::FlatRequest> dreqs;
      dreqs.push_back(romio::FlatRequest({{0, 512}}));
      sr.begin(pfs::ByteExtent{0, 512}, dreqs, false);
      (void)sr.take();
      sr.release();
    }
    sa.wb_flush();
  });
  EXPECT_GE(cs.checker().count(check::Rule::io_overlap), 1u);
}

TEST(CheckIo, CheckpointLoadRacingWriteBehindIsFlagged) {
  check::CheckSession cs(check::Mode::report);
  mpi::Runtime rt(small_machine(), 2);
  auto file = rt.fs().create("ckpt", std::make_unique<pfs::MemStore>(1 << 16));
  rt.run([&](mpi::Comm& c) {
    if (c.rank() != 0) return;
    stage::StagingArea sa(c, {});
    // A validly framed checkpoint image staged through the write-behind:
    // [len][payload][magic][seq][sum], so the load's trailer verification
    // passes and the race is CHK-IO's to flag.
    std::vector<std::byte> image(8 + 32 + 24);
    const std::uint64_t len = 32;
    std::memcpy(image.data(), &len, 8);
    const std::uint64_t sum = integrity::checksum(
        std::span<const std::byte>(image.data() + 8, 32));
    const std::uint64_t seq = 1;
    std::memcpy(image.data() + 40, &core::IterativeComputer::kCheckpointMagic,
                8);
    std::memcpy(image.data() + 48, &seq, 8);
    std::memcpy(image.data() + 56, &sum, 8);
    sa.wb_write(file, 0, image);
    // ...and loaded back with no flush epoch in between races the drain.
    // The load may observe pre-write bytes and (correctly) refuse them;
    // either way CHK-IO must flag the overlap.
    try {
      (void)core::IterativeComputer::load_checkpoint(c, file, 0);
    } catch (const fault::Error&) {
    }
    sa.wb_flush();
  });
  EXPECT_GE(cs.checker().count(check::Rule::io_overlap), 1u);
}

}  // namespace
}  // namespace colcom
