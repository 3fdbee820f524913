// ULFM-flavored fault-tolerance tests: crash-aware receives, the
// coordinator agreement, survivor groups, and end-to-end collective
// computing with a process killed inside each control-plane phase (plan
// exchange, crash watch, replan, mid-map, collective flush). The invariant:
// survivors complete, the reduction is bit-identical to the fault-free run,
// and warm-partial recovery reads fewer PFS bytes than the cold re-read.
// CI sweeps COLCOM_CHAOS_SEED over these (see scripts/ci.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/object_io.hpp"
#include "core/runtime.hpp"
#include "des/engine.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "mpi/ft.hpp"
#include "mpi/runtime.hpp"
#include "ncio/dataset.hpp"
#include "pfs/store.hpp"
#include "stage/stage.hpp"
#include "trace/trace.hpp"

namespace colcom {
namespace {

/// CI sweeps several seeds: COLCOM_CHAOS_SEED overrides the default.
std::uint64_t chaos_seed() {
  if (const char* s = std::getenv("COLCOM_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return 0xc4a05;
}

// ---------------- primitives: recv_ft / agree / shrink ----------------

TEST(FtPrimitives, RecvFtSurfacesDeadPeerInsteadOfHanging) {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  mpi::Runtime rt(cfg, 2);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  fault::ChaosSchedule sched(cc, rt.n_nodes(), 2, 4);
  sched.add_crash_point({fault::Phase::mid_map, 1, 1});
  rt.install_chaos(std::move(sched));
  bool detected = false;
  rt.run([&](mpi::Comm& c) {
    if (c.rank() == 1) {
      mpi::ft::crash_point(c, fault::Phase::mid_map);  // dies here
      FAIL() << "crash point did not fire";
    }
    std::vector<std::byte> buf(8);
    try {
      c.recv_ft(1, 7, buf);
    } catch (const fault::Error& e) {
      detected = e.kind() == fault::Kind::rank_failed && e.rank() == 1;
    }
  });
  EXPECT_TRUE(detected);
  EXPECT_EQ(rt.chaos()->stats().rank_crashes, 1u);
  EXPECT_GE(rt.chaos()->stats().crash_detections, 1u);
}

/// One agreement among 8 ranks with two dead participants: every survivor
/// must receive the identical verdict (mask OR of the survivors' bits plus
/// the same death snapshot) — unanimity under a double crash.
TEST(FtPrimitives, AgreementUnanimousUnderDoubleCrash) {
  constexpr int np = 8;
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  mpi::Runtime rt(cfg, np);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  fault::ChaosSchedule sched(cc, rt.n_nodes(), np, 8);
  sched.add_crash_point({fault::Phase::plan_exchange, 2, 1});
  sched.add_crash_point({fault::Phase::plan_exchange, 5, 1});
  rt.install_chaos(std::move(sched));
  std::vector<std::uint64_t> masks(np, 0);
  std::vector<std::uint64_t> deads(np, 0);
  std::vector<int> rounds(np, 0);
  rt.run([&](mpi::Comm& c) {
    mpi::ft::crash_point(c, fault::Phase::plan_exchange);  // kills 2 and 5
    const std::uint64_t mine = 1ull << c.rank();
    const auto v = mpi::ft::agree(c, std::span<const std::uint64_t>(&mine, 1),
                                  /*epoch=*/0);
    const auto i = static_cast<std::size_t>(c.rank());
    masks[i] = v.mask[0];
    deads[i] = v.dead[0];
    rounds[i] = v.rounds;
  });
  const std::uint64_t expect_mask =
      0xffull & ~((1ull << 2) | (1ull << 5));  // every survivor's bit
  for (int r = 0; r < np; ++r) {
    if (r == 2 || r == 5) continue;
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(masks[i], expect_mask) << "rank " << r;
    EXPECT_EQ(deads[i], (1ull << 2) | (1ull << 5)) << "rank " << r;
    EXPECT_EQ(rounds[i], 1) << "rank " << r;
  }
}

/// The round-0 coordinator dies before deciding: every survivor must
/// restart with candidate 1 (ERA-style) and still agree unanimously.
TEST(FtPrimitives, AgreementSurvivesCoordinatorDeath) {
  constexpr int np = 4;
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  mpi::Runtime rt(cfg, np);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  fault::ChaosSchedule sched(cc, rt.n_nodes(), np, 8);
  sched.add_crash_point({fault::Phase::plan_exchange, 0, 1});
  rt.install_chaos(std::move(sched));
  std::vector<std::uint64_t> masks(np, 0);
  std::vector<int> rounds(np, 0);
  rt.run([&](mpi::Comm& c) {
    mpi::ft::crash_point(c, fault::Phase::plan_exchange);  // kills rank 0
    const std::uint64_t mine = 1ull << c.rank();
    const auto v =
        mpi::ft::agree(c, std::span<const std::uint64_t>(&mine, 1), 0);
    const auto i = static_cast<std::size_t>(c.rank());
    masks[i] = v.mask[0];
    rounds[i] = v.rounds;
  });
  for (int r = 1; r < np; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(masks[i], 0xeull) << "rank " << r;  // bits 1..3
    EXPECT_EQ(rounds[i], 2) << "rank " << r;      // candidate 0 died
  }
}

TEST(FtPrimitives, ShrinkGroupRunsBarrierAndBcastOverSurvivors) {
  constexpr int np = 8;
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  mpi::Runtime rt(cfg, np);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  fault::ChaosSchedule sched(cc, rt.n_nodes(), np, 8);
  sched.add_crash_point({fault::Phase::plan_exchange, 3, 1});
  rt.install_chaos(std::move(sched));
  std::vector<std::int32_t> got(np, -1);
  std::vector<int> sizes(np, 0);
  rt.run([&](mpi::Comm& c) {
    mpi::ft::crash_point(c, fault::Phase::plan_exchange);  // kills rank 3
    mpi::ft::Group g = c.shrink(/*epoch=*/0);
    const auto i = static_cast<std::size_t>(c.rank());
    sizes[i] = g.size();
    EXPECT_FALSE(g.full());
    EXPECT_TRUE(g.member(0));
    EXPECT_FALSE(g.member(3));
    g.barrier();
    std::int32_t payload = c.rank() == 0 ? 4711 : 0;
    g.bcast(std::as_writable_bytes(std::span<std::int32_t>(&payload, 1)),
            /*root_index=*/0);
    got[i] = payload;
  });
  for (int r = 0; r < np; ++r) {
    if (r == 3) continue;
    EXPECT_EQ(sizes[static_cast<std::size_t>(r)], np - 1);
    EXPECT_EQ(got[static_cast<std::size_t>(r)], 4711);
  }
}

// ---------------- collective computing under process crashes ----------------

constexpr int kProcs = 8;

struct FtRun {
  double elapsed = 0;
  float value = 0;                     // root's global result
  std::vector<core::CcStats> stats;    // per rank (finished ranks only)
  fault::FaultStats faults;            // whole-machine fault counters
  std::uint64_t total_bytes_read = 0;  // summed over every surviving rank
  std::vector<float> bcast;            // per-rank broadcast copy
  std::vector<char> finished;          // ranks that completed the analysis
};

/// 8 ranks, a (64, 16, 16) f32 variable, 8 KB chunks — run_cc from
/// test_fault_net with control-plane crash points installed. With
/// cores_per_node=4 the aggregators are ranks 0 and 4; with 2 they are
/// 0/2/4/6 (one per node). `pfs_source` hands each rank an explicit
/// stage::PfsReader as RunOptions::source instead of the runtime's own;
/// `tracer`, when given, observes the run.
FtRun run_cc_ft(const std::vector<fault::CrashPoint>& points,
                const std::vector<fault::ChaosEvent>& events = {},
                fault::ChaosConfig chaos = {}, int cores_per_node = 4,
                bool pfs_source = false, trace::Tracer* tracer = nullptr) {
  mpi::MachineConfig machine;
  machine.cores_per_node = cores_per_node;
  machine.pfs.n_osts = 4;
  machine.pfs.stripe_size = 8192;
  machine.chaos = chaos;
  mpi::Runtime rt(machine, kProcs);
  if (!points.empty() || !events.empty() || chaos.any()) {
    fault::ChaosSchedule sched(chaos, rt.n_nodes(), kProcs, 8);
    for (const auto& ev : events) sched.add(ev);
    for (const auto& cp : points) sched.add_crash_point(cp);
    rt.install_chaos(std::move(sched));
  }
  auto ds = ncio::DatasetBuilder(rt.fs(), "ft.nc")
                .add_generated_var<float>(
                    "v", {64, 16, 16},
                    [](std::span<const std::uint64_t> c) {
                      double v = 1.0;
                      for (auto x : c) v = v * 3.7 + static_cast<double>(x);
                      return static_cast<float>(v * 1e-3);
                    })
                .finish();
  FtRun res;
  res.bcast.assign(kProcs, 0);
  res.finished.assign(kProcs, 0);
  res.stats.resize(kProcs);
  if (tracer != nullptr) tracer->attach(rt.engine());
  rt.run([&](mpi::Comm& comm) {
    core::ObjectIO io;
    io.var = ds.var("v");
    const auto r = static_cast<std::uint64_t>(comm.rank());
    io.start = {0, 2 * r, 0};
    io.count = {64, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 8192;
    core::CcOutput out;
    core::CcStats st;
    if (pfs_source) {
      // collective_compute's own steps, with the source made explicit.
      const double t0 = comm.wtime();
      const auto mine = ds.slab_request(io.var, io.start, io.count);
      const romio::Hints hints = core::detail::cc_hints(io, sizeof(float));
      const romio::TwoPhasePlan plan = romio::build_plan(comm, mine, hints);
      const double plan_s = comm.wtime() - t0;
      stage::PfsReader src(comm, comm.runtime().fs(), ds.file(),
                           hints.sieve_gap, comm.runtime().chaos());
      core::RunOptions ropt;
      ropt.source = &src;
      st = core::collective_compute_with_plan(comm, ds, io, plan, out, ropt);
      st.plan_s += plan_s;
      st.total_s += plan_s;
    } else {
      st = core::collective_compute(comm, ds, io, out);
    }
    const auto i = static_cast<std::size_t>(comm.rank());
    res.total_bytes_read += st.bytes_read;
    if (out.has_global) res.bcast[i] = out.global_as<float>();
    res.finished[i] = 1;
    res.stats[i] = st;
    if (comm.rank() == 0) res.value = out.global_as<float>();
  });
  if (tracer != nullptr) tracer->detach();
  res.elapsed = rt.elapsed();
  if (rt.chaos() != nullptr) res.faults = rt.chaos()->stats();
  return res;
}

/// Survivors finished, dead ranks did not, and every survivor's broadcast
/// copy matches the root's bit pattern.
void expect_survivors(const FtRun& r, const std::vector<int>& dead) {
  for (int p = 0; p < kProcs; ++p) {
    const auto i = static_cast<std::size_t>(p);
    const bool is_dead =
        std::find(dead.begin(), dead.end(), p) != dead.end();
    EXPECT_EQ(r.finished[i] != 0, !is_dead) << "rank " << p;
    if (!is_dead) {
      EXPECT_EQ(std::memcmp(&r.bcast[i], &r.value, sizeof(float)), 0)
          << "rank " << p;
    }
  }
}

TEST(CcFt, CrashInsidePlanExchangeFailsOverBitIdentically) {
  const FtRun clean = run_cc_ft({});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  const std::vector<fault::CrashPoint> pts{
      {fault::Phase::plan_exchange, 4, 1}};
  const FtRun a = run_cc_ft(pts, {}, cfg);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  expect_survivors(a, {4});
  EXPECT_EQ(a.faults.rank_crashes, 1u);
  EXPECT_EQ(a.faults.replans, 1u);
  EXPECT_GT(a.faults.agreement_rounds, 0u);
  const FtRun b = run_cc_ft(pts, {}, cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults.absorbed_chunks, b.faults.absorbed_chunks);
}

TEST(CcFt, CrashInsideCrashWatchFailsOverBitIdentically) {
  const FtRun clean = run_cc_ft({});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  // Rank 4 dies entering its second crash-watch agreement: iteration 0 is
  // fully served, the remaining chunks of its domain fail over.
  const std::vector<fault::CrashPoint> pts{{fault::Phase::crash_watch, 4, 2}};
  const FtRun a = run_cc_ft(pts, {}, cfg);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  expect_survivors(a, {4});
  EXPECT_EQ(a.faults.rank_crashes, 1u);
  EXPECT_EQ(a.faults.replans, 1u);
  EXPECT_GT(a.faults.absorbed_chunks, 0u);
  const FtRun b = run_cc_ft(pts, {}, cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
}

TEST(CcFt, CrashMidMapIsMadeUpBitIdentically) {
  const FtRun clean = run_cc_ft({});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  // Rank 4 dies after reading its second chunk, before shuffling it: the
  // receivers observe a dead source mid-iteration, defer, and the make-up
  // serving replays the missed slot in original combine order.
  const std::vector<fault::CrashPoint> pts{{fault::Phase::mid_map, 4, 2}};
  const FtRun a = run_cc_ft(pts, {}, cfg);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  expect_survivors(a, {4});
  EXPECT_EQ(a.faults.rank_crashes, 1u);
  EXPECT_EQ(a.faults.replans, 1u);
  EXPECT_GT(a.faults.crash_detections, 0u);
  const FtRun b = run_cc_ft(pts, {}, cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
}

TEST(CcFt, CascadingCrashDuringReplanStaysExact) {
  // One aggregator per node (ranks 0/2/4/6). Rank 4 dies at its second
  // crash watch; rank 6 then dies *inside the replan* triggered by 4's
  // death — the cascading double crash in one iteration. replan_local is
  // message-free, so the remaining survivors still derive identical
  // absorbed domains for both dead aggregators.
  const FtRun clean = run_cc_ft({}, {}, {}, /*cores_per_node=*/2);
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  const std::vector<fault::CrashPoint> pts{{fault::Phase::crash_watch, 4, 2},
                                           {fault::Phase::replan, 6, 1}};
  const FtRun a = run_cc_ft(pts, {}, cfg, 2);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  expect_survivors(a, {4, 6});
  EXPECT_EQ(a.faults.rank_crashes, 2u);
  EXPECT_GE(a.faults.replans, 2u);
  const FtRun b = run_cc_ft(pts, {}, cfg, 2);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults.absorbed_chunks, b.faults.absorbed_chunks);
}

TEST(CcFt, CrashPointsComposeWithMessageLoss) {
  const FtRun clean = run_cc_ft({});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  cfg.msg_loss_prob = 0.05;
  cfg.ack_timeout_s = 1e-4;
  const std::vector<fault::CrashPoint> pts{{fault::Phase::crash_watch, 4, 2}};
  const FtRun a = run_cc_ft(pts, {}, cfg);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  expect_survivors(a, {4});
  const FtRun b = run_cc_ft(pts, {}, cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults.msgs_dropped, b.faults.msgs_dropped);
}

// ---------------- warm-partial recovery ----------------

/// A timed role crash strikes rank 4 mid-iteration: the chunk it already
/// mapped is parked. With `warm` it ships to the absorbing survivor, which
/// forwards the records; without, the survivor re-reads the chunk from the
/// PFS (the cold make-up).
FtRun run_mid_iteration_crash(bool warm, bool pfs_source = false,
                              trace::Tracer* tracer = nullptr) {
  fault::ChaosEvent crash;
  crash.kind = fault::Kind::aggregator_crash;
  crash.subject = 4;
  crash.at = 2e-3;
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  cfg.warm_partials = warm;
  return run_cc_ft({}, {crash}, cfg, 4, pfs_source, tracer);
}

TEST(CcFt, WarmPartialIsBitIdenticalAndReadsFewerPfsBytes) {
  const FtRun clean = run_cc_ft({});
  const FtRun warm = run_mid_iteration_crash(true);
  const FtRun cold = run_mid_iteration_crash(false);

  // Both recovery paths preserve the FP combine order exactly.
  EXPECT_EQ(std::memcmp(&warm.value, &clean.value, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&cold.value, &clean.value, sizeof(float)), 0);

  ASSERT_GE(warm.faults.warm_chunks, 1u)
      << "crash time missed the mid-iteration window";
  EXPECT_GT(warm.faults.warm_records, 0u);
  EXPECT_GT(warm.faults.warm_bytes_saved, 0u);
  EXPECT_EQ(cold.faults.warm_chunks, 0u);
  // The warm run skipped the dead aggregator's re-read: strictly fewer PFS
  // bytes than the cold run, by exactly the saved amount.
  EXPECT_LT(warm.total_bytes_read, cold.total_bytes_read);
  EXPECT_EQ(warm.total_bytes_read + warm.faults.warm_bytes_saved,
            cold.total_bytes_read);

  const FtRun again = run_mid_iteration_crash(true);
  EXPECT_DOUBLE_EQ(warm.elapsed, again.elapsed);
  EXPECT_EQ(warm.faults.warm_records, again.faults.warm_records);
}

std::uint64_t total_shuffle_bytes(const FtRun& r) {
  std::uint64_t n = 0;
  for (const core::CcStats& s : r.stats) n += s.shuffle_bytes;
  return n;
}

TEST(CcFt, ShuffleBytesCounterCountsWarmAndColdMakeUps) {
  for (const bool warm : {true, false}) {
    trace::Tracer tr;
    const FtRun run = run_mid_iteration_crash(warm, false, &tr);
    ASSERT_EQ(run.faults.warm_chunks > 0, warm);
    // The traced counter sees every shipped byte, the warm make-up's
    // re-served records included.
    EXPECT_EQ(tr.metrics().counters().at("cc.shuffle_bytes").value(),
              total_shuffle_bytes(run))
        << (warm ? "warm" : "cold");
  }
}

// An explicit stage::PfsReader as RunOptions::source is the runtime's own
// unstaged path: main reads, absorbs and cold make-ups alike.
TEST(CcFt, PfsReaderSourceReproducesTheDefaultRunBitForBit) {
  auto expect_same = [](const FtRun& a, const FtRun& b, const char* what) {
    EXPECT_EQ(a.elapsed, b.elapsed) << what;
    EXPECT_EQ(std::memcmp(&a.value, &b.value, sizeof(float)), 0) << what;
    for (int r = 0; r < kProcs; ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_EQ(std::memcmp(&a.stats[i], &b.stats[i], sizeof(core::CcStats)),
                0)
          << what << " rank " << r;
    }
    EXPECT_EQ(a.faults.warm_chunks, b.faults.warm_chunks) << what;
    EXPECT_EQ(a.faults.absorbed_chunks, b.faults.absorbed_chunks) << what;
  };
  expect_same(run_cc_ft({}), run_cc_ft({}, {}, {}, 4, true), "fault-free");
  for (const bool warm : {true, false}) {
    const FtRun def = run_mid_iteration_crash(warm);
    const FtRun src = run_mid_iteration_crash(warm, true);
    ASSERT_GT(def.faults.absorbed_chunks, 0u);
    expect_same(def, src, warm ? "warm" : "cold");
  }
}

// ---------------- fault.* metric cardinality ----------------

TEST(FaultMetrics, PerRankCountersAggregateIntoHistogramAboveCap) {
  des::Engine eng;
  trace::Tracer tr;
  tr.attach(eng);
  {
    // Small world: full per-rank detail counters.
    fault::Injector inj{fault::ChaosSchedule{}};
    inj.set_world_size(8);
    inj.note_rank_crash(5);
    inj.note_net_retry(3);
  }
  EXPECT_EQ(tr.metrics().counters().at("fault.rank.crashes.rank5").value(),
            1u);
  EXPECT_EQ(tr.metrics().counters().at("fault.net.retries.rank3").value(),
            1u);
  {
    // 1024 ranks: the same observations land in bounded rank-bucket
    // histograms instead of 1024 distinct counter names.
    fault::Injector inj{fault::ChaosSchedule{}};
    inj.set_world_size(1024);
    inj.note_rank_crash(700);
    inj.note_crash_detected(700);
    inj.note_net_retry(900);
  }
  EXPECT_EQ(tr.metrics().counters().count("fault.rank.crashes.rank700"), 0u);
  EXPECT_EQ(tr.metrics().counters().count("fault.net.retries.rank900"), 0u);
  EXPECT_EQ(tr.metrics().histogram("fault.rank.crashes_by_rank", {}).total(),
            1u);
  EXPECT_EQ(
      tr.metrics().histogram("fault.rank.crash_detections_by_rank", {})
          .total(),
      1u);
  EXPECT_EQ(tr.metrics().histogram("fault.net.retries_by_rank", {}).total(),
            1u);
  // The aggregate counters still carry the totals.
  EXPECT_EQ(tr.metrics().counters().at("fault.rank.crashes").value(), 2u);
  tr.detach();
}

// ---------------- collective flush under a crash ----------------

TEST(StageFt, CrashInsideCollectiveFlushDegradesOnSurvivors) {
  constexpr int np = 4;
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 2;
  mpi::Runtime rt(cfg, np);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  fault::ChaosSchedule sched(cc, rt.n_nodes(), np, 8);
  sched.add_crash_point({fault::Phase::flush_collective, 2, 1});
  rt.install_chaos(std::move(sched));
  auto file = rt.fs().create("wb", std::make_unique<pfs::MemStore>(1 << 16));
  std::vector<std::vector<std::byte>> blocks(np);
  std::vector<std::uint64_t> degraded(np, 0);
  std::vector<std::uint64_t> dirty_after(np, 1);
  rt.run([&](mpi::Comm& c) {
    stage::StageConfig scfg;
    scfg.wb_collective_flush = true;
    stage::StagingArea sa(c, scfg);
    const auto i = static_cast<std::size_t>(c.rank());
    blocks[i].assign(1024, std::byte{static_cast<unsigned char>(c.rank() + 1)});
    sa.wb_write(file, static_cast<std::uint64_t>(1024 * c.rank()), blocks[i]);
    sa.wb_flush_collective(file);  // rank 2 dies at entry
    degraded[i] = sa.stats().wb_degraded_flushes;
    dirty_after[i] = sa.wb_dirty_bytes();
  });
  std::vector<std::byte> got(1024);
  for (int r = 0; r < np; ++r) {
    const auto i = static_cast<std::size_t>(r);
    rt.fs().store(file).read(static_cast<std::uint64_t>(1024 * r), got);
    if (r == 2) {
      // The dead rank's staged extent never reached the PFS — lost with
      // the process, not silently half-written.
      EXPECT_NE(got, blocks[i]);
      continue;
    }
    // Every survivor drained its extents despite the dead flush partner,
    // and left no stale staged bytes behind.
    EXPECT_EQ(got, blocks[i]) << "rank " << r;
    EXPECT_EQ(degraded[i], 1u) << "rank " << r;
    EXPECT_EQ(dirty_after[i], 0u) << "rank " << r;
  }
  EXPECT_EQ(rt.chaos()->stats().rank_crashes, 1u);
}

}  // namespace
}  // namespace colcom
