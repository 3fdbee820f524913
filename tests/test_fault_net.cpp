// Chaos tests: seeded fault schedules, the MPI retransmit protocol,
// aggregator failover, degraded links, stragglers, PFS retry exhaustion and
// checkpoint/restart. The invariant throughout: under every injected fault
// class the analysis result is bit-identical to the fault-free run (or, with
// no aggregator left to heal with, the run ends in a structured
// fault::Error), and the same seed reproduces the same virtual-time trace.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <numeric>

#include "core/iterative.hpp"
#include "core/object_io.hpp"
#include "core/runtime.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "des/engine.hpp"
#include "mpi/runtime.hpp"
#include "mpi/world.hpp"
#include "ncio/dataset.hpp"
#include "pfs/pfs.hpp"
#include "pfs/store.hpp"

namespace colcom {
namespace {

/// CI sweeps several seeds: COLCOM_CHAOS_SEED overrides the default.
std::uint64_t chaos_seed() {
  if (const char* s = std::getenv("COLCOM_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return 0xc4a05;
}

// ---------------- ChaosSchedule ----------------

TEST(ChaosSchedule, SameSeedSameSchedule) {
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  cfg.degraded_links = 3;
  cfg.stragglers = 2;
  cfg.aggregator_crashes = 1;
  const fault::ChaosSchedule a(cfg, 16, 64, 48);
  const fault::ChaosSchedule b(cfg, 16, 64, 48);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_EQ(a.events().size(), 6u);
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].subject, b.events()[i].subject);
    EXPECT_DOUBLE_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_DOUBLE_EQ(a.events()[i].duration, b.events()[i].duration);
    EXPECT_DOUBLE_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }
}

TEST(ChaosSchedule, DifferentSeedDifferentSchedule) {
  fault::ChaosConfig cfg;
  cfg.degraded_links = 4;
  cfg.stragglers = 4;
  fault::ChaosConfig other = cfg;
  other.seed = cfg.seed + 1;
  const fault::ChaosSchedule a(cfg, 16, 64, 48);
  const fault::ChaosSchedule b(other, 16, 64, 48);
  bool differs = false;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    differs |= a.events()[i].subject != b.events()[i].subject ||
               a.events()[i].at != b.events()[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosSchedule, DropRollIsDeterministicAndSalted) {
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  cfg.msg_loss_prob = 0.5;
  const fault::ChaosSchedule s(cfg, 2, 2, 2);
  int drops = 0;
  for (std::uint64_t seq = 0; seq < 512; ++seq) {
    const bool d = s.drop_transfer(0, 1, seq, mpi::kSaltEager, 0);
    EXPECT_EQ(d, s.drop_transfer(0, 1, seq, mpi::kSaltEager, 0));
    drops += d ? 1 : 0;
  }
  // Roughly half drop at p=0.5.
  EXPECT_GT(drops, 512 / 4);
  EXPECT_LT(drops, 512 * 3 / 4);
  // Salt and attempt index decorrelate the rolls.
  bool salt_differs = false, attempt_differs = false;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    salt_differs |= s.drop_transfer(0, 1, seq, mpi::kSaltEager, 0) !=
                    s.drop_transfer(0, 1, seq, mpi::kSaltRts, 0);
    attempt_differs |= s.drop_transfer(0, 1, seq, mpi::kSaltEager, 0) !=
                       s.drop_transfer(0, 1, seq, mpi::kSaltEager, 1);
  }
  EXPECT_TRUE(salt_differs);
  EXPECT_TRUE(attempt_differs);
}

TEST(ChaosSchedule, CorruptRollIsDeterministicLayerSaltedAndBounded) {
  using fault::CorruptLayer;
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  cfg.pfs_corrupt_prob = 0.5;
  cfg.cache_rot_prob = 0.5;
  cfg.corrupt_attempts = 2;
  const fault::ChaosSchedule s(cfg, 2, 2, 2);
  const fault::ChaosSchedule same(cfg, 2, 2, 2);
  int hits = 0;
  bool layer_differs = false;
  for (std::uint64_t i = 0; i < 512; ++i) {
    const std::uint64_t off = i * 4096;
    const bool c = s.corrupt_extent(CorruptLayer::pfs_read, 3, off, 0);
    EXPECT_EQ(c, same.corrupt_extent(CorruptLayer::pfs_read, 3, off, 0));
    // One roll decides the extent: every attempt inside corrupt_attempts
    // agrees, and past it the bytes come back clean.
    EXPECT_EQ(c, s.corrupt_extent(CorruptLayer::pfs_read, 3, off, 1));
    EXPECT_FALSE(s.corrupt_extent(CorruptLayer::pfs_read, 3, off, 2));
    // A layer left at probability 0 never corrupts.
    EXPECT_FALSE(s.corrupt_extent(CorruptLayer::stream, 3, off, 0));
    layer_differs |= c != s.corrupt_extent(CorruptLayer::cache, 3, off, 0);
    hits += c ? 1 : 0;
  }
  // Roughly half corrupt at p=0.5, and the layer salt decorrelates layers.
  EXPECT_GT(hits, 512 / 4);
  EXPECT_LT(hits, 512 * 3 / 4);
  EXPECT_TRUE(layer_differs);
}

// ---------------- MPI retransmit protocol ----------------

struct LossRun {
  double elapsed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retries = 0;
  bool data_ok = false;
};

LossRun run_lossy_pingpong(double loss_prob) {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 1;  // 2 ranks on 2 nodes: every message internode
  cfg.chaos.seed = chaos_seed();
  cfg.chaos.msg_loss_prob = loss_prob;
  cfg.chaos.ack_timeout_s = 1e-4;
  mpi::Runtime rt(cfg, 2);
  LossRun res;
  res.data_ok = true;
  rt.run([&](mpi::Comm& comm) {
    std::vector<std::int32_t> eager(64);      // 256 B: eager protocol
    std::vector<std::int32_t> rndv(64 << 10); // 256 KB: rendezvous
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i) {
        std::iota(eager.begin(), eager.end(), i);
        comm.send_t<std::int32_t>(1, 7, eager);
      }
      std::iota(rndv.begin(), rndv.end(), 5);
      comm.send_t<std::int32_t>(1, 8, rndv);
    } else {
      std::vector<std::int32_t> got(eager.size());
      for (int i = 0; i < 20; ++i) {
        comm.recv_t<std::int32_t>(0, 7, got);
        for (std::size_t j = 0; j < got.size(); ++j) {
          res.data_ok &= got[j] == i + static_cast<std::int32_t>(j);
        }
      }
      std::vector<std::int32_t> big(rndv.size());
      comm.recv_t<std::int32_t>(0, 8, big);
      for (std::size_t j = 0; j < big.size(); ++j) {
        res.data_ok &= big[j] == 5 + static_cast<std::int32_t>(j);
      }
    }
  });
  res.elapsed = rt.elapsed();
  if (rt.chaos() != nullptr) {
    res.dropped = rt.chaos()->stats().msgs_dropped;
    res.retries = rt.chaos()->stats().net_retries;
  }
  return res;
}

TEST(NetRetry, LossyMessagesArriveIntactAndDeterministically) {
  const LossRun a = run_lossy_pingpong(0.3);
  EXPECT_TRUE(a.data_ok);
  EXPECT_GT(a.dropped, 0u);
  EXPECT_GT(a.retries, 0u);
  const LossRun b = run_lossy_pingpong(0.3);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);  // backoff timing bit-identical
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.retries, b.retries);
}

TEST(NetRetry, LossCostsTimeButNotData) {
  const LossRun clean = run_lossy_pingpong(0.0);
  const LossRun lossy = run_lossy_pingpong(0.3);
  EXPECT_TRUE(clean.data_ok);
  EXPECT_EQ(clean.dropped, 0u);
  EXPECT_GT(lossy.elapsed, clean.elapsed);
}

TEST(NetRetry, ExhaustionSurfacesStructuredErrorOnBothEndpoints) {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 1;
  cfg.chaos.seed = chaos_seed();
  cfg.chaos.msg_loss_prob = 1.0;  // every attempt lost
  cfg.chaos.max_retries = 3;
  cfg.chaos.ack_timeout_s = 1e-4;
  mpi::Runtime rt(cfg, 2);
  bool send_threw = false, recv_threw = false;
  rt.run([&](mpi::Comm& comm) {
    std::vector<std::int32_t> v(16, 3);
    if (comm.rank() == 0) {
      try {
        comm.send_t<std::int32_t>(1, 9, v);
      } catch (const fault::Error& e) {
        send_threw = e.layer() == fault::Layer::mpi &&
                     e.kind() == fault::Kind::retry_exhausted;
      }
    } else {
      try {
        comm.recv_t<std::int32_t>(0, 9, v);
      } catch (const fault::Error& e) {
        recv_threw = e.layer() == fault::Layer::mpi &&
                     e.kind() == fault::Kind::retry_exhausted;
      }
    }
  });
  EXPECT_TRUE(send_threw);
  EXPECT_TRUE(recv_threw);
  EXPECT_EQ(rt.chaos()->stats().net_failures, 1u);
  EXPECT_EQ(rt.chaos()->stats().net_retries, 3u);
}

// ---------------- collective computing under chaos ----------------

struct CcRun {
  double elapsed = 0;
  float value = 0;
  core::CcStats stats;       // rank 0's stats
  fault::FaultStats faults;  // whole-machine fault counters
  int unrecoverable = 0;     // ranks that ended in fault::Error{unrecoverable}
};

constexpr int kProcs = 8;

/// 8 ranks on 2 nodes (aggregators: ranks 0 and 4), a (64, 16, 16) f32
/// variable, 8 KB chunks so each file domain spans several iterations.
CcRun run_cc(const fault::ChaosConfig& chaos,
             const std::vector<fault::ChaosEvent>& extra_events = {},
             double pfs_fail_prob = 0, int pfs_max_retries = 4) {
  mpi::MachineConfig machine;
  machine.cores_per_node = 4;
  machine.pfs.n_osts = 4;
  machine.pfs.stripe_size = 8192;
  machine.pfs.transient_fail_prob = pfs_fail_prob;
  machine.pfs.retry_delay_s = 1e-3;
  machine.pfs.max_retries = pfs_max_retries;
  machine.chaos = chaos;
  mpi::Runtime rt(machine, kProcs);
  if (!extra_events.empty()) {
    // n_links only seeds random link events; crash events are explicit.
    fault::ChaosSchedule sched(chaos, rt.n_nodes(), kProcs, 8);
    for (const auto& ev : extra_events) sched.add(ev);
    rt.install_chaos(std::move(sched));
  }
  auto ds = ncio::DatasetBuilder(rt.fs(), "chaos.nc")
                .add_generated_var<float>(
                    "v", {64, 16, 16},
                    [](std::span<const std::uint64_t> c) {
                      double v = 1.0;
                      for (auto x : c) v = v * 3.7 + static_cast<double>(x);
                      return static_cast<float>(v * 1e-3);
                    })
                .finish();
  CcRun res;
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
    try {
      st = core::collective_compute(comm, ds, io, out);
    } catch (const fault::Error& e) {
      // Caught on the rank, so every rank's fiber ends and the world winds
      // down cleanly; any other fault stays a test failure.
      if (e.layer() != fault::Layer::core ||
          e.kind() != fault::Kind::unrecoverable) {
        throw;
      }
      ++res.unrecoverable;
      return;
    }
    if (comm.rank() == 0) {
      res.value = out.global_as<float>();
      res.stats = st;
    }
  });
  res.elapsed = rt.elapsed();
  if (rt.chaos() != nullptr) res.faults = rt.chaos()->stats();
  return res;
}

TEST(CcChaos, AggregatorCrashFailsOverBitIdentically) {
  const CcRun clean = run_cc(fault::ChaosConfig{});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  // Crash rank 4 (the second aggregator) just after planning starts: it is
  // still selected (alive at t=0) and detected at the first crash-watch
  // agreement, so survivors absorb its whole file domain.
  fault::ChaosEvent crash;
  crash.kind = fault::Kind::aggregator_crash;
  crash.subject = 4;
  crash.at = 1e-6;
  const CcRun a = run_cc(cfg, {crash});
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  EXPECT_GT(a.stats.replans, 0u);
  EXPECT_GT(a.faults.absorbed_chunks, 0u);
  EXPECT_EQ(a.faults.replans, 1u);
  EXPECT_GT(a.faults.agreement_rounds, 0u);
  const CcRun b = run_cc(cfg, {crash});
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults.absorbed_chunks, b.faults.absorbed_chunks);
}

TEST(CcChaos, EveryAggregatorRoleCrashedFailsUnrecoverable) {
  // Both aggregators (ranks 0 and 4) lose their role at the same instant,
  // with no crash point on the schedule: nobody is left to serve I/O, so
  // the first crash-watch agreement ends the run in the same structured
  // error on every rank.
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  std::vector<fault::ChaosEvent> crashes;
  for (const int rank : {0, 4}) {
    fault::ChaosEvent crash;
    crash.kind = fault::Kind::aggregator_crash;
    crash.subject = rank;
    crash.at = 1e-6;
    crashes.push_back(crash);
  }
  EXPECT_EQ(run_cc(cfg, crashes).unrecoverable, kProcs);
}

TEST(CcChaos, PreRunCrashExcludesAggregatorFromSelection) {
  const CcRun clean = run_cc(fault::ChaosConfig{});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  fault::ChaosEvent crash;
  crash.kind = fault::Kind::aggregator_crash;
  crash.subject = 4;
  crash.at = 0;  // dead before planning: never selected, no replan needed
  const CcRun r = run_cc(cfg, {crash});
  EXPECT_EQ(std::memcmp(&r.value, &clean.value, sizeof(float)), 0);
  EXPECT_EQ(r.faults.replans, 0u);
  EXPECT_EQ(r.faults.absorbed_chunks, 0u);
}

/// 128 ranks, one per node: one aggregator per node means the crash watch
/// must carry 128 bits (three 63-bit words). Regression for the multi-word
/// bitset — the seed's single-i64 mask capped aggregator counts at 63.
CcRun run_cc_wide(const std::vector<fault::ChaosEvent>& events) {
  constexpr int np = 128;
  mpi::MachineConfig machine;
  machine.cores_per_node = 1;
  machine.pfs.n_osts = 4;
  machine.pfs.stripe_size = 4096;
  mpi::Runtime rt(machine, np);
  if (!events.empty()) {
    fault::ChaosConfig chaos;
    chaos.seed = chaos_seed();
    fault::ChaosSchedule sched(chaos, rt.n_nodes(), np, 8);
    for (const auto& ev : events) sched.add(ev);
    rt.install_chaos(std::move(sched));
  }
  auto ds = ncio::DatasetBuilder(rt.fs(), "wide.nc")
                .add_generated_var<float>(
                    "v", {16, 128, 4},
                    [](std::span<const std::uint64_t> c) {
                      double v = 1.0;
                      for (auto x : c) v = v * 3.7 + static_cast<double>(x);
                      return static_cast<float>(v * 1e-3);
                    })
                .finish();
  CcRun res;
  rt.run([&](mpi::Comm& comm) {
    core::ObjectIO io;
    io.var = ds.var("v");
    const auto r = static_cast<std::uint64_t>(comm.rank());
    io.start = {0, r, 0};
    io.count = {16, 1, 4};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 4096;
    core::CcOutput out;
    const auto st = core::collective_compute(comm, ds, io, out);
    if (comm.rank() == 0) {
      res.value = out.global_as<float>();
      res.stats = st;
    }
  });
  res.elapsed = rt.elapsed();
  if (rt.chaos() != nullptr) res.faults = rt.chaos()->stats();
  return res;
}

TEST(CcChaos, CrashAmong128AggregatorsUsesMultiWordBitset) {
  const CcRun clean = run_cc_wide({});
  // Rank 100 is aggregator index 100: its report lands in word 1, bit 37 —
  // unreachable for a single-i64 mask.
  fault::ChaosEvent crash;
  crash.kind = fault::Kind::aggregator_crash;
  crash.subject = 100;
  crash.at = 1e-6;
  const CcRun a = run_cc_wide({crash});
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  EXPECT_EQ(a.faults.replans, 1u);
  EXPECT_GT(a.faults.absorbed_chunks, 0u);
  const CcRun b = run_cc_wide({crash});
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults.absorbed_chunks, b.faults.absorbed_chunks);
}

TEST(CcChaos, MessageLossKeepsAnalysisExact) {
  const CcRun clean = run_cc(fault::ChaosConfig{});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  cfg.msg_loss_prob = 0.1;
  cfg.ack_timeout_s = 1e-4;
  const CcRun a = run_cc(cfg);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  EXPECT_GT(a.faults.msgs_dropped, 0u);
  EXPECT_GE(a.elapsed, clean.elapsed);
  const CcRun b = run_cc(cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
}

TEST(CcChaos, DegradedLinksSlowButExact) {
  const CcRun clean = run_cc(fault::ChaosConfig{});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  cfg.degraded_links = 4;
  cfg.degrade_factor = 0.1;
  cfg.degrade_duration_s = 10.0;
  cfg.horizon_s = 1e-5;  // strike while the short run is in flight
  const CcRun a = run_cc(cfg);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  EXPECT_GE(a.elapsed, clean.elapsed);
  const CcRun b = run_cc(cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
}

TEST(CcChaos, StragglerSlowsButStaysExact) {
  const CcRun clean = run_cc(fault::ChaosConfig{});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  cfg.stragglers = 3;
  cfg.straggler_factor = 8.0;
  cfg.straggler_duration_s = 10.0;
  cfg.horizon_s = 1e-5;
  const CcRun a = run_cc(cfg);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  EXPECT_GT(a.faults.straggler_hits, 0u);
  EXPECT_GT(a.elapsed, clean.elapsed);
  const CcRun b = run_cc(cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
}

TEST(CcChaos, PfsExhaustionDegradesToIndependentReads) {
  const CcRun clean = run_cc(fault::ChaosConfig{});
  // High transient rate + tight retry budget: some collective extents
  // exhaust their retries and must be recovered independently.
  // Note: transient PFS faults roll from pfs.fault_seed, independent of the
  // chaos seed, so this scenario is stable under COLCOM_CHAOS_SEED sweeps.
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  cfg.msg_loss_prob = 1e-9;  // enables the injector without real loss
  const CcRun r =
      run_cc(cfg, {}, /*pfs_fail_prob=*/0.35, /*pfs_max_retries=*/1);
  EXPECT_EQ(std::memcmp(&r.value, &clean.value, sizeof(float)), 0);
  EXPECT_GT(r.faults.io_fallbacks, 0u);
  EXPECT_GT(r.elapsed, clean.elapsed);
}

TEST(CcChaos, CombinedFaultsStayExactAndReproducible) {
  const CcRun clean = run_cc(fault::ChaosConfig{});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  cfg.msg_loss_prob = 0.02;
  cfg.ack_timeout_s = 1e-4;
  cfg.stragglers = 2;
  cfg.straggler_factor = 4.0;
  cfg.straggler_duration_s = 10.0;
  cfg.degraded_links = 2;
  cfg.degrade_duration_s = 10.0;
  cfg.horizon_s = 1e-5;
  fault::ChaosEvent crash;
  crash.kind = fault::Kind::aggregator_crash;
  crash.subject = 4;
  crash.at = 1e-6;
  const CcRun a = run_cc(cfg, {crash});
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  EXPECT_GT(a.faults.absorbed_chunks, 0u);
  const CcRun b = run_cc(cfg, {crash});
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults.msgs_dropped, b.faults.msgs_dropped);
  EXPECT_EQ(a.faults.straggler_hits, b.faults.straggler_hits);
}

// ---------------- PFS structured errors ----------------

TEST(PfsChaos, RetryExhaustionThrowsFaultError) {
  des::Engine eng;
  pfs::PfsConfig cfg;
  cfg.n_osts = 2;
  cfg.stripe_size = 4096;
  cfg.transient_fail_prob = 1.0;  // every request fails until exhaustion
  cfg.max_retries = 2;
  pfs::Pfs fs(eng, cfg);
  auto id = fs.create("f", std::make_unique<pfs::MemStore>(1 << 16));
  bool threw = false;
  eng.spawn("t", 0, [&] {
    std::vector<std::byte> r(4096);
    try {
      fs.read(id, 0, r);
    } catch (const fault::Error& e) {
      threw = e.layer() == fault::Layer::pfs &&
              e.kind() == fault::Kind::retry_exhausted;
    }
  });
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_GT(fs.stats().retry_exhausted, 0u);
}

// ---------------- checkpoint / restart ----------------

TEST(IterativeCheckpoint, RestartContinuesBitIdentically) {
  auto make_machine = [] {
    mpi::MachineConfig machine;
    machine.cores_per_node = 4;
    machine.pfs.n_osts = 4;
    machine.pfs.stripe_size = 8192;
    return machine;
  };
  mpi::Runtime rt(make_machine(), kProcs);
  auto ds = ncio::DatasetBuilder(rt.fs(), "iter.nc")
                .add_generated_var<float>(
                    "v", {32, 16, 16},
                    [](std::span<const std::uint64_t> c) {
                      double v = 0;
                      for (auto x : c) v = v * 1.9 + static_cast<double>(x);
                      return static_cast<float>(v * 1e-2);
                    })
                .finish();
  std::vector<float> direct(kProcs), restored(kProcs);
  std::vector<int> steps_after(kProcs, 0);
  rt.run([&](mpi::Comm& comm) {
    core::ObjectIO base;
    base.var = ds.var("v");
    const auto r = static_cast<std::uint64_t>(comm.rank());
    base.start = {0, 2 * r, 0};
    base.count = {4, 2, 16};
    base.op = mpi::Op::sum();
    base.hints.cb_buffer_size = 8192;

    core::IterativeComputer itc(comm, ds, base);
    core::CcOutput out;
    itc.step(0, out);
    itc.step(4, out);
    const auto ck = itc.checkpoint();

    // Restart from the image: no plan collectives, same cached plan.
    core::IterativeComputer resumed(comm, ds, base, ck);
    EXPECT_EQ(resumed.steps_run(), 2);
    EXPECT_DOUBLE_EQ(resumed.plan_cost_s(), itc.plan_cost_s());
    core::CcOutput out_a, out_b;
    itc.step(8, out_a);
    resumed.step(8, out_b);
    const std::size_t i = static_cast<std::size_t>(comm.rank());
    direct[i] = out_a.global_as<float>();
    restored[i] = out_b.global_as<float>();
    steps_after[i] = resumed.steps_run();
    EXPECT_EQ(std::memcmp(resumed.running().value(), itc.running().value(),
                          sizeof(float)),
              0);
  });
  for (int r = 0; r < kProcs; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(std::memcmp(&direct[i], &restored[i], sizeof(float)), 0);
    EXPECT_EQ(steps_after[i], 3);
  }
}

}  // namespace
}  // namespace colcom
