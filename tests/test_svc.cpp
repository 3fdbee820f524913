// colcom::svc tests: the multi-tenant analysis service. Scheduling policies
// (FIFO / priority / weighted-fair) behind one interface, admission control
// with overlap-affinity, cross-query staging reuse, per-job bit-identity
// against solo collective_compute runs, and fault isolation: a tenant-local
// chaos abort kills exactly one job, an aggregator role crash mid-service
// degrades no job's result, and losing every aggregator — or an
// aggregator's reads — fails jobs with a reason instead of taking the
// service down or hanging it. CI sweeps COLCOM_CHAOS_SEED and
// COLCOM_CHECK=1 over this suite (see scripts/ci.sh).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/object_io.hpp"
#include "core/runtime.hpp"
#include "fault/chaos.hpp"
#include "mpi/runtime.hpp"
#include "ncio/dataset.hpp"
#include "pfs/store.hpp"
#include "stage/stage.hpp"
#include "svc/svc.hpp"

namespace colcom {
namespace {

constexpr int kProcs = 8;

/// CI sweeps several seeds: COLCOM_CHAOS_SEED overrides the default.
std::uint64_t chaos_seed() {
  if (const char* s = std::getenv("COLCOM_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return 0xc4a05;
}

mpi::MachineConfig small_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  cfg.pfs.n_osts = 4;
  cfg.pfs.stripe_size = 8192;
  return cfg;
}

ncio::Dataset make_ds(pfs::Pfs& fs) {
  return ncio::DatasetBuilder(fs, "svc.nc")
      .add_generated_var<float>(
          "u", {64, 16, 16},
          [](std::span<const std::uint64_t> c) {
            double v = 2.0;
            for (auto x : c) v = v * 2.9 + static_cast<double>(x);
            return static_cast<float>(v * 1e-3);
          })
      .add_generated_var<float>(
          "v", {64, 16, 16},
          [](std::span<const std::uint64_t> c) {
            double v = 1.0;
            for (auto x : c) v = v * 3.7 + static_cast<double>(x);
            return static_cast<float>(v * 1e-3);
          })
      .finish();
}

/// A query shape: variable + time window. Every rank takes two rows of the
/// second dimension, like the staging tests, so 8 ranks cover the 16 rows.
struct Slab {
  const char* var = "v";
  std::uint64_t t0 = 0;
  std::uint64_t rows = 32;
};

core::ObjectIO make_io(const ncio::Dataset& ds, const Slab& q, int rank) {
  core::ObjectIO io;
  io.var = ds.var(q.var);
  io.start = {q.t0, static_cast<std::uint64_t>(2 * rank), 0};
  io.count = {q.rows, 2, 16};
  io.op = mpi::Op::sum();
  io.hints.cb_buffer_size = 4096;
  return io;
}

/// Ground truth: the same query run solo through collective_compute in a
/// fresh world (no service, no staging).
float solo_value(const Slab& q) {
  mpi::Runtime rt(small_machine(), kProcs);
  auto ds = make_ds(rt.fs());
  float v = 0;
  rt.run([&](mpi::Comm& c) {
    core::CcOutput out;
    core::collective_compute(c, ds, make_io(ds, q, c.rank()), out);
    if (c.rank() == 0) v = out.global_as<float>();
  });
  return v;
}

struct JobDef {
  Slab slab;
  int tenant = 0;
  int priority = 0;
  int weight = 1;
};

/// Faults beneath the service: PFS requests that fail transiently (past
/// every retry at 1.0).
struct Storage {
  double fail_prob = 0;
};

struct SvcRun {
  std::vector<svc::JobState> st;
  std::vector<svc::FailReason> reason;
  std::vector<float> value;   ///< valid where st == done
  std::vector<double> lat;    ///< submit-to-finish latency (rank 0)
  std::vector<int> slices;
  std::vector<core::CcStats> cc;  ///< rank 0's accumulated per-job stats
  svc::ServiceStats stats;
  stage::StageStats sstats;  ///< rank 0's shared staging area
  fault::FaultStats faults;
  double elapsed = 0;
};

SvcRun run_service(const svc::ServiceConfig& cfg,
                   const std::vector<JobDef>& jobs,
                   const fault::ChaosConfig* chaos = nullptr,
                   const std::vector<fault::ChaosEvent>& events = {},
                   const Storage& storage = {}) {
  mpi::MachineConfig machine = small_machine();
  machine.pfs.transient_fail_prob = storage.fail_prob;
  mpi::Runtime rt(machine, kProcs);
  if (chaos != nullptr || !events.empty()) {
    fault::ChaosConfig cc = chaos != nullptr ? *chaos : fault::ChaosConfig{};
    fault::ChaosSchedule sched(cc, rt.n_nodes(), kProcs, 8);
    for (const auto& ev : events) sched.add(ev);
    rt.install_chaos(std::move(sched));
  }
  auto ds = make_ds(rt.fs());
  const auto n = jobs.size();
  SvcRun res;
  res.st.resize(n);
  res.reason.resize(n, svc::FailReason::none);
  res.value.resize(n, 0.0f);
  res.lat.resize(n, 0.0);
  res.slices.resize(n, 0);
  res.cc.resize(n);
  rt.run([&](mpi::Comm& c) {
    svc::ServiceContext sc(c, cfg);
    const int d = sc.register_dataset(ds);
    std::vector<svc::JobId> ids;
    for (const auto& jd : jobs) {
      svc::JobSpec s;
      s.name = jd.slab.var;
      s.tenant = jd.tenant;
      s.dataset = d;
      s.io = make_io(ds, jd.slab, c.rank());
      s.priority = jd.priority;
      s.weight = jd.weight;
      ids.push_back(sc.submit(std::move(s)));
    }
    sc.run_all();
    if (c.rank() != 0) return;
    for (std::size_t i = 0; i < n; ++i) {
      res.st[i] = sc.state(ids[i]);
      res.reason[i] = sc.result(ids[i]).reason;
      res.lat[i] = sc.latency_s(ids[i]);
      res.slices[i] = sc.slices_run(ids[i]);
      res.cc[i] = sc.job_stats(ids[i]);
      if (res.st[i] == svc::JobState::done) {
        res.value[i] = sc.output(ids[i]).global_as<float>();
      }
    }
    res.stats = sc.stats();
    res.sstats = sc.staging().stats();
  });
  res.elapsed = rt.elapsed();
  if (rt.chaos() != nullptr) res.faults = rt.chaos()->stats();
  return res;
}

bool bit_equal(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// ---------------- the wrapper relationship ----------------

TEST(Svc, RunQueryMatchesSoloCollectiveCompute) {
  const Slab q{"v", 0, 32};
  const float solo = solo_value(q);
  mpi::Runtime rt(small_machine(), kProcs);
  auto ds = make_ds(rt.fs());
  float via_svc = 0;
  rt.run([&](mpi::Comm& c) {
    core::CcOutput out;
    const core::CcStats s =
        svc::run_query(c, ds, make_io(ds, q, c.rank()), out);
    if (c.rank() == 0) {
      via_svc = out.global_as<float>();
      EXPECT_GT(s.total_s, 0.0);
    }
  });
  EXPECT_TRUE(bit_equal(via_svc, solo));
}

// ---------------- scheduling policies ----------------

TEST(Svc, FifoWithUnitBudgetRunsJobsBackToBack) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 1;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 32}, 0},
                                    {Slab{"u", 0, 32}, 1},
                                    {Slab{"v", 32, 32}, 2}};
  const SvcRun r = run_service(cfg, jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(r.st[i], svc::JobState::done) << "job " << i;
    EXPECT_GT(r.slices[i], 1) << "job " << i;
  }
  // Unit budget + FIFO: jobs run back to back, so exactly two job switches
  // and strictly growing queue wait.
  EXPECT_EQ(r.stats.switches, 2u);
  EXPECT_LT(r.lat[0], r.lat[1]);
  EXPECT_LT(r.lat[1], r.lat[2]);
  EXPECT_EQ(r.stats.submitted, 3u);
  EXPECT_EQ(r.stats.completed, 3u);
  EXPECT_EQ(r.stats.aborted, 0u);
}

TEST(Svc, PriorityFinishesTheHighPriorityTenantFirst) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::priority;
  cfg.max_concurrent = 4;
  cfg.slice_iters = 1;
  // The high-priority job is submitted LAST and must still finish first.
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 32}, 0, /*priority=*/0},
                                    {Slab{"u", 0, 32}, 1, /*priority=*/0},
                                    {Slab{"v", 32, 32}, 2, /*priority=*/5}};
  const SvcRun r = run_service(cfg, jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(r.st[i], svc::JobState::done) << "job " << i;
  }
  EXPECT_LT(r.lat[2], r.lat[0]);
  EXPECT_LT(r.lat[2], r.lat[1]);

  // The same submission order under FIFO makes the late job wait out both
  // earlier ones: priority must beat that latency.
  svc::ServiceConfig fifo = cfg;
  fifo.policy = svc::Policy::fifo;
  const SvcRun f = run_service(fifo, jobs);
  EXPECT_LT(r.lat[2], f.lat[2]);
  EXPECT_TRUE(bit_equal(r.value[2], f.value[2]));
}

TEST(Svc, WeightedFairGivesTheHeavyTenantTheLargerShare) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::weighted_fair;
  cfg.max_concurrent = 4;
  cfg.slice_iters = 1;
  // Same work per job; weight 3 vs 1. The heavy job is submitted second and
  // must still finish first (it receives ~3 quanta per 1 of the light one).
  // Full-depth slabs give the stride scheduler enough quanta to interleave.
  const std::vector<JobDef> jobs = {
      {Slab{"v", 0, 64}, 0, 0, /*weight=*/1},
      {Slab{"u", 0, 64}, 1, 0, /*weight=*/3}};
  const SvcRun r = run_service(cfg, jobs);
  EXPECT_EQ(r.st[0], svc::JobState::done);
  EXPECT_EQ(r.st[1], svc::JobState::done);
  EXPECT_LT(r.lat[1], r.lat[0]);
  // Stride scheduling interleaves the two jobs rather than running them
  // back to back.
  EXPECT_GT(r.stats.switches, 2u);
}

// ---------------- admission control ----------------

TEST(Svc, OverlapAffinityPullsOverlappingJobsForwardWithoutStarvation) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 2;
  cfg.slice_iters = 1;
  // Jobs 0 and 2 overlap in bytes; job 1 is disjoint. With a budget of two,
  // affinity admission admits 0 then 2 (skipping over 1), and job 1 still
  // completes once budget frees up.
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 32}, 0},
                                    {Slab{"v", 32, 32}, 1},
                                    {Slab{"v", 0, 32}, 2}};
  const SvcRun r = run_service(cfg, jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(r.st[i], svc::JobState::done) << "job " << i;
  }
  EXPECT_EQ(r.stats.affinity_admissions, 1u);

  svc::ServiceConfig off = cfg;
  off.overlap_affinity = false;
  const SvcRun plain = run_service(off, jobs);
  EXPECT_EQ(plain.stats.affinity_admissions, 0u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(bit_equal(r.value[i], plain.value[i])) << "job " << i;
  }
}

// ---------------- cross-query staging reuse ----------------

TEST(Svc, OverlappingTenantsShareStagedChunks) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 2;
  cfg.slice_iters = 2;
  // Two tenants ask for the same hyperslab: the second job must hit the
  // chunks the first tenant staged, byte for byte.
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 32}, 0},
                                    {Slab{"v", 0, 32}, 1}};
  const SvcRun r = run_service(cfg, jobs);
  EXPECT_EQ(r.st[0], svc::JobState::done);
  EXPECT_EQ(r.st[1], svc::JobState::done);
  EXPECT_TRUE(bit_equal(r.value[0], r.value[1]));
  EXPECT_GT(r.sstats.cross_query_hits, 0u);
  EXPECT_GT(r.sstats.cross_query_hit_bytes, 0u);
  EXPECT_LE(r.sstats.cross_query_hits, r.sstats.hits);
  // The warm job reads less from the PFS than the one that staged.
  EXPECT_LT(r.cc[1].bytes_read, r.cc[0].bytes_read);

  // Disjoint queries have nothing to share.
  const SvcRun dj = run_service(
      cfg, {{Slab{"v", 0, 32}, 0}, {Slab{"v", 32, 32}, 1}});
  EXPECT_EQ(dj.sstats.cross_query_hits, 0u);
}

TEST(Svc, TenantQuotaShieldsWarmTenantFromScanPressure) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 2;
  // A cache two warm working sets wide: the scanner's 64-step sweep is 4x
  // the capacity, so it cycles the cache; the warm tenant's 8-step slab
  // fits its half-share with room to spare.
  cfg.stage.capacity_bytes = 16384;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 8}, 0},    // warm stage
                                    {Slab{"u", 0, 64}, 1},   // adversary scan
                                    {Slab{"v", 0, 8}, 0}};   // warm re-read
  const float solo_warm = solo_value(jobs[0].slab);
  const float solo_scan = solo_value(jobs[1].slab);

  // Unpartitioned baseline: the scan flushes the warm tenant's chunks, so
  // the re-read goes back to the PFS.
  const SvcRun open = run_service(cfg, jobs);
  ASSERT_EQ(open.st[2], svc::JobState::done);
  EXPECT_EQ(open.sstats.quota_evictions, 0u);
  EXPECT_GT(open.cc[2].bytes_read, 0u)
      << "baseline did not generate eviction pressure; shrink the cache";

  // Weighted partitioning: the inserting scanner over its share evicts its
  // OWN lru entries (quota_evictions), never the warm tenant's.
  svc::ServiceConfig part = cfg;
  part.tenant_weights = {{0, 1}, {1, 1}};
  const SvcRun r = run_service(part, jobs);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(r.st[static_cast<std::size_t>(i)], svc::JobState::done)
        << "job " << i;
  }
  EXPECT_TRUE(bit_equal(r.value[0], solo_warm));
  EXPECT_TRUE(bit_equal(r.value[1], solo_scan));
  EXPECT_TRUE(bit_equal(r.value[2], solo_warm));
  EXPECT_GT(r.sstats.quota_evictions, 0u)
      << "the scanner never hit its share cap";
  // The warm tenant's chunks survived the scan: the re-read is all hits.
  EXPECT_EQ(r.cc[2].bytes_read, 0u);
  EXPECT_LT(r.cc[2].bytes_read, open.cc[2].bytes_read);
}

// ---------------- per-job bit-identity vs solo runs ----------------

TEST(Svc, InterleavedJobsAreBitIdenticalToSoloRuns) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::weighted_fair;
  cfg.max_concurrent = 4;
  cfg.slice_iters = 1;  // maximum interleaving
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 48}, 0, 0, 1},
                                    {Slab{"u", 8, 40}, 1, 0, 2},
                                    {Slab{"v", 16, 48}, 2, 0, 3}};
  const SvcRun r = run_service(cfg, jobs);
  EXPECT_GT(r.stats.switches, 0u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(r.st[i], svc::JobState::done) << "job " << i;
    EXPECT_TRUE(bit_equal(r.value[i], solo_value(jobs[i].slab)))
        << "job " << i << " diverged from its solo run";
  }
}

TEST(Svc, ServiceRunsAreDeterministic) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::weighted_fair;
  cfg.slice_iters = 1;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 32}, 0, 0, 1},
                                    {Slab{"u", 0, 32}, 1, 0, 2}};
  const SvcRun a = run_service(cfg, jobs);
  const SvcRun b = run_service(cfg, jobs);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.stats.slices, b.stats.slices);
  EXPECT_EQ(a.stats.switches, b.stats.switches);
  EXPECT_EQ(a.sstats.hits, b.sstats.hits);
  EXPECT_EQ(a.sstats.cross_query_hits, b.sstats.cross_query_hits);
  EXPECT_TRUE(bit_equal(a.value[0], b.value[0]));
  EXPECT_TRUE(bit_equal(a.value[1], b.value[1]));
}

// ---------------- fault isolation ----------------

TEST(Svc, TenantAbortKillsExactlyThatJob) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::weighted_fair;
  cfg.max_concurrent = 4;
  cfg.slice_iters = 1;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 32}, 0},
                                    {Slab{"u", 0, 32}, 1},
                                    {Slab{"v", 32, 32}, 2}};
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  cc.svc_abort_tenant = 1;
  cc.svc_abort_slice = 2;  // dies between its first and second slice
  const SvcRun r = run_service(cfg, jobs, &cc);
  EXPECT_EQ(r.st[1], svc::JobState::aborted);
  EXPECT_EQ(r.slices[1], 1);
  EXPECT_EQ(r.stats.aborted, 1u);
  EXPECT_EQ(r.stats.completed, 2u);
  EXPECT_EQ(r.faults.job_aborts, 1u);
  // The surviving tenants never notice: done, and bit-identical to solo.
  EXPECT_EQ(r.st[0], svc::JobState::done);
  EXPECT_EQ(r.st[2], svc::JobState::done);
  EXPECT_TRUE(bit_equal(r.value[0], solo_value(jobs[0].slab)));
  EXPECT_TRUE(bit_equal(r.value[2], solo_value(jobs[2].slab)));
}

TEST(Svc, AggregatorRoleCrashMidServiceDegradesNoResult) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 2;
  cfg.slice_iters = 2;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 32}, 0},
                                    {Slab{"u", 0, 32}, 1}};
  // Pilot with the crash parked beyond the horizon: the crash watch is
  // armed (identical timing) but nothing fires — it provides the clean
  // values and the run's span.
  fault::ChaosEvent crash;
  crash.kind = fault::Kind::aggregator_crash;
  crash.subject = 4;  // the second aggregator
  crash.at = 1e9;
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  const SvcRun pilot = run_service(cfg, jobs, &cc, {crash});
  ASSERT_EQ(pilot.st[0], svc::JobState::done);
  ASSERT_EQ(pilot.st[1], svc::JobState::done);
  EXPECT_EQ(pilot.faults.replans, 0u);

  // Now crash mid-service: the surviving aggregator absorbs the dead file
  // domain and every job's value must be reproduced exactly.
  crash.at = pilot.elapsed * 0.5;
  const SvcRun r = run_service(cfg, jobs, &cc, {crash});
  EXPECT_EQ(r.st[0], svc::JobState::done);
  EXPECT_EQ(r.st[1], svc::JobState::done);
  EXPECT_GE(r.faults.replans, 1u);
  EXPECT_TRUE(bit_equal(r.value[0], pilot.value[0]));
  EXPECT_TRUE(bit_equal(r.value[1], pilot.value[1]));
}

TEST(Svc, EveryAggregatorRoleCrashedFailsJobsNotTheService) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 2;
  cfg.slice_iters = 2;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 32}, 0},
                                    {Slab{"u", 0, 32}, 1}};
  // Pilot with both aggregators' crashes parked beyond the horizon: the
  // clean values and the run's span.
  std::vector<fault::ChaosEvent> crashes;
  for (const int rank : {0, 4}) {
    fault::ChaosEvent crash;
    crash.kind = fault::Kind::aggregator_crash;
    crash.subject = rank;
    crash.at = 1e9;
    crashes.push_back(crash);
  }
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  const SvcRun pilot = run_service(cfg, jobs, &cc, crashes);
  ASSERT_EQ(pilot.st[0], svc::JobState::done);
  ASSERT_EQ(pilot.st[1], svc::JobState::done);

  // Now both aggregators lose their role mid-service: nothing is left to
  // serve I/O, so the slice that sees it fails on every rank. run_all
  // returns, and every job ends done (bit-identical) or failed with a
  // reason, never lost and never taking the service down.
  for (fault::ChaosEvent& crash : crashes) crash.at = pilot.elapsed * 0.5;
  const SvcRun r = run_service(cfg, jobs, &cc, crashes);
  int failed = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (r.st[i] == svc::JobState::done) {
      EXPECT_TRUE(bit_equal(r.value[i], pilot.value[i])) << "job " << i;
    } else {
      EXPECT_EQ(r.st[i], svc::JobState::failed) << "job " << i;
      EXPECT_EQ(r.reason[i], svc::FailReason::unrecoverable) << "job " << i;
      ++failed;
    }
  }
  EXPECT_GE(failed, 1);
}

// An aggregator's read that fails on that rank alone must not strand its
// receivers: the rank turns zombie, notes every slot it owes, and the next
// crash-watch agreement fails the attempt everywhere. A role crash parked
// beyond the horizon arms the watch without ever firing.
std::vector<fault::ChaosEvent> parked_role_crash() {
  fault::ChaosEvent crash;
  crash.kind = fault::Kind::aggregator_crash;
  crash.subject = 4;
  crash.at = 1e9;
  return {crash};
}

TEST(Svc, AggregatorReadFailureUnderRoleCrashesRetriesThenFails) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 2;
  cfg.slice_iters = 2;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 32}, 0},
                                    {Slab{"u", 0, 32}, 1}};
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  Storage storage;
  storage.fail_prob = 1.0;  // every PFS request fails past its retries
  // A read past its retry budget is transient: each attempt is resubmitted
  // until the job's budget runs out, and run_all returns.
  const SvcRun r = run_service(cfg, jobs, &cc, parked_role_crash(), storage);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(r.st[i], svc::JobState::failed) << "job " << i;
    EXPECT_EQ(r.reason[i], svc::FailReason::retry_budget) << "job " << i;
  }
  EXPECT_EQ(r.stats.retries, 2u * static_cast<std::uint64_t>(cfg.max_retries));
}

TEST(Svc, ExhaustedChunkVerifyUnderRoleCrashesFailsDataCorrupt) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 2;
  cfg.slice_iters = 2;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 32}, 0},
                                    {Slab{"u", 0, 32}, 1}};
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  cc.pfs_corrupt_prob = 1.0;
  cc.corrupt_attempts = 10;  // more than ChunkReader's 3 re-reads outlast
  // The bytes are gone at every re-read: the aggregator's data_corrupt is
  // the attempt's agreed verdict, so no job is ever resubmitted.
  const SvcRun r = run_service(cfg, jobs, &cc, parked_role_crash());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(r.st[i], svc::JobState::failed) << "job " << i;
    EXPECT_EQ(r.reason[i], svc::FailReason::data_corrupt) << "job " << i;
  }
  EXPECT_EQ(r.stats.retries, 0u);
}

}  // namespace
}  // namespace colcom
