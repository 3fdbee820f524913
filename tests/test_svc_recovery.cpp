// svc::Recovery tests: service-level end-to-end recovery. A process death
// mid-slice that in-slice replan cannot absorb surfaces as a replicated
// slice abort; the service rolls back to the parked mid and resubmits on
// the shrunken world with a fresh epoch block and tag salt, resuming at the
// iteration boundary bit-identically. Policy bounds the recovery: retry
// budgets with exponential backoff, virtual-time deadlines (including a
// deadline firing mid-retry), and admission-control shedding (queue depth,
// deadline feasibility) — every job ends done, failed-with-reason, or
// shed; never lost, never hung. CI sweeps COLCOM_CHAOS_SEED and
// COLCOM_CHECK=1 over this suite (see scripts/ci.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
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
/// ServiceContext::park_slot_bytes() at kProcs ranks: an 8-byte length
/// prefix plus the worst-case mid, rounded up to 64 bytes.
constexpr std::uint64_t kSlot = (8 + 24 + 24 * kProcs + 63) / 64 * 64;

/// CI sweeps several seeds: COLCOM_CHAOS_SEED overrides the default.
std::uint64_t chaos_seed() {
  if (const char* s = std::getenv("COLCOM_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return 0xc4a05;
}

/// Two ranks per node: 8 ranks -> 4 nodes -> aggregators {0, 2, 4, 6}, so a
/// non-root aggregator AND its absorber can both die with survivors left.
mpi::MachineConfig four_node_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 2;
  cfg.pfs.n_osts = 4;
  cfg.pfs.stripe_size = 8192;
  return cfg;
}

ncio::Dataset make_ds(pfs::Pfs& fs) {
  return ncio::DatasetBuilder(fs, "svcrec.nc")
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

struct Slab {
  const char* var = "v";
  std::uint64_t t0 = 0;
  std::uint64_t rows = 64;
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
/// fresh fault-free world of the same shape.
float solo_value(const Slab& q) {
  mpi::Runtime rt(four_node_machine(), kProcs);
  auto ds = make_ds(rt.fs());
  float v = 0;
  rt.run([&](mpi::Comm& c) {
    core::CcOutput out;
    core::collective_compute(c, ds, make_io(ds, q, c.rank()), out);
    if (c.rank() == 0) v = out.global_as<float>();
  });
  return v;
}

/// One write the park file received, in issue order.
struct ParkWrite {
  std::uint64_t offset = 0;
  std::vector<std::byte> bytes;
};

/// Forwards to the wrapped store and logs every write; installed under the
/// park file with Pfs::wrap_store.
class RecordingStore final : public pfs::Store {
 public:
  RecordingStore(std::unique_ptr<pfs::Store> inner,
                 std::vector<ParkWrite>* log)
      : inner_(std::move(inner)), log_(log) {}

  void read(std::uint64_t offset, std::span<std::byte> dst) const override {
    inner_->read(offset, dst);
  }
  void write(std::uint64_t offset, std::span<const std::byte> src) override {
    log_->push_back({offset, {src.begin(), src.end()}});
    inner_->write(offset, src);
  }
  std::uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<pfs::Store> inner_;
  std::vector<ParkWrite>* log_;
};

/// A park file in `rt` whose writes land in `log`.
pfs::FileId make_park(mpi::Runtime& rt, std::vector<ParkWrite>& log) {
  const pfs::FileId id =
      rt.fs().create("park", std::make_unique<pfs::MemStore>(1 << 20));
  rt.fs().wrap_store(id, [&log](std::unique_ptr<pfs::Store> s) {
    return std::make_unique<RecordingStore>(std::move(s), &log);
  });
  return id;
}

/// Slot `rank` of job `job`: the length prefix, in (0, kSlot - 8] once the
/// rank has parked, then the mid, then zero padding.
struct Slot {
  std::uint64_t len = 0;
  bool zero_padded = false;
};

Slot read_slot(std::span<const std::byte> park, int job, int rank) {
  const auto at = (static_cast<std::size_t>(job) * kProcs +
                   static_cast<std::size_t>(rank)) *
                  kSlot;
  Slot s;
  std::memcpy(&s.len, park.data() + at, sizeof(s.len));
  const std::size_t used = 8 + std::min<std::uint64_t>(s.len, kSlot - 8);
  s.zero_padded = std::all_of(park.begin() + static_cast<std::ptrdiff_t>(
                                                 at + used),
                              park.begin() + static_cast<std::ptrdiff_t>(
                                                 at + kSlot),
                              [](std::byte b) { return b == std::byte{0}; });
  return s;
}

struct JobDef {
  Slab slab;
  int tenant = 0;
  double deadline_s = 0;
  int max_retries = -1;
};

struct RecRun {
  std::vector<svc::JobResult> res;
  std::vector<svc::JobState> st;
  std::vector<float> value;  ///< valid where st == done (root's view)
  std::vector<int> slices;
  svc::ServiceStats stats;
  fault::FaultStats faults;
  double elapsed = 0;
  /// The park file's slots after the run (with a park log only).
  std::vector<std::byte> park;
};

/// Runs a service over `jobs` with `crashes` installed as chaos crash
/// points; collects results on `collect_rank` (pass a survivor when the
/// root is among the dead — state/stats are replicated, output is not).
/// A non-null `park_log` parks mids into a park file whose writes it logs.
RecRun run_service(const svc::ServiceConfig& cfg,
                   const std::vector<JobDef>& jobs,
                   const std::vector<fault::CrashPoint>& crashes = {},
                   int collect_rank = 0,
                   std::vector<ParkWrite>* park_log = nullptr) {
  mpi::Runtime rt(four_node_machine(), kProcs);
  if (!crashes.empty()) {
    fault::ChaosConfig cc;
    cc.seed = chaos_seed();
    fault::ChaosSchedule sched(cc, rt.n_nodes(), kProcs, 8);
    for (const auto& cp : crashes) sched.add_crash_point(cp);
    rt.install_chaos(std::move(sched));
  }
  auto ds = make_ds(rt.fs());
  const auto n = jobs.size();
  svc::ServiceConfig scfg = cfg;
  if (park_log != nullptr) scfg.park = make_park(rt, *park_log);
  RecRun res;
  res.res.resize(n);
  res.st.resize(n, svc::JobState::queued);
  res.value.resize(n, 0.0f);
  res.slices.resize(n, 0);
  rt.run([&](mpi::Comm& c) {
    svc::ServiceContext sc(c, scfg);
    const int d = sc.register_dataset(ds);
    std::vector<svc::JobId> ids;
    for (const auto& jd : jobs) {
      svc::JobSpec s;
      s.name = jd.slab.var;
      s.tenant = jd.tenant;
      s.dataset = d;
      s.io = make_io(ds, jd.slab, c.rank());
      s.deadline_s = jd.deadline_s;
      s.max_retries = jd.max_retries;
      ids.push_back(sc.submit(std::move(s)));
    }
    sc.run_all();
    if (park_log != nullptr) sc.staging().wb_flush();
    if (c.rank() != collect_rank) return;
    for (std::size_t i = 0; i < n; ++i) {
      res.res[i] = sc.result(ids[i]);
      res.st[i] = sc.state(ids[i]);
      res.slices[i] = sc.slices_run(ids[i]);
      if (res.st[i] == svc::JobState::done && collect_rank == 0) {
        res.value[i] = sc.output(ids[i]).global_as<float>();
      }
    }
    res.stats = sc.stats();
  });
  res.elapsed = rt.elapsed();
  if (rt.chaos() != nullptr) res.faults = rt.chaos()->stats();
  if (park_log != nullptr) {
    res.park.resize(n * kProcs * kSlot);
    rt.fs().store(scfg.park).read(0, res.park);
  }
  return res;
}

bool bit_equal(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/// The flagship choreography: aggregator rank 4 (index 2 of {0,2,4,6})
/// dies after reading its third chunk; when the watch agrees on the death,
/// rank 2 — the survivor rotation's absorber for the missed slot — dies
/// inside the replan. The make-up receive hits a dead absorber, the
/// attempt aborts in agreement, and only a service-level resubmit from the
/// parked mid can finish the job.
std::vector<fault::CrashPoint> absorber_death() {
  return {{fault::Phase::mid_map, 4, 3}, {fault::Phase::replan, 2, 1}};
}

// ---------------- resubmit-from-mid on a shrunken world ----------------

TEST(SvcRecovery, ProcessDeathMidSliceResumesFromParkedMidBitIdentical) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 1;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 64}}};
  const float solo = solo_value(jobs[0].slab);

  const RecRun r = run_service(cfg, jobs, absorber_death());
  ASSERT_EQ(r.st[0], svc::JobState::done);
  EXPECT_TRUE(bit_equal(r.value[0], solo))
      << "recovered job diverged from the uninterrupted run";
  // The in-slice machinery could not absorb this one: the attempt aborted
  // and the service resubmitted from the parked mid at least once.
  EXPECT_GE(r.res[0].retries, 1);
  EXPECT_FALSE(r.res[0].failed);
  EXPECT_EQ(r.res[0].reason, svc::FailReason::none);
  EXPECT_GE(r.stats.retries, 1u);
  EXPECT_EQ(r.stats.recovered, 1u);
  EXPECT_EQ(r.stats.completed, 1u);
  EXPECT_EQ(r.stats.failed, 0u);
  EXPECT_EQ(r.faults.rank_crashes, 2u);
  EXPECT_GE(r.faults.svc_retries, 1u);
}

TEST(SvcRecovery, ResumeOnWorldThatShrankAgainBetweenParkAndResubmit) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 1;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 64}}};
  const float solo = solo_value(jobs[0].slab);

  // On top of the aborted first attempt, aggregator rank 6 dies when the
  // resubmitted attempt re-maps the rolled-back chunk: the world shrinks
  // AGAIN between the park and the completed resubmit, leaving rank 0 the
  // only aggregator of the original four.
  auto crashes = absorber_death();
  crashes.push_back({fault::Phase::mid_map, 6, 4});
  const RecRun r = run_service(cfg, jobs, crashes);
  ASSERT_EQ(r.st[0], svc::JobState::done);
  EXPECT_TRUE(bit_equal(r.value[0], solo))
      << "twice-shrunken resume diverged from the uninterrupted run";
  EXPECT_GE(r.res[0].retries, 1);
  EXPECT_EQ(r.stats.recovered, 1u);
  EXPECT_EQ(r.faults.rank_crashes, 3u);
}

// ---------------- retry budgets ----------------

TEST(SvcRecovery, RetryBudgetExhaustionFailsStructuredAndSparesOthers) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 1;
  // Job 0 forbids retries: the aborted attempt must end it with a
  // structured retry_budget failure, not a resubmit, not a hang. Job 1
  // (a different variable) then runs on the shrunken world untouched.
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 64}, 0, 0, /*retries=*/0},
                                    {Slab{"u", 0, 64}, 1}};
  const float solo1 = solo_value(jobs[1].slab);

  const RecRun r = run_service(cfg, jobs, absorber_death());
  EXPECT_EQ(r.st[0], svc::JobState::failed);
  EXPECT_TRUE(r.res[0].failed);
  EXPECT_EQ(r.res[0].reason, svc::FailReason::retry_budget);
  EXPECT_EQ(r.res[0].retries, 0);
  ASSERT_EQ(r.st[1], svc::JobState::done);
  EXPECT_TRUE(bit_equal(r.value[1], solo1))
      << "the surviving tenant's job diverged";
  EXPECT_EQ(r.stats.failed, 1u);
  EXPECT_EQ(r.stats.completed, 1u);
  EXPECT_GE(r.faults.svc_failures, 1u);
}

// ---------------- deadlines (virtual-time SLOs) ----------------

TEST(SvcRecovery, DeadlineFiresMidRetry) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 1;
  const std::vector<JobDef> clean_jobs = {{Slab{"v", 0, 64}}};
  const RecRun pilot = run_service(cfg, clean_jobs);
  ASSERT_EQ(pilot.st[0], svc::JobState::done);

  // The SLO comfortably covers the uninterrupted run, but the post-failure
  // backoff alone would push the resubmit far past it: the deadline fires
  // mid-retry, after the retry was granted but before it could run.
  svc::ServiceConfig slo = cfg;
  slo.backoff_base_s = 20.0 * pilot.elapsed;
  std::vector<JobDef> jobs = clean_jobs;
  jobs[0].deadline_s = 5.0 * pilot.elapsed;
  const RecRun r = run_service(slo, jobs, absorber_death());
  EXPECT_EQ(r.st[0], svc::JobState::failed);
  EXPECT_TRUE(r.res[0].failed);
  EXPECT_EQ(r.res[0].reason, svc::FailReason::deadline);
  EXPECT_EQ(r.res[0].retries, 1);
  EXPECT_EQ(r.stats.failed, 1u);
  EXPECT_EQ(r.stats.completed, 0u);
}

TEST(SvcRecovery, QueuedPastDeadlineFailsWithoutRunning) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 1;
  cfg.shed_infeasible = false;  // exercise the breach path, not the shed
  // Job 1's SLO is already gone when job 0 finishes monopolizing the unit
  // budget: the breach is detected at pick time on the replicated clock.
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 64}},
                                    {Slab{"u", 0, 64}, 1, /*deadline=*/1e-6}};
  const RecRun r = run_service(cfg, jobs);
  EXPECT_EQ(r.st[0], svc::JobState::done);
  EXPECT_EQ(r.st[1], svc::JobState::failed);
  EXPECT_EQ(r.res[1].reason, svc::FailReason::deadline);
  EXPECT_EQ(r.slices[1], 0);
  EXPECT_EQ(r.stats.failed, 1u);
}

// ---------------- admission-control shedding ----------------

TEST(SvcRecovery, QueueDepthBoundShedsSubmissionBurst) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 2;
  cfg.max_queue = 1;
  // Three submits against a depth-1 queue: the burst's tail is shed with
  // queue_full before any collective plan build, and never runs a slice.
  const std::vector<JobDef> jobs = {
      {Slab{"v", 0, 32}}, {Slab{"u", 0, 32}, 1}, {Slab{"v", 32, 32}, 2}};
  const RecRun r = run_service(cfg, jobs);
  EXPECT_EQ(r.st[0], svc::JobState::done);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_EQ(r.st[static_cast<std::size_t>(i)], svc::JobState::shed)
        << "job " << i;
    EXPECT_EQ(r.res[static_cast<std::size_t>(i)].reason,
              svc::FailReason::queue_full)
        << "job " << i;
    EXPECT_TRUE(r.res[static_cast<std::size_t>(i)].failed);
    EXPECT_EQ(r.slices[static_cast<std::size_t>(i)], 0) << "job " << i;
  }
  EXPECT_EQ(r.stats.shed, 2u);
  EXPECT_EQ(r.stats.completed, 1u);
  EXPECT_EQ(r.stats.submitted, 3u);
}

TEST(SvcRecovery, InfeasibleDeadlineShedAtAdmission) {
  mpi::Runtime rt(four_node_machine(), kProcs);
  // A parked crash point that never fires keeps the recovery machinery on
  // (per-slice outcome agreements feed the cost estimate) without killing
  // anyone — and doubles as the recover-mode bit-transparency check.
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  fault::ChaosSchedule sched(cc, rt.n_nodes(), kProcs, 8);
  sched.add_crash_point({fault::Phase::mid_map, 7, 1000000});
  rt.install_chaos(std::move(sched));
  auto ds = make_ds(rt.fs());
  const Slab warm{"v", 0, 64};
  svc::JobResult shed_res;
  float warm_value = 0;
  svc::ServiceStats stats;
  rt.run([&](mpi::Comm& c) {
    svc::ServiceConfig cfg;
    cfg.max_concurrent = 1;
    cfg.slice_iters = 1;
    svc::ServiceContext sc(c, cfg);
    const int d = sc.register_dataset(ds);
    svc::JobSpec a;
    a.name = "warm";
    a.dataset = d;
    a.io = make_io(ds, warm, c.rank());
    const svc::JobId ia = sc.submit(std::move(a));
    sc.run_all();  // seeds the smoothed per-iteration cost estimate
    svc::JobSpec b;
    b.name = "doomed";
    b.dataset = d;
    b.io = make_io(ds, Slab{"u", 0, 64}, c.rank());
    b.deadline_s = 1e-6;  // far below any per-iteration estimate
    const svc::JobId ib = sc.submit(std::move(b));
    sc.run_all();
    if (c.rank() != 0) return;
    warm_value = sc.output(ia).global_as<float>();
    shed_res = sc.result(ib);
    stats = sc.stats();
  });
  EXPECT_TRUE(bit_equal(warm_value, solo_value(warm)))
      << "recover-mode clean run diverged from the solo value";
  EXPECT_EQ(shed_res.state, svc::JobState::shed);
  EXPECT_EQ(shed_res.reason, svc::FailReason::infeasible);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// ---------------- death inside submit's plan exchange ----------------

TEST(SvcRecovery, DeathDuringSubmitReplansOnShrunkenWorld) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 1;
  const std::vector<JobDef> jobs = {
      {Slab{"v", 0, 64}}, {Slab{"u", 0, 64}, 1}, {Slab{"v", 32, 32}, 2}};
  const float solo0 = solo_value(jobs[0].slab);
  // Rank 3 dies entering its second submit — before the plan exchange's
  // collectives. The pre-collective agreement replicates the death; the
  // survivors then replicate their access metadata over the agreed-alive
  // group and build the plan locally (romio::build_plan_local), so job 1
  // (and every later submit) runs to completion on the shrunken world
  // instead of failing unrecoverable. The dead rank never contributed its
  // request, so the replanned jobs cover the survivors' slab partitions.
  const RecRun r = run_service(cfg, jobs, {{fault::Phase::submit, 3, 2}});
  ASSERT_EQ(r.st[0], svc::JobState::done);
  EXPECT_TRUE(bit_equal(r.value[0], solo0))
      << "pre-death job diverged from the uninterrupted run";
  for (std::size_t i = 1; i <= 2; ++i) {
    EXPECT_EQ(r.st[i], svc::JobState::done) << "job " << i;
    EXPECT_FALSE(r.res[i].failed) << "job " << i;
    EXPECT_EQ(r.res[i].reason, svc::FailReason::none) << "job " << i;
    EXPECT_GT(r.slices[i], 0) << "job " << i;
  }
  EXPECT_EQ(r.stats.submitted, 3u);
  EXPECT_EQ(r.stats.completed, 3u);
  EXPECT_EQ(r.stats.failed, 0u);
  EXPECT_EQ(r.stats.submit_replans, 2u);
  EXPECT_EQ(r.faults.rank_crashes, 1u);
  // The replanned path is deterministic: a second identical run agrees
  // bit-for-bit on the shrunken-world results.
  const RecRun r2 = run_service(cfg, jobs, {{fault::Phase::submit, 3, 2}});
  EXPECT_TRUE(bit_equal(r.value[1], r2.value[1]));
  EXPECT_TRUE(bit_equal(r.value[2], r2.value[2]));
}

// ---------------- fatal verdicts stay structured ----------------

TEST(SvcRecovery, RootDeathYieldsStructuredFailureNotHang) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 1;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 64}}};
  // The reduction root (rank 0) dies after mapping its second chunk. No
  // survivor set can deliver the root's output: the verdict is fatal, the
  // job ends failed-with-reason on every survivor, and run_all returns.
  const RecRun r =
      run_service(cfg, jobs, {{fault::Phase::mid_map, 0, 2}},
                  /*collect_rank=*/1);
  EXPECT_EQ(r.st[0], svc::JobState::failed);
  EXPECT_TRUE(r.res[0].failed);
  EXPECT_EQ(r.res[0].reason, svc::FailReason::root_failed);
  EXPECT_EQ(r.stats.failed, 1u);
  EXPECT_EQ(r.stats.completed, 0u);
  EXPECT_EQ(r.faults.rank_crashes, 1u);
  EXPECT_GE(r.faults.svc_failures, 1u);
}

// ---------------- determinism ----------------

TEST(SvcRecovery, RecoveryRunsAreDeterministic) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 1;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 64}}};
  const RecRun a = run_service(cfg, jobs, absorber_death());
  const RecRun b = run_service(cfg, jobs, absorber_death());
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.res[0].retries, b.res[0].retries);
  EXPECT_EQ(a.stats.slices, b.stats.slices);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_TRUE(bit_equal(a.value[0], b.value[0]));
}

// ---------------- checkpoint persistence of parked mids ----------------

TEST(SvcRecovery, ParkedMidsPersistThroughWriteBehind) {
  mpi::Runtime rt(four_node_machine(), kProcs);
  auto ds = make_ds(rt.fs());
  std::vector<ParkWrite> writes;
  const pfs::FileId park = make_park(rt, writes);
  const std::vector<Slab> slabs = {Slab{"v", 0, 64}, Slab{"u", 0, 64}};
  std::vector<std::uint64_t> dirty(kProcs, 1);
  std::vector<std::size_t> pinned(kProcs, 1);
  std::size_t parks = 0;  ///< non-closing slices
  rt.run([&](mpi::Comm& c) {
    svc::ServiceConfig cfg;
    cfg.max_concurrent = 1;
    cfg.slice_iters = 1;
    cfg.park = park;
    svc::ServiceContext sc(c, cfg);
    const int d = sc.register_dataset(ds);
    std::vector<svc::JobId> ids;
    for (const Slab& q : slabs) {
      svc::JobSpec s;
      s.name = "parked";
      s.dataset = d;
      s.io = make_io(ds, q, c.rank());
      ids.push_back(sc.submit(std::move(s)));
    }
    sc.run_all();
    // Parks are durable once the writer's write-behind is flushed; every
    // rank flushes its own area, as any checkpointing application would.
    sc.staging().wb_flush();
    const auto me = static_cast<std::size_t>(c.rank());
    dirty[me] = sc.staging().wb_dirty_bytes();
    pinned[me] = sc.staging().cache().pinned_entries();
    if (c.rank() != 0) return;
    for (const svc::JobId id : ids) {
      EXPECT_EQ(sc.state(id), svc::JobState::done);
      parks += static_cast<std::size_t>(sc.slices_run(id) - 1);
    }
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(dirty[static_cast<std::size_t>(r)], 0u) << "rank " << r;
    EXPECT_EQ(pinned[static_cast<std::size_t>(r)], 0u) << "rank " << r;
  }
  // One aggregated write per parking slice: each job's image of kProcs
  // slots lies inside one 8 KiB stripe, so a park touches one stripe and
  // is one write — not one small write per rank.
  ASSERT_GT(parks, 0u);
  EXPECT_EQ(writes.size(), parks);
  for (const ParkWrite& w : writes) {
    EXPECT_EQ(w.bytes.size(), kProcs * kSlot);
    EXPECT_EQ(w.offset % (kProcs * kSlot), 0u);
  }
  std::vector<std::byte> img(slabs.size() * kProcs * kSlot);
  rt.fs().store(park).read(0, img);
  for (int job = 0; job < static_cast<int>(slabs.size()); ++job) {
    for (int r = 0; r < kProcs; ++r) {
      const Slot s = read_slot(img, job, r);
      EXPECT_GT(s.len, 0u) << "job " << job << " rank " << r;
      EXPECT_LE(s.len, kSlot - 8) << "job " << job << " rank " << r;
      EXPECT_TRUE(s.zero_padded) << "job " << job << " rank " << r;
    }
  }
}

/// Park-file invariants of a one-job run in which `dead` ranks died
/// mid-job: parks before the deaths cover every slot; a park on the
/// shrunken world follows, rewriting every survivor's slot and no dead
/// rank's, whose slot keeps the bytes it last parked.
void expect_parks_survive_deaths(const std::vector<ParkWrite>& writes,
                                 std::span<const std::byte> park,
                                 const std::vector<int>& dead) {
  const auto covers = [](const ParkWrite& w, int r) {
    const std::uint64_t at = static_cast<std::uint64_t>(r) * kSlot;
    return w.offset <= at && at + kSlot <= w.offset + w.bytes.size();
  };
  const auto misses_dead = [&](const ParkWrite& w) {
    return std::none_of(dead.begin(), dead.end(),
                        [&](int r) { return covers(w, r); });
  };
  const auto shrunk = std::find_if(writes.begin(), writes.end(), misses_dead);
  ASSERT_NE(shrunk, writes.begin()) << "no park before the deaths";
  ASSERT_NE(shrunk, writes.end()) << "no park on the shrunken world";
  for (auto w = writes.begin(); w != shrunk; ++w) {
    EXPECT_EQ(w->offset, 0u);
    EXPECT_EQ(w->bytes.size(), kProcs * kSlot);
  }
  EXPECT_TRUE(std::all_of(shrunk, writes.end(), misses_dead))
      << "a park after the deaths rewrote a dead rank's slot";
  for (int r = 0; r < kProcs; ++r) {
    const bool is_dead = std::count(dead.begin(), dead.end(), r) > 0;
    const auto last = std::find_if(writes.rbegin(), writes.rend(),
                                   [&](const ParkWrite& w) {
                                     return covers(w, r);
                                   });
    ASSERT_NE(last, writes.rend()) << "rank " << r << " never parked";
    if (!is_dead) {
      EXPECT_TRUE(std::any_of(shrunk, writes.end(),
                              [&](const ParkWrite& w) {
                                return covers(w, r);
                              }))
          << "survivor " << r << "'s slot was not updated after the deaths";
      continue;
    }
    // The dead rank's slot holds exactly what it parked before dying.
    const std::uint64_t at = static_cast<std::uint64_t>(r) * kSlot;
    const auto from =
        last->bytes.begin() + static_cast<std::ptrdiff_t>(at - last->offset);
    EXPECT_TRUE(std::equal(from, from + static_cast<std::ptrdiff_t>(kSlot),
                           park.begin() + static_cast<std::ptrdiff_t>(at)))
        << "dead rank " << r << "'s slot lost its earlier bytes";
  }
  for (int r = 0; r < kProcs; ++r) {
    const Slot s = read_slot(park, 0, r);
    EXPECT_GT(s.len, 0u) << "rank " << r;
    EXPECT_LE(s.len, kSlot - 8) << "rank " << r;
    EXPECT_TRUE(s.zero_padded) << "rank " << r;
  }
}

TEST(SvcRecovery, ParksOnShrunkenWorldKeepDeadRanksSlots) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 1;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 64}}};
  const float solo = solo_value(jobs[0].slab);
  // The absorber choreography aborts the third slice; its resubmit on the
  // shrunken world parks again with ranks 2 and 4 dead.
  std::vector<ParkWrite> writes;
  const RecRun r = run_service(cfg, jobs, absorber_death(), 0, &writes);
  ASSERT_EQ(r.st[0], svc::JobState::done);
  EXPECT_TRUE(bit_equal(r.value[0], solo))
      << "parking on the shrunken world changed the result";
  EXPECT_GE(r.res[0].retries, 1);
  expect_parks_survive_deaths(writes, r.park, {2, 4});
}

TEST(SvcRecovery, DeadParkWriterIsReplaced) {
  svc::ServiceConfig cfg;
  cfg.policy = svc::Policy::fifo;
  cfg.max_concurrent = 1;
  cfg.slice_iters = 1;
  const std::vector<JobDef> jobs = {{Slab{"v", 0, 64}}};
  const float solo = solo_value(jobs[0].slab);
  // Rank 7 — the highest rank, so the park writer — dies in the second
  // slice's first crash watch (each one-iteration slice watches twice),
  // after it has written the first park: the next parks name rank 6 their
  // writer, and nobody waits on the dead one.
  std::vector<ParkWrite> writes;
  const RecRun r = run_service(cfg, jobs, {{fault::Phase::crash_watch, 7, 3}},
                               0, &writes);
  ASSERT_EQ(r.st[0], svc::JobState::done);
  EXPECT_TRUE(bit_equal(r.value[0], solo))
      << "losing the park writer changed the result";
  EXPECT_EQ(r.faults.rank_crashes, 1u);
  expect_parks_survive_deaths(writes, r.park, {7});
}

}  // namespace
}  // namespace colcom
