// Extension study — seeded long-horizon chaos soak of the service recovery
// path (svc::Recovery). One run submits a burst of ~150 jobs (per scale
// unit) from four tenants against an 8-rank, four-aggregator world, then
// composes every fault class the stack knows while the scheduler drains:
// message loss with retransmits, straggler ranks, an aggregator role crash,
// process deaths at control-plane crash points (including the absorber of a
// dead aggregator's make-up slot, which forces a service-level resubmit
// from the parked mid), a tenant-local abort, a queue-depth bound shedding
// the submission tail, and doomed virtual-time deadlines.
//
// End-state invariants, checked after the drain: every job is terminal —
// completed bit-identically to the fault-free baseline, failed with a
// structured reason, or shed by admission control; never lost, never hung.
// No staged extent leaks (write-behind drains to zero dirty bytes, no
// chunk stays pinned on any survivor). scripts/ci.sh runs this binary at
// small scale under ASan/UBSan + COLCOM_CHECK=1 over several
// COLCOM_CHAOS_SEED values and gates on the shape checks; the RESULT lines
// feed BENCH_soak.json (jobs recovered / shed and makespan overhead).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/chaos.hpp"
#include "integrity/integrity.hpp"
#include "ncio/dataset.hpp"
#include "pfs/store.hpp"
#include "stage/stage.hpp"
#include "svc/svc.hpp"

using namespace colcom;

namespace {

constexpr int kProcs = 8;
constexpr int kTenants = 4;

std::uint64_t chaos_seed() {
  if (const char* s = std::getenv("COLCOM_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return 0xc4a05;
}

/// Two ranks per node: four aggregators {0, 2, 4, 6}, so aggregator
/// process deaths leave survivors and a root.
mpi::MachineConfig soak_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 2;
  cfg.pfs.n_osts = 4;
  cfg.pfs.stripe_size = 8192;
  return cfg;
}

ncio::Dataset make_ds(pfs::Pfs& fs) {
  return ncio::DatasetBuilder(fs, "soak.nc")
      .add_generated_var<float>(
          "u", {128, 16, 16},
          [](std::span<const std::uint64_t> c) {
            double v = 2.0;
            for (auto x : c) v = v * 2.9 + static_cast<double>(x);
            return static_cast<float>(v * 1e-3);
          })
      .add_generated_var<float>(
          "v", {128, 16, 16},
          [](std::span<const std::uint64_t> c) {
            double v = 1.0;
            for (auto x : c) v = v * 3.7 + static_cast<double>(x);
            return static_cast<float>(v * 1e-3);
          })
      .finish();
}

/// splitmix64: the seeded generator of the job mix (never wall-clock, never
/// unseeded — the same seed reproduces the identical soak).
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

struct SoakJob {
  const char* var = "v";
  std::uint64_t t0 = 0;
  std::uint64_t rows = 16;
  int tenant = 0;
  int weight = 1;
  bool doomed = false;  ///< carries an unmeetable virtual-time deadline
};

// The workload is fixed (seeded by a constant): COLCOM_CHAOS_SEED varies
// the fault weather — message-loss pattern, straggler subjects and timing —
// over an identical job stream, so the tuned crash points always land on
// the same slice and the recovery invariants are checkable on every seed.
std::vector<SoakJob> make_jobs(int n) {
  Rng rng{0x50acull};
  std::vector<SoakJob> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    SoakJob j;
    j.var = (rng.next() & 1) != 0 ? "u" : "v";
    j.t0 = 8 * (rng.next() % 13);            // windows inside the 128 steps
    j.rows = (rng.next() & 1) != 0 ? 32 : 16; // 2-iteration or 1-iteration
    j.tenant = i % kTenants;
    j.weight = j.tenant + 1;
    j.doomed = i % 13 == 12;
    jobs.push_back(j);
  }
  return jobs;
}

struct Run {
  std::vector<svc::JobResult> res;
  integrity::Stats integ;  ///< process-global integrity counters for the run
  std::vector<svc::JobState> st;
  std::vector<float> value;  ///< valid where st == done
  svc::ServiceStats stats;
  fault::FaultStats faults;
  std::uint64_t leaked_dirty = 0;   ///< wb bytes still dirty after flush
  std::uint64_t leaked_pins = 0;    ///< cache entries still pinned
  int survivors = 0;
  double elapsed = 0;
  /// Virtual time the last job finished by a resubmit-from-mid (0: none).
  double recovered_by = 0;
};

/// `role_crash_at` <= 0 leaves the aggregator role crash out.
Run run_soak(const std::vector<SoakJob>& jobs, int max_queue, bool chaos,
             double role_crash_at) {
  integrity::reset_stats();
  mpi::Runtime rt(soak_machine(), kProcs);
  if (chaos) {
    fault::ChaosConfig cc;
    cc.seed = chaos_seed();
    cc.msg_loss_prob = 0.005;
    cc.stragglers = 2;
    cc.straggler_duration_s = 0.02;
    cc.svc_abort_tenant = 2;  // one tenant loses a job mid-service
    cc.svc_abort_slice = 2;
    // The corruption axis: low-rate bit rot on verified cache hits and torn
    // write-behind flushes, composed with everything above. One recovery
    // attempt suffices (the PFS / pristine shadow is clean), so every
    // detection heals bit-identically and the baseline-memcmp check below
    // doubles as the never-silently-wrong integrity invariant.
    cc.cache_rot_prob = 0.03;
    cc.wb_torn_prob = 0.03;
    cc.corrupt_attempts = 1;
    fault::ChaosSchedule sched(cc, rt.n_nodes(), kProcs, 8);
    // Process deaths first: aggregator rank 4 dies mid-map deep into the
    // soak (the hit count is tuned to land on a job's first iteration), and
    // rank 6 — the make-up rotation's absorber for that missed slot — dies
    // inside the very replan that announces it. The slot can no longer be
    // re-served in-slice, so the interrupted job aborts and only finishes
    // by a service-level resubmit from its parked mid.
    sched.add_crash_point({fault::Phase::mid_map, 4, 26});
    sched.add_crash_point({fault::Phase::replan, 6, 1});
    // Later, an aggregator ROLE crash on a surviving aggregator (rank 2's
    // process stays alive and keeps participating): the remaining drain
    // runs with a single working aggregator absorbing three domains.
    if (role_crash_at > 0) {
      fault::ChaosEvent role;
      role.kind = fault::Kind::aggregator_crash;
      role.subject = 2;
      role.at = role_crash_at;
      sched.add(role);
    }
    rt.install_chaos(std::move(sched));
  }
  auto ds = make_ds(rt.fs());
  auto park = rt.fs().create(chaos ? "park-chaos" : "park-base",
                             std::make_unique<pfs::MemStore>(1 << 20));
  const auto n = jobs.size();
  Run res;
  res.res.resize(n);
  res.st.resize(n, svc::JobState::queued);
  res.value.resize(n, 0.0f);
  std::vector<std::uint64_t> dirty(kProcs, 0);
  std::vector<std::uint64_t> pins(kProcs, 0);
  std::vector<char> seen(kProcs, 0);
  rt.run([&](mpi::Comm& c) {
    svc::ServiceConfig cfg;
    cfg.policy = svc::Policy::weighted_fair;
    cfg.slice_iters = 1;
    cfg.max_concurrent = 4;
    cfg.max_queue = max_queue;
    cfg.park = park;
    svc::ServiceContext sc(c, cfg);
    const int d = sc.register_dataset(ds);
    std::vector<svc::JobId> ids;
    std::vector<double> submitted_at;
    for (const SoakJob& sj : jobs) {
      svc::JobSpec s;
      s.name = std::string(sj.var) + "@" + std::to_string(sj.t0);
      s.tenant = sj.tenant;
      s.dataset = d;
      s.io.var = ds.var(sj.var);
      s.io.start = {sj.t0, static_cast<std::uint64_t>(2 * c.rank()), 0};
      s.io.count = {sj.rows, 2, 16};
      s.io.op = mpi::Op::sum();
      s.io.hints.cb_buffer_size = 4096;
      s.weight = sj.weight;
      if (sj.doomed) s.deadline_s = 1e-6;
      submitted_at.push_back(c.wtime());
      ids.push_back(sc.submit(std::move(s)));
    }
    sc.run_all();
    // End-state sweep on every survivor: drain the write-behind, then
    // count leaks. A dead rank never reaches this point — its row stays
    // unmarked and out of the invariant.
    sc.staging().wb_flush();
    const auto me = static_cast<std::size_t>(c.rank());
    dirty[me] = sc.staging().wb_dirty_bytes();
    pins[me] = sc.staging().cache().pinned_entries();
    seen[me] = 1;
    if (c.rank() != 0) return;
    for (std::size_t i = 0; i < n; ++i) {
      res.res[i] = sc.result(ids[i]);
      res.st[i] = sc.state(ids[i]);
      if (res.st[i] == svc::JobState::done) {
        res.value[i] = sc.output(ids[i]).global_as<float>();
        if (res.res[i].retries > 0) {
          res.recovered_by = std::max(
              res.recovered_by, submitted_at[i] + sc.latency_s(ids[i]));
        }
      }
    }
    res.stats = sc.stats();
  });
  res.elapsed = rt.elapsed();
  res.integ = integrity::stats();
  if (rt.chaos() != nullptr) res.faults = rt.chaos()->stats();
  for (int r = 0; r < kProcs; ++r) {
    if (seen[static_cast<std::size_t>(r)] == 0) continue;
    ++res.survivors;
    res.leaked_dirty += dirty[static_cast<std::size_t>(r)];
    res.leaked_pins += pins[static_cast<std::size_t>(r)];
  }
  return res;
}

int count(const Run& r, svc::JobState st) {
  int n = 0;
  for (auto s : r.st) n += s == st ? 1 : 0;
  return n;
}

void print_json(const char* config, int jobs, const Run& r,
                double overhead) {
  std::printf(
      "RESULT {\"bench\":\"ext_soak\",\"config\":\"%s\",\"jobs\":%d,"
      "\"done\":%d,\"aborted\":%d,\"failed\":%d,\"shed\":%d,"
      "\"recovered\":%llu,\"retries\":%llu,\"slices\":%llu,"
      "\"elapsed_s\":%.9f,\"makespan_overhead\":%.6f,"
      "\"rank_crashes\":%llu,\"replans\":%llu,\"absorbed_chunks\":%llu,"
      "\"msgs_dropped\":%llu,\"straggler_hits\":%llu,"
      "\"svc_retries\":%llu,\"svc_failures\":%llu,\"svc_shed\":%llu,"
      "\"leaked_dirty_bytes\":%llu,\"leaked_pins\":%llu,"
      "\"survivors\":%d,\"integ_detected\":%llu,\"integ_recovered\":%llu,"
      "\"integ_failed\":%llu}\n",
      config, jobs, count(r, svc::JobState::done),
      count(r, svc::JobState::aborted), count(r, svc::JobState::failed),
      count(r, svc::JobState::shed),
      static_cast<unsigned long long>(r.stats.recovered),
      static_cast<unsigned long long>(r.stats.retries),
      static_cast<unsigned long long>(r.stats.slices), r.elapsed, overhead,
      static_cast<unsigned long long>(r.faults.rank_crashes),
      static_cast<unsigned long long>(r.faults.replans),
      static_cast<unsigned long long>(r.faults.absorbed_chunks),
      static_cast<unsigned long long>(r.faults.msgs_dropped),
      static_cast<unsigned long long>(r.faults.straggler_hits),
      static_cast<unsigned long long>(r.faults.svc_retries),
      static_cast<unsigned long long>(r.faults.svc_failures),
      static_cast<unsigned long long>(r.faults.svc_shed),
      static_cast<unsigned long long>(r.leaked_dirty),
      static_cast<unsigned long long>(r.leaked_pins), r.survivors,
      static_cast<unsigned long long>(r.integ.detected),
      static_cast<unsigned long long>(r.integ.recovered),
      static_cast<unsigned long long>(r.integ.failed));
}

}  // namespace

int main(int argc, char** argv) {
  bench::TraceSession trace_session(argc, argv);
  bench::print_header(
      "Extension", "chaos soak of service-level end-to-end recovery",
      "hundreds of jobs vs composed faults: every job ends done "
      "bit-identically, failed-with-reason, or shed — never lost");

  // COLCOM_SOAK_JOBS bounds the horizon for CI's sanitizer stage; the
  // default is the full hundreds-of-jobs soak, multiplied by
  // COLCOM_BENCH_SCALE.  The crash-point choreography (process death at a
  // tuned map, the absorber dying inside its first replan, the role crash
  // landing after the resubmit window) is only guaranteed to line up at the
  // full horizon — shorter runs keep every universal invariant (never lost,
  // bit-identity, structured reasons, zero leaks) but skip the two checks
  // that assert the composed faults fired exactly as scripted.
  const int scale = bench::scale_factor();
  const char* jobs_env = std::getenv("COLCOM_SOAK_JOBS");
  const int kJobs =
      jobs_env != nullptr ? std::max(1, std::atoi(jobs_env)) : 150 * scale;
  const bool full_horizon = kJobs >= 150;
  const int kMaxQueue = kJobs * 4 / 5;
  const auto jobs = make_jobs(kJobs);

  // Fault-free baseline: the ground-truth bits and the makespan reference.
  const Run base = run_soak(jobs, kMaxQueue, /*chaos=*/false, 0);
  // The role crash lands after the resubmit window: at the instant the job
  // the process deaths abort has finished by its resubmit-from-mid. A pilot
  // of the same chaos run without the role crash measures that instant;
  // the soak replays the pilot exactly up to the role crash, so the crash
  // can no longer reroute the death-and-resubmit choreography, however fast
  // the rest of the service runs. A fraction of the fault-free makespan is
  // no such anchor: it moves with every speed-up of the service, park
  // writes for one, and can land ahead of the resubmit. A reduced horizon
  // may never reach the deaths; its role crash lands mid-run.
  const Run pilot = run_soak(jobs, kMaxQueue, /*chaos=*/true, 0);
  const double role_crash_at =
      pilot.recovered_by > 0 ? pilot.recovered_by : 0.5 * pilot.elapsed;
  const Run soak = run_soak(jobs, kMaxQueue, /*chaos=*/true, role_crash_at);
  const double overhead = soak.elapsed / base.elapsed;

  TablePrinter t;
  t.set_header({"config", "total (s)", "done", "failed", "shed", "aborted",
                "recovered", "retries"});
  for (const auto& [name, r] : {std::pair<const char*, const Run&>(
                                    "soak-baseline", base),
                                {"soak-chaos", soak}}) {
    t.add_row({name, format_fixed(r.elapsed, 4),
               std::to_string(count(r, svc::JobState::done)),
               std::to_string(count(r, svc::JobState::failed)),
               std::to_string(count(r, svc::JobState::shed)),
               std::to_string(count(r, svc::JobState::aborted)),
               std::to_string(r.stats.recovered),
               std::to_string(r.stats.retries)});
  }
  t.print(std::cout);
  std::printf("\nrole crash of aggregator rank 2 at t=%.6f s (%s)\n\n",
              role_crash_at,
              pilot.recovered_by > 0 ? "the resubmit window has closed"
                                     : "mid-run: no resubmit in the pilot");
  print_json("soak-baseline", kJobs, base, 1.0);
  print_json("soak-chaos", kJobs, soak, overhead);
  std::printf("\n");

  // --- end-state invariants ---
  int lost = 0, unexplained = 0, compared = 0, diverged = 0;
  for (int i = 0; i < kJobs; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const svc::JobState st = soak.st[idx];
    if (st != svc::JobState::done && st != svc::JobState::aborted &&
        st != svc::JobState::failed && st != svc::JobState::shed) {
      ++lost;
    }
    if ((st == svc::JobState::failed || st == svc::JobState::shed) &&
        soak.res[idx].reason == svc::FailReason::none) {
      ++unexplained;
    }
    if (st == svc::JobState::done && base.st[idx] == svc::JobState::done) {
      ++compared;
      if (std::memcmp(&soak.value[idx], &base.value[idx], sizeof(float)) !=
          0) {
        ++diverged;
      }
    }
  }
  bench::shape_check(lost == 0,
                     "every job reaches a terminal state (never lost)");
  bench::shape_check(
      unexplained == 0,
      "every failed or shed job carries a structured reason");
  bench::shape_check(
      compared > kJobs / 2 && diverged == 0,
      "every job finished under chaos is bit-identical to the baseline");
  if (full_horizon) {
    bench::shape_check(soak.stats.recovered >= 1 && soak.stats.retries >= 1,
                       "at least one job finished via resubmit-from-mid");
  } else {
    std::printf(
        "note: reduced horizon (%d jobs) — recovery-choreography checks "
        "skipped\n",
        kJobs);
  }
  bench::shape_check(
      count(soak, svc::JobState::shed) >= kJobs - kMaxQueue &&
          soak.stats.shed == soak.faults.svc_shed,
      "admission control sheds the burst tail (and accounts for it)");
  // Doomed virtual-time deadlines: under recovery the warm per-iteration
  // estimate sheds them at admission (infeasible); without it they fail at
  // pick (deadline). Either way they end structured and never run a slice.
  int doomed = 0, doomed_ok = 0, doomed_failed_base = 0;
  for (int i = 0; i < kJobs; ++i) {
    if (!jobs[static_cast<std::size_t>(i)].doomed) continue;
    ++doomed;
    const auto idx = static_cast<std::size_t>(i);
    const svc::JobState st = soak.st[idx];
    const svc::FailReason r = soak.res[idx].reason;
    if ((st == svc::JobState::failed && r == svc::FailReason::deadline) ||
        (st == svc::JobState::shed &&
         (r == svc::FailReason::infeasible ||
          r == svc::FailReason::queue_full))) {
      ++doomed_ok;
    }
    if (base.st[idx] == svc::JobState::failed &&
        base.res[idx].reason == svc::FailReason::deadline) {
      ++doomed_failed_base;
    }
  }
  bench::shape_check(
      doomed > 0 && doomed_ok == doomed && doomed_failed_base >= 1,
      "doomed deadlines end deadline-failed or shed, never run to done");
  bench::shape_check(soak.stats.failed == soak.faults.svc_failures,
                     "structured failures and the svc.failures metric agree");
  if (full_horizon) {
    bench::shape_check(soak.faults.rank_crashes >= 2 &&
                           soak.faults.replans >= 1,
                       "the composed process deaths and replans really fired");
  }
  bench::shape_check(
      soak.leaked_dirty == 0 && soak.leaked_pins == 0,
      "no leaked staged extents on any survivor (dirty=0, pins=0)");
  bench::shape_check(base.stats.recovered == 0 && base.faults.rank_crashes == 0,
                     "the baseline really was fault-free");
  // --- integrity accounting ---
  bench::shape_check(
      soak.integ.detected == soak.integ.recovered + soak.integ.failed,
      "every corruption detection is accounted (recovered or failed)");
  bench::shape_check(base.integ.detected == 0,
                     "the fault-free baseline saw zero corruption");
  if (full_horizon) {
    bench::shape_check(
        soak.integ.detected >= 1 && soak.integ.recovered >= 1,
        "the corruption axis really fired and healed under the soak");
  }
  return 0;
}
