// colcom::svc — the multi-tenant analysis service: a query frontend and
// scheduler that admits N concurrent analysis jobs (different variables,
// hyperslabs, kernels, priorities) over the same store inside one DES
// world (cf. Wozniak et al., "Big Data Staging with MPI-IO for Interactive
// X-ray Science": many interactive users sharing staged beam-line data).
//
// The execution model is deterministic cooperative time-slicing. A
// svc::Job wraps the core runtime's partial-window machinery
// (core::RunOptions{begin_iter, end_iter, mid}): each scheduler slice runs
// a bounded number of aggregation iterations of one job and parks its
// accumulator state, so N jobs interleave at chunk granularity while each
// job's floating-point combine order — and therefore its result, bit for
// bit — is exactly that of a solo run. True virtual-time overlap of two
// collectives on one communicator would scramble message matching; slicing
// provides the concurrency without touching the data plane.
//
// All scheduling decisions derive only from data every rank holds
// identically (job specs, plans, iteration counts — never local wtime()),
// so every rank computes the same schedule and the sequential collective
// calls match by per-pair FIFO ordering.
//
// Sharing happens in the staging layer: every job of a ServiceContext runs
// over one shared stage::StagingArea per rank, so a chunk staged by one
// tenant's query is a warm hit for an overlapping query of another tenant
// (stage.cross_query_hits). The scheduler adds admission control on top: at
// most max_concurrent jobs interleave at a time, and overlap-affinity
// admission pulls queued jobs whose byte ranges overlap the running set
// forward so overlapping reads batch in cache-reuse distance.
//
// Fault integration: a tenant-local chaos abort
// (fault::ChaosConfig::svc_abort_*) drops exactly one job between slices —
// no collective is in flight, so every other job proceeds untouched — and
// rank faults inside a slice (role crashes, storage faults) are handled by
// the core runtime's watch/replan machinery with bit-identical recovery.
//
// svc::Recovery (end-to-end): whenever the chaos schedule can kill an
// aggregator role or a process (fault::Injector::watch_aggregators, the
// same check that arms the core runtime's crash watch), a slice attempt
// the runtime cannot heal surfaces as a replicated fault::Error instead of
// an abort or a hang. The service snapshots the job's parked `mid` before
// each attempt, agrees on the attempt's outcome (one extra ft::agree whose
// mask also merges every survivor's clock into the replicated virtual
// clock), rolls back to the snapshot on failure and resubmits on the
// shrunken world with a fresh agreement-epoch block and tag salt —
// resuming at the iteration boundary, bit-identical to an uninterrupted
// run; a fatal verdict (every aggregator dead, a dead root, corruption
// past its budget) fails the job instead. A fault raised on one rank alone,
// such as an aggregator's read past its retries, ends the attempt on every
// rank at the runtime's next agreement, classified by that fault. Per-job
// policy bounds the recovery: a retry budget with exponential backoff,
// virtual-time deadlines (SLOs), and admission-control shedding (queue
// depth + deadline feasibility) turn every exhausted budget into a
// structured JobResult — a job ends done, failed-with-reason, or shed;
// never lost, never hung.
// See docs/SERVICE.md and docs/ROBUSTNESS.md.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/object_io.hpp"
#include "core/runtime.hpp"
#include "mpi/comm.hpp"
#include "ncio/dataset.hpp"
#include "pfs/pfs.hpp"
#include "romio/plan.hpp"
#include "stage/stage.hpp"
#include "util/stats.hpp"

namespace colcom::svc {

/// Scheduling policies behind one interface (ServiceConfig::policy).
enum class Policy {
  fifo,           ///< strict submission order
  priority,       ///< highest JobSpec::priority first; FIFO inside a level
  weighted_fair,  ///< stride scheduling over JobSpec::weight
};

const char* to_string(Policy p);

/// Knobs of one service instance. Every rank of the communicator must
/// construct with identical values — the scheduler state machine runs
/// replicated on all ranks.
struct ServiceConfig {
  Policy policy = Policy::fifo;
  /// Aggregation iterations one scheduler slice runs before the job is
  /// preempted (the quantum, in chunks).
  int slice_iters = 2;
  /// Admission budget: jobs interleaving slices at any moment. Queued jobs
  /// wait — that is the concurrency bound under PFS/network contention.
  int max_concurrent = 4;
  /// When admitting into free budget, prefer queued jobs whose byte range
  /// overlaps an already-admitted job's range, so overlapping queries run
  /// close together and share staged chunks (cache-distance batching).
  /// Never reorders across the completion guarantees of the policy — it
  /// only picks among jobs that are all eligible for admission.
  bool overlap_affinity = true;
  /// Config of the shared per-rank staging area every job runs over.
  stage::StageConfig stage;
  /// Weighted per-tenant cache partitioning: tenant -> relative weight.
  /// Non-empty maps give tenant k a quota of stage.capacity_bytes *
  /// w_k / sum(w) — an inserting tenant over its share evicts its *own*
  /// LRU entries first (stage.quota_evictions), so a scan-heavy tenant
  /// cannot flush another tenant's warm chunks. Tenants absent from the
  /// map are unquota'd (bounded only by total capacity). Identical on
  /// every rank.
  std::map<int, int> tenant_weights;

  // --- robustness policy (svc::Recovery) ---
  /// Default per-job resubmit budget: how many failed slice attempts may
  /// be retried from the parked mid before the job fails with
  /// FailReason::retry_budget. JobSpec::max_retries overrides per job.
  int max_retries = 3;
  /// Exponential backoff between resubmits, in virtual seconds: retry k
  /// waits backoff_base_s * backoff_factor^(k-1) on the replicated clock.
  double backoff_base_s = 0.05;
  double backoff_factor = 2.0;
  /// Overload shedding: > 0 bounds the submit queue depth. A submit that
  /// finds the queue full is shed with FailReason::queue_full *before* the
  /// collective plan build (queue depth is replicated state, so every rank
  /// skips the same collectives) instead of deepening the backlog.
  int max_queue = 0;
  /// Shed queued jobs whose deadline is already infeasible at admission
  /// time by the scheduler's smoothed per-iteration cost estimate, so a
  /// doomed job never consumes slices other tenants could use.
  bool shed_infeasible = true;
  /// Checkpoint persistence of parked mids: when `park` is valid, every
  /// non-closing successful slice persists the job's parked mids into
  /// fixed per-(job, rank) slots of this file at `park_offset`, as one
  /// aggregated write-behind write per slice (one per run of alive ranks
  /// after a shrink). The file must hold jobs * ranks slots; parks are
  /// durable once the writer's staging area is flushed. Slot layout,
  /// writer choice and dead ranks' slots: "Parked mids on disk" in
  /// docs/SERVICE.md.
  pfs::FileId park{};
  std::uint64_t park_offset = 0;
};

using JobId = int;

/// One tenant query. `io` is this rank's share of the hyperslab (like any
/// collective_compute call); every field the scheduler reads — tenant,
/// dataset, priority, weight, name — must be identical on all ranks.
struct JobSpec {
  std::string name;
  int tenant = 0;
  int dataset = 0;  ///< ServiceContext::register_dataset index
  core::ObjectIO io;
  int priority = 0;  ///< larger runs earlier under Policy::priority
  int weight = 1;    ///< relative share under Policy::weighted_fair

  /// Virtual-time SLO: > 0 ends the job with FailReason::deadline when it
  /// cannot finish within this many seconds of submission (measured on the
  /// service's replicated clock, so every rank agrees on the breach).
  double deadline_s = 0;
  /// Per-job retry-budget override; < 0 uses ServiceConfig::max_retries.
  int max_retries = -1;

  /// In-transit input (src/stream/): non-null routes every slice's chunk
  /// reads through this source instead of the PFS/staging paths
  /// (core::RunOptions::source). The source must stay valid for the job's
  /// lifetime; a producer death surfaces as FailReason::producer_failed.
  stage::ChunkSource* source = nullptr;
};

enum class JobState : std::uint8_t {
  queued,
  admitted,
  done,
  aborted,  ///< tenant-local chaos abort (the pre-recovery fault)
  failed,   ///< ended with a structured FailReason (budget/deadline/fatal)
  shed,     ///< rejected by admission control (never ran a slice)
};

/// Why a job ended without an output. Structured so callers distinguish
/// policy exhaustion (retry_budget, deadline), admission control
/// (queue_full, infeasible) and fatal runtime verdicts (root_failed,
/// unrecoverable).
enum class FailReason : std::uint8_t {
  none,          ///< the job finished (or was tenant-aborted)
  retry_budget,  ///< the resubmit budget ran out
  deadline,      ///< the virtual-time SLO fired
  queue_full,    ///< shed at submit: queue depth exceeded max_queue
  infeasible,    ///< shed at admission: deadline unreachable by estimate
  root_failed,   ///< the reduction root's process died (not retryable)
  unrecoverable, ///< no survivor set can finish the plan (not retryable)
  producer_failed, ///< the streaming producer died mid-job (not retryable)
  data_corrupt,  ///< integrity recovery budget exhausted (not retryable)
};

const char* to_string(FailReason r);

/// The structured end state of a job: done, failed-with-reason, or shed —
/// never lost, never hung. `retries` counts slice attempts resubmitted
/// from the parked mid (a finished job with retries > 0 was recovered).
struct JobResult {
  JobState state = JobState::queued;
  bool failed = false;
  FailReason reason = FailReason::none;
  int retries = 0;
};

/// Aggregate service counters, mirrored into svc.* metrics on rank 0.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;   ///< tenant-local chaos aborts
  std::uint64_t slices = 0;    ///< scheduler quanta executed
  std::uint64_t switches = 0;  ///< quanta that changed the running job
  std::uint64_t affinity_admissions = 0;  ///< overlap-preferred admissions
  std::uint64_t failed = 0;     ///< jobs ended with a structured FailReason
  std::uint64_t shed = 0;       ///< jobs rejected by admission control
  std::uint64_t retries = 0;    ///< slice attempts resubmitted from a mid
  std::uint64_t recovered = 0;  ///< jobs that finished after >= 1 resubmit
  /// Submits that found a member dead and re-planned on the shrunken world
  /// (message-free build over Group-replicated access metadata).
  std::uint64_t submit_replans = 0;
};

/// The service frontend. Owns the dataset registry, the shared staging
/// area, the job table and the scheduler; all methods taking part in
/// execution are collective over the construction communicator.
class ServiceContext {
 public:
  /// Collective. The shared staging area is created here and lives as long
  /// as the context, so warm chunks persist across jobs and run_all calls.
  explicit ServiceContext(mpi::Comm& comm, ServiceConfig cfg = {});
  ~ServiceContext();

  ServiceContext(const ServiceContext&) = delete;
  ServiceContext& operator=(const ServiceContext&) = delete;

  /// Registers a dataset and returns its JobSpec::dataset index. Call in
  /// the same order on every rank; the dataset must outlive the context.
  int register_dataset(const ncio::Dataset& ds);

  /// Admits a query into the service (collective: the two-phase plan is
  /// built here, with staging-aware aggregator placement when
  /// spec.io.hints asks for it). The job starts queued; run_all executes.
  JobId submit(JobSpec spec);

  /// Runs the scheduler until every submitted job is done or aborted
  /// (collective). May be called repeatedly: submit more, run again — the
  /// staging cache stays warm in between.
  void run_all();

  // --- results & introspection (valid after run_all) ---

  JobState state(JobId id) const;
  /// The structured end state of any submitted job (valid once terminal).
  JobResult result(JobId id) const;
  /// Reduction output of a finished job — bit-identical to a solo
  /// collective_compute of the same spec over the same plan shape.
  const core::CcOutput& output(JobId id) const;
  /// Accumulated runtime stats over the job's slices.
  const core::CcStats& job_stats(JobId id) const;
  /// Submit-to-finish latency in virtual seconds (this rank's clock).
  double latency_s(JobId id) const;
  int slices_run(JobId id) const;

  const ServiceStats& stats() const { return stats_; }
  stage::StagingArea& staging() { return *staging_; }
  mpi::Comm& comm() { return *comm_; }
  const ServiceConfig& config() const { return cfg_; }

  /// Completion-latency samples of one tenant's finished jobs (empty
  /// SampleStats when the tenant finished nothing). percentile(50/95/99)
  /// gives the per-tenant P50/P95/P99 the benches report.
  SampleStats& tenant_latency(int tenant) { return tenant_lat_[tenant]; }

 private:
  struct Job {
    JobId id = -1;
    JobSpec spec;
    const ncio::Dataset* ds = nullptr;
    romio::TwoPhasePlan plan;
    JobState st = JobState::queued;
    std::vector<std::byte> mid;  ///< parked accumulator state between slices
    /// Pre-attempt snapshot of `mid`: a failed attempt rolls every rank
    /// back to it, so a resubmit resumes exactly at the parked boundary.
    std::vector<std::byte> mid_backup;
    int next_iter = 0;
    int slices = 0;
    std::uint64_t pass = 0;  ///< stride-scheduling virtual time (WFQ)
    int retries = 0;           ///< slice attempts resubmitted so far
    double not_before = 0;     ///< backoff gate on the replicated clock
    double deadline_abs = 0;   ///< replicated absolute SLO; 0 = none
    FailReason reason = FailReason::none;
    core::CcOutput out;
    core::CcStats cc;
    double submitted_s = 0;
    double admitted_s = 0;
    double finished_s = 0;
  };

  const Job& job_at(JobId id) const;
  /// Moves queued jobs into the admitted set while budget remains,
  /// shedding deadline-infeasible ones (cfg_.shed_infeasible).
  void admit();
  /// The next admitted job to run one slice, per policy, among jobs whose
  /// backoff gate has passed. nullptr when every admitted job is backing
  /// off (the scheduler then sleeps to the earliest gate in virtual time).
  Job* pick_next();
  /// True when chaos schedules a tenant-local abort of `j`'s next slice.
  bool chaos_abort(const Job& j);
  void run_slice(Job& j);
  void finish(Job& j, bool aborted);
  /// Ends `j` with a structured failure (budget/deadline/fatal verdict).
  void fail_job(Job& j, FailReason r);
  /// Rejects `j` at admission control (never ran; queue_full/infeasible).
  void shed_job(Job& j, FailReason r);
  /// Agreed-failed attempt: decide retry (backoff) vs structured failure.
  void handle_slice_failure(Job& j, FailReason why, bool retryable);
  /// True when the chaos schedule can kill an aggregator role or a process
  /// (fault::Injector::watch_aggregators): every attempt's outcome is then
  /// agreed, and a failed one is retried or failed with a FailReason.
  bool recovery_active() const;
  /// Merges every rank's clock into agreed_now_ (collective).
  void sync_clock();
  /// Persists `j`'s parked mids (collective over the alive ranks): each
  /// rank sends its length-prefixed mid to the park writer, which stages
  /// the job's slots as one write-behind extent per run of alive ranks.
  void persist_mid(const Job& j);
  /// Completes this rank's in-flight slot send to the park writer, if any.
  void settle_park_send();
  std::uint64_t park_slot_bytes() const;
  /// True on the lowest *alive* rank — the metrics/fault-stats reporter.
  /// Plain rank 0 would lose every svc.* count the moment the root dies,
  /// exactly when the recovery counters matter most.
  bool metrics_owner() const;
  void bump_metric(const char* name, std::uint64_t delta = 1);

  mpi::Comm* comm_;
  ServiceConfig cfg_;
  std::vector<const ncio::Dataset*> datasets_;
  std::unique_ptr<stage::StagingArea> staging_;
  std::vector<std::unique_ptr<Job>> jobs_;  ///< by JobId
  std::deque<JobId> queue_;                 ///< submitted, not yet admitted
  std::vector<JobId> admitted_;             ///< interleaving slice rotation
  std::map<int, SampleStats> tenant_lat_;   ///< finished-job latency samples
  ServiceStats stats_;
  JobId last_run_ = -1;      ///< switch accounting
  bool abort_fired_ = false; ///< the chaos abort strikes at most once

  // --- svc::Recovery state (replicated on every rank) ---
  /// Next free agreement epoch. Every slice attempt under recovery gets a
  /// disjoint epoch block (and the outcome agreement its last epoch), so
  /// no two attempts — original or resubmit — ever share an agreement tag.
  int epoch_cursor_;
  /// Next data-plane tag salt; one per attempt, so stale in-flight
  /// messages of a failed attempt can never match a retry's receives.
  int salt_cursor_ = 1;
  /// The replicated virtual clock: max of all ranks' wtime() at the last
  /// agreement/sync. Every deadline and backoff decision reads this, never
  /// local wtime(), so all ranks schedule identically.
  double agreed_now_ = 0;
  /// Smoothed per-iteration virtual cost (EMA over agreed slice times);
  /// 0 until the first agreed slice. Drives feasibility shedding.
  double ema_iter_s_ = 0;
  bool deadline_mode_ = false;  ///< any submitted job carries an SLO
  /// Death bits (one per world rank) of the last slice-outcome agreement;
  /// empty without recovery, where no rank dies. Parks name their writer
  /// from it, so every rank picks the same one.
  std::vector<std::uint64_t> dead_;

  // --- park traffic (this rank's own) ---
  /// The slot this rank last sent to the park writer. It must stay
  /// untouched until park_send_ completes, at the next park or at the end
  /// of run_all.
  std::vector<std::byte> park_out_;
  mpi::Request park_send_;
};

/// Single-query convenience: a one-job service — submit, drain, return the
/// stats. Shows the wrapper relationship the refactor keeps: a solo
/// core::collective_compute and a one-tenant service run the same
/// plan-based kernel (collective_compute_with_plan) and produce
/// bit-identical output.
core::CcStats run_query(mpi::Comm& comm, const ncio::Dataset& ds,
                        const core::ObjectIO& io, core::CcOutput& out,
                        ServiceConfig cfg = {});

}  // namespace colcom::svc
