#include "svc/svc.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "des/completion.hpp"
#include "fault/chaos.hpp"
#include "mpi/ft.hpp"
#include "mpi/runtime.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace colcom::svc {

namespace {

/// CHK-REP: the service scheduler is replicated — every rank must compute
/// the identical decision from the same admitted-job state. Digest the
/// decision's fields and hand them to the checker's per-kind stream.
void audit_decision(int rank, const char* kind,
                    std::initializer_list<std::pair<const char*, long long>>
                        fields) {
  check::Checker* ck = check::Checker::current();
  if (ck == nullptr) return;
  std::vector<std::uint64_t> words;
  std::string desc;
  for (const auto& [k, v] : fields) {
    words.push_back(static_cast<std::uint64_t>(v));
    if (!desc.empty()) desc += ' ';
    desc += k;
    desc += '=';
    desc += std::to_string(v);
  }
  ck->on_decision(rank, kind,
                  check::checksum(std::as_bytes(std::span(words))), desc);
}

/// Stride-scheduling scale: pass advances by slice_cost * kPassScale /
/// weight, so integer division keeps useful resolution for weights well
/// beyond any realistic tenant count.
constexpr std::uint64_t kPassScale = 1ull << 16;

/// Parked-mid slots travel to the park writer under this tag.
constexpr int kParkTag = -2700;

[[maybe_unused]] const bool kTagsRegistered = [] {
  check::register_tag(kParkTag, "svc.park");
  return true;
}();

/// Base of the service's agreement-epoch space. A run with epoch_base 0
/// uses tiny epochs (up to 2 * n_iters + 2) and stage flush groups live at
/// (1 << 20) + seq, so starting the per-attempt blocks here keeps every
/// agreement and survivor-group tag namespace disjoint.
constexpr int kSvcEpochBase = 1 << 22;

/// Outcome-agreement word 0: the attempt's verdict, OR-merged over ranks.
constexpr std::uint64_t kOutcomeFailed = 1;        ///< some rank failed
constexpr std::uint64_t kOutcomeNonRetryable = 2;  ///< ... fatally
constexpr std::uint64_t kOutcomeRootDead = 4;      ///< root_failed verdict
constexpr std::uint64_t kOutcomeUnrecoverable = 8; ///< unrecoverable verdict
constexpr std::uint64_t kOutcomeProducerDead = 16; ///< stream producer died
constexpr std::uint64_t kOutcomeDataCorrupt = 32;  ///< integrity gave up

std::uint64_t to_nanos(double s) {
  return static_cast<std::uint64_t>(s * 1e9);
}

/// Latency histogram buckets (virtual seconds) of the per-tenant
/// svc.latency_s.tenant<k> metrics.
std::vector<double> latency_bounds() {
  return {0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64};
}

void accumulate(core::CcStats& into, const core::CcStats& s) {
  into.plan_s += s.plan_s;
  into.io_s += s.io_s;
  into.map_s += s.map_s;
  into.construct_s += s.construct_s;
  into.shuffle_s += s.shuffle_s;
  into.reduce_s += s.reduce_s;
  into.total_s += s.total_s;
  into.bytes_read += s.bytes_read;
  into.shuffle_bytes += s.shuffle_bytes;
  into.metadata_bytes += s.metadata_bytes;
  into.partial_count += s.partial_count;
  into.logical_runs += s.logical_runs;
  // `elements` describes the rank's subset, not work done — identical every
  // slice, so keep the last value instead of summing.
  into.elements = s.elements;
  into.chunks_verified += s.chunks_verified;
  into.verify_rereads += s.verify_rereads;
  into.replans += s.replans;
  into.absorbed_chunks += s.absorbed_chunks;
  into.io_fallbacks += s.io_fallbacks;
  into.warm_chunks += s.warm_chunks;
}

}  // namespace

const char* to_string(Policy p) {
  switch (p) {
    case Policy::fifo: return "fifo";
    case Policy::priority: return "priority";
    case Policy::weighted_fair: return "weighted_fair";
  }
  return "?";
}

const char* to_string(FailReason r) {
  switch (r) {
    case FailReason::none: return "none";
    case FailReason::retry_budget: return "retry_budget";
    case FailReason::deadline: return "deadline";
    case FailReason::queue_full: return "queue_full";
    case FailReason::infeasible: return "infeasible";
    case FailReason::root_failed: return "root_failed";
    case FailReason::unrecoverable: return "unrecoverable";
    case FailReason::producer_failed: return "producer_failed";
    case FailReason::data_corrupt: return "data_corrupt";
  }
  return "?";
}

ServiceContext::ServiceContext(mpi::Comm& comm, ServiceConfig cfg)
    : comm_(&comm), cfg_(std::move(cfg)), epoch_cursor_(kSvcEpochBase) {
  COLCOM_EXPECT(cfg_.slice_iters >= 1);
  COLCOM_EXPECT(cfg_.max_concurrent >= 1);
  COLCOM_EXPECT(cfg_.max_retries >= 0);
  COLCOM_EXPECT(cfg_.backoff_base_s >= 0 && cfg_.backoff_factor >= 1);
  COLCOM_EXPECT(cfg_.max_queue >= 0);
  staging_ = std::make_unique<stage::StagingArea>(comm, cfg_.stage);
  if (!cfg_.tenant_weights.empty()) {
    // Weighted cache partitioning: tenant k's quota is its share of the
    // capacity by weight. Weights are replicated config, so every rank
    // derives identical quotas.
    std::uint64_t total = 0;
    for (const auto& [tenant, w] : cfg_.tenant_weights) {
      COLCOM_EXPECT(w >= 1);
      total += static_cast<std::uint64_t>(w);
    }
    for (const auto& [tenant, w] : cfg_.tenant_weights) {
      staging_->set_tenant_quota(
          tenant, cfg_.stage.capacity_bytes *
                      static_cast<std::uint64_t>(w) / total);
    }
  }
}

ServiceContext::~ServiceContext() = default;

int ServiceContext::register_dataset(const ncio::Dataset& ds) {
  datasets_.push_back(&ds);
  return static_cast<int>(datasets_.size()) - 1;
}

bool ServiceContext::metrics_owner() const {
  for (int r = 0; r < comm_->size(); ++r) {
    if (comm_->alive(r)) return comm_->rank() == r;
  }
  return false;
}

void ServiceContext::bump_metric(const char* name, std::uint64_t delta) {
  // The metrics registry is process-global across the world's fibers; the
  // lowest alive rank reports for everyone (the scheduler state is
  // replicated anyway).
  if (!metrics_owner()) return;
  if (trace::Tracer* tr = trace::Tracer::current(); tr != nullptr) {
    tr->metrics().counter(name).add(delta);
  }
}

JobId ServiceContext::submit(JobSpec spec) {
  COLCOM_EXPECT(spec.io.op.valid());
  COLCOM_EXPECT_MSG(!spec.io.blocking && spec.io.collective,
                    "the service schedules collective-computing jobs");
  COLCOM_EXPECT(spec.weight >= 1);
  COLCOM_EXPECT(spec.dataset >= 0 &&
                spec.dataset < static_cast<int>(datasets_.size()));
  auto j = std::make_unique<Job>();
  j->id = static_cast<JobId>(jobs_.size());
  j->ds = datasets_[static_cast<std::size_t>(spec.dataset)];
  j->submitted_s = comm_->wtime();

  if (cfg_.max_queue > 0 &&
      static_cast<int>(queue_.size()) >= cfg_.max_queue) {
    // Admission control, queue-depth check: shed *before* the collective
    // plan build. Queue depth is replicated scheduler state, so every rank
    // skips the same collectives and the burst degrades into structured
    // queue_full rejections instead of an unbounded backlog.
    j->spec = std::move(spec);
    const JobId id = j->id;
    shed_job(*j, FailReason::queue_full);
    jobs_.push_back(std::move(j));
    ++stats_.submitted;
    bump_metric("svc.jobs_submitted");
    return id;
  }

  if (recovery_active()) {
    // A process death during submit's collective plan exchange must end as
    // a structured outcome, never a hang: the crash point kills the doomed
    // rank *before* any collective, and one agreement replicates the death
    // registry so every survivor takes the same branch. build_plan's
    // offset-list exchange is not death-aware — with a dead member the
    // survivors would fail at scattered points (or wait on sends nobody
    // posts), so a submit that finds any member dead fails the job
    // structurally on every rank instead of entering the exchange.
    mpi::ft::crash_point(*comm_, fault::Phase::submit);
    std::vector<std::uint64_t> m(1, 0);
    const mpi::ft::Verdict v = mpi::ft::agree(*comm_, m, epoch_cursor_++);
    bool any_dead = false;
    for (int r = 0; r < comm_->size(); ++r) {
      if (v.dead_bit(r)) any_dead = true;
    }
    if (any_dead) {
      // Re-plan on the shrunken world instead of failing the job: the
      // verdict names the same survivor set on every rank, so the survivors
      // replicate their access metadata over a death-aware Group (flat
      // bcasts only touch agreed-alive members) and build the plan locally
      // from it — build_plan's offset-list exchange is not death-aware and
      // is never entered. Staging-aware placement is skipped on this path
      // (its residency allgather is a full-world collective); the replanned
      // job just takes the spaced default placement over the survivors.
      std::vector<int> survivors;
      for (int r = 0; r < comm_->size(); ++r) {
        if (!v.dead_bit(r)) survivors.push_back(static_cast<int>(r));
      }
      const ncio::Dataset& sds = *j->ds;
      const auto sreq =
          sds.slab_request(spec.io.var, spec.io.start, spec.io.count);
      const romio::Hints shints = core::detail::cc_hints(
          spec.io, mpi::prim_size(sds.info(spec.io.var).prim));
      mpi::ft::Group g(*comm_, survivors, epoch_cursor_++);
      std::vector<std::byte> wire = sreq.serialize();
      std::vector<romio::FlatRequest> all(
          static_cast<std::size_t>(comm_->size()));
      for (int i = 0; i < g.size(); ++i) {
        std::uint64_t len = wire.size();
        g.bcast(std::span<std::byte>(reinterpret_cast<std::byte*>(&len),
                                     sizeof(len)),
                i);
        std::vector<std::byte> buf = (g.index() == i)
                                         ? wire
                                         : std::vector<std::byte>(len);
        if (len > 0) g.bcast(buf, i);
        all[static_cast<std::size_t>(g.members()[static_cast<std::size_t>(
            i)])] = romio::FlatRequest::deserialize(buf);
      }
      const double rt0 = comm_->wtime();
      j->plan = romio::build_plan_local(all, survivors, comm_->rank(),
                                        comm_->runtime().n_nodes(), shints);
      j->cc.plan_s = comm_->wtime() - rt0;
      j->spec = std::move(spec);
      if (j->spec.deadline_s > 0) {
        deadline_mode_ = true;
        sync_clock();
        j->deadline_abs = agreed_now_ + j->spec.deadline_s;
      }
      const JobId id = j->id;
      queue_.push_back(id);
      jobs_.push_back(std::move(j));
      ++stats_.submitted;
      ++stats_.submit_replans;
      bump_metric("svc.jobs_submitted");
      bump_metric("svc.submit_replans");
      audit_decision(comm_->rank(), "svc.submit_replan",
                     {{"job", id},
                      {"alive", static_cast<long long>(survivors.size())}});
      return id;
    }
  }

  // Build the job's plan now (collective): scheduling and overlap-affinity
  // admission need the globally agreed byte range, and staging-aware
  // placement wants the residency the shared area has *at submit time*.
  const ncio::Dataset& ds = *j->ds;
  const auto req = ds.slab_request(spec.io.var, spec.io.start, spec.io.count);
  const romio::Hints hints =
      core::detail::cc_hints(spec.io, mpi::prim_size(ds.info(spec.io.var).prim));
  const double t0 = comm_->wtime();
  j->plan = romio::build_plan(*comm_, req, hints,
                              staging_->residency_bytes(ds.file()));
  j->cc.plan_s = comm_->wtime() - t0;

  j->spec = std::move(spec);
  if (j->spec.deadline_s > 0) {
    // Stamp the SLO on the replicated clock: every rank agrees on the
    // absolute deadline, so a breach is detected identically everywhere.
    deadline_mode_ = true;
    sync_clock();
    j->deadline_abs = agreed_now_ + j->spec.deadline_s;
  }
  const JobId id = j->id;
  queue_.push_back(id);
  jobs_.push_back(std::move(j));
  ++stats_.submitted;
  bump_metric("svc.jobs_submitted");
  if (trace::Tracer* tr = trace::Tracer::current(); tr != nullptr) {
    tr->instant(trace::Track::ranks, comm_->rank(), "svc", "svc.submit",
                comm_->wtime());
  }
  return id;
}

void ServiceContext::admit() {
  while (static_cast<int>(admitted_.size()) < cfg_.max_concurrent &&
         !queue_.empty()) {
    std::size_t take = 0;  // FIFO default: the oldest queued job
    if (cfg_.overlap_affinity && !admitted_.empty()) {
      // Prefer the oldest queued job whose byte range overlaps a job
      // already in the rotation: overlapping queries admitted together
      // share staged chunks while they are still resident. Ranges come
      // from the collectively built plans, so every rank picks the same
      // job.
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Job& cand = *jobs_[static_cast<std::size_t>(queue_[i])];
        const bool overlaps = std::any_of(
            admitted_.begin(), admitted_.end(), [&](JobId a) {
              const Job& run = *jobs_[static_cast<std::size_t>(a)];
              return cand.spec.dataset == run.spec.dataset &&
                     cand.plan.gmin < run.plan.gmax &&
                     run.plan.gmin < cand.plan.gmax;
            });
        if (overlaps) {
          take = i;
          break;
        }
      }
      if (take != 0) {
        ++stats_.affinity_admissions;
        bump_metric("svc.affinity_admissions");
      }
    }
    const JobId id = queue_[take];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(take));
    Job& j = *jobs_[static_cast<std::size_t>(id)];
    if (cfg_.shed_infeasible && j.deadline_abs > 0 && ema_iter_s_ > 0) {
      // Admission control, feasibility check: by the smoothed per-iteration
      // cost, can this job still make its deadline? A doomed job is shed
      // here instead of burning slices every other tenant could use. All
      // inputs (estimate, clock, deadline) are replicated, so every rank
      // sheds the same jobs.
      const double est =
          ema_iter_s_ * static_cast<double>(j.plan.n_iters - j.next_iter);
      if (agreed_now_ + est > j.deadline_abs) {
        shed_job(j, FailReason::infeasible);
        continue;
      }
    }
    j.st = JobState::admitted;
    j.admitted_s = comm_->wtime();
    // A job entering the WFQ rotation starts at the minimum pass of the
    // running set so it cannot starve nor monopolize.
    std::uint64_t floor_pass = 0;
    bool first = true;
    for (JobId a : admitted_) {
      const Job& run = *jobs_[static_cast<std::size_t>(a)];
      floor_pass = first ? run.pass : std::min(floor_pass, run.pass);
      first = false;
    }
    j.pass = floor_pass;
    admitted_.push_back(id);
    bump_metric("svc.admissions");
  }
}

ServiceContext::Job* ServiceContext::pick_next() {
  COLCOM_EXPECT(!admitted_.empty());
  JobId best = -1;
  for (JobId id : admitted_) {
    const Job& j = *jobs_[static_cast<std::size_t>(id)];
    // A job backing off after a failed attempt is not schedulable until
    // the replicated clock passes its gate.
    if (j.not_before > agreed_now_) continue;
    if (best < 0) {
      best = id;
      continue;
    }
    const Job& b = *jobs_[static_cast<std::size_t>(best)];
    switch (cfg_.policy) {
      case Policy::fifo:
        if (id < best) best = id;
        break;
      case Policy::priority:
        if (j.spec.priority > b.spec.priority ||
            (j.spec.priority == b.spec.priority && id < best)) {
          best = id;
        }
        break;
      case Policy::weighted_fair:
        if (j.pass < b.pass || (j.pass == b.pass && id < best)) best = id;
        break;
    }
  }
  return best < 0 ? nullptr : jobs_[static_cast<std::size_t>(best)].get();
}

bool ServiceContext::chaos_abort(const Job& j) {
  if (abort_fired_) return false;
  fault::Injector* fi = comm_->runtime().chaos();
  if (fi == nullptr) return false;
  return fi->schedule().config().svc_abort_slice > 0 &&
         fi->schedule().svc_abort_at(j.spec.tenant, j.slices + 1);
}

void ServiceContext::finish(Job& j, bool aborted) {
  j.st = aborted ? JobState::aborted : JobState::done;
  j.finished_s = comm_->wtime();
  j.mid.clear();
  j.mid_backup.clear();
  std::erase(admitted_, j.id);
  if (aborted) {
    ++stats_.aborted;
    bump_metric("svc.jobs_aborted");
    if (fault::Injector* fi = comm_->runtime().chaos();
        fi != nullptr && metrics_owner()) {
      fi->note_job_abort();
    }
    return;
  }
  ++stats_.completed;
  bump_metric("svc.jobs_completed");
  if (j.retries > 0) {
    // The job finished after at least one resubmit-from-mid: end-to-end
    // recovery succeeded.
    ++stats_.recovered;
    bump_metric("svc.jobs_recovered");
  }
  const double lat = j.finished_s - j.submitted_s;
  tenant_lat_[j.spec.tenant].add(lat);
  if (trace::Tracer* tr = trace::Tracer::current();
      tr != nullptr && metrics_owner()) {
    tr->metrics()
        .histogram("svc.latency_s.tenant" + std::to_string(j.spec.tenant),
                   latency_bounds())
        .observe(lat);
  }
}

bool ServiceContext::recovery_active() const {
  fault::Injector* fi = comm_->runtime().chaos();
  return fi != nullptr && fi->watch_aggregators();
}

void ServiceContext::sync_clock() {
  // Merge every rank's virtual clock into the replicated agreed_now_.
  // Collective; monotone (the clock never moves backwards). Under
  // recovery the agreement protocol stands in for the allreduce so a dead
  // rank cannot hang the sync.
  const int nprocs = comm_->size();
  if (recovery_active()) {
    std::vector<std::uint64_t> m(static_cast<std::size_t>(nprocs), 0);
    m[static_cast<std::size_t>(comm_->rank())] = to_nanos(comm_->wtime());
    const mpi::ft::Verdict v = mpi::ft::agree(*comm_, m, epoch_cursor_++);
    for (std::uint64_t w : v.mask) {
      agreed_now_ = std::max(agreed_now_, static_cast<double>(w) * 1e-9);
    }
    return;
  }
  const double mine = comm_->wtime();
  double now = 0;
  comm_->allreduce(&mine, &now, 1, mpi::Prim::f64, mpi::Op::max());
  agreed_now_ = std::max(agreed_now_, now);
}

std::uint64_t ServiceContext::park_slot_bytes() const {
  // encode_mid: a 3-word header plus (on an all_to_one root) three words
  // per rank, length-prefixed in the slot; rounded to a 64-byte boundary.
  const std::uint64_t worst =
      8 + 24 + 24 * static_cast<std::uint64_t>(comm_->size());
  return (worst + 63) / 64 * 64;
}

void ServiceContext::settle_park_send() {
  if (!park_send_.valid()) return;
  try {
    park_send_.wait();
  } catch (const fault::Error&) {
    // The wire ate the slot past its retransmit budget; the writer skipped
    // it and the slot keeps its earlier bytes. The in-memory mid, not the
    // park, drives recovery, so a lost durability copy fails nothing — it
    // only shows in the trace.
    if (trace::Tracer* tr = trace::Tracer::current(); tr != nullptr) {
      tr->instant(trace::Track::ranks, comm_->rank(), "svc",
                  "svc.park_slot_lost", comm_->wtime());
    }
  }
  park_send_ = mpi::Request{};
}

void ServiceContext::persist_mid(const Job& j) {
  // Checkpoint persistence with the two-phase idea applied to the park:
  // one writer gathers every alive rank's length-prefixed mid into a
  // zeroed image of the job's slots and stages it through write-behind as
  // one extent, so a slice costs one PFS request instead of one small
  // request per rank. The writer is the highest rank alive by the last
  // outcome agreement — replicated state, so every rank names the same
  // one. Default placement takes the first rank of each node as an
  // aggregator and rank 0 as the all_to_one root, so unless every rank
  // aggregates the writer's receives stay off the next slice's critical
  // path. Non-writers do not wait for their send here.
  const std::uint64_t cap = park_slot_bytes();
  const std::uint64_t len = j.mid.size();
  COLCOM_EXPECT_MSG(8 + len <= cap, "parked mid exceeds its park-file slot");
  const int nprocs = comm_->size();
  const auto dead = [this](int r) {
    const auto w = static_cast<std::size_t>(r) / 64;
    return w < dead_.size() && ((dead_[w] >> (r % 64)) & 1u) != 0;
  };
  int writer = nprocs - 1;
  while (dead(writer)) --writer;
  audit_decision(comm_->rank(), "svc.park",
                 {{"job", j.id}, {"writer", writer}});
  bump_metric("svc.mid_parks");
  const auto pack = [&](std::byte* dst) {
    std::memcpy(dst, &len, sizeof(len));
    std::memcpy(dst + 8, j.mid.data(), len);
  };
  settle_park_send();
  if (comm_->rank() != writer) {
    park_out_.resize(8 + len);
    pack(park_out_.data());
    park_send_ = comm_->isend(writer, kParkTag, park_out_);
    return;
  }
  const auto slot = [cap](int r) { return static_cast<std::size_t>(r) * cap; };
  std::vector<std::byte> img(slot(nprocs), std::byte{0});
  pack(img.data() + slot(writer));
  std::vector<char> have(static_cast<std::size_t>(nprocs), 0);
  have[static_cast<std::size_t>(writer)] = 1;
  for (int r = 0; r < writer; ++r) {
    if (dead(r)) continue;
    try {
      comm_->recv_ft(r, kParkTag, std::span(img.data() + slot(r), cap));
    } catch (const fault::Error&) {
      continue;  // died since the agreement, or its slot was lost on the wire
    }
    have[static_cast<std::size_t>(r)] = 1;
  }
  // One extent per run of slots that arrived; every other slot keeps what
  // its rank last parked.
  const std::uint64_t base =
      cfg_.park_offset + static_cast<std::uint64_t>(j.id) * slot(nprocs);
  for (int a = 0; a < nprocs;) {
    int b = a;
    while (b < nprocs && have[static_cast<std::size_t>(b)] != 0) ++b;
    if (b > a) {
      staging_->wb_write(cfg_.park, base + slot(a),
                         std::span(img.data() + slot(a), slot(b) - slot(a)));
    }
    a = b + 1;
  }
}

void ServiceContext::fail_job(Job& j, FailReason r) {
  j.st = JobState::failed;
  j.reason = r;
  j.finished_s = comm_->wtime();
  j.mid.clear();
  j.mid_backup.clear();
  std::erase(admitted_, j.id);
  ++stats_.failed;
  bump_metric("svc.jobs_failed");
  if (fault::Injector* fi = comm_->runtime().chaos();
      fi != nullptr && metrics_owner()) {
    fi->note_svc_failure();
  }
}

void ServiceContext::shed_job(Job& j, FailReason r) {
  j.st = JobState::shed;
  j.reason = r;
  j.finished_s = comm_->wtime();
  ++stats_.shed;
  bump_metric("svc.shed_jobs");
  if (fault::Injector* fi = comm_->runtime().chaos();
      fi != nullptr && metrics_owner()) {
    fi->note_svc_shed();
  }
}

void ServiceContext::handle_slice_failure(Job& j, FailReason why,
                                          bool retryable) {
  if (!retryable) {
    fail_job(j, why);
    return;
  }
  const int budget =
      j.spec.max_retries >= 0 ? j.spec.max_retries : cfg_.max_retries;
  if (j.retries >= budget) {
    fail_job(j, FailReason::retry_budget);
    return;
  }
  ++j.retries;
  ++stats_.retries;
  bump_metric("svc.retries");
  if (fault::Injector* fi = comm_->runtime().chaos();
      fi != nullptr && metrics_owner()) {
    fi->note_svc_retry();
  }
  // Exponential backoff on the replicated clock: the resubmit is gated,
  // not slept — other tenants' jobs keep running in between.
  double backoff = cfg_.backoff_base_s;
  for (int k = 1; k < j.retries; ++k) backoff *= cfg_.backoff_factor;
  j.not_before = agreed_now_ + backoff;
  if (j.deadline_abs > 0 && j.not_before > j.deadline_abs) {
    // The deadline fires mid-retry: the backoff alone would push the next
    // attempt past the SLO, so fail now instead of burning the attempt.
    fail_job(j, FailReason::deadline);
  }
}

void ServiceContext::run_slice(Job& j) {
  // The shared area attributes this slice's cache traffic to the tenant:
  // hits on chunks another tenant staged count as cross-query sharing.
  staging_->set_tenant(j.spec.tenant);
  core::RunOptions ropt;
  ropt.staging = staging_.get();
  ropt.source = j.spec.source;
  ropt.begin_iter = j.next_iter;
  const int upto = std::min(j.next_iter + cfg_.slice_iters, j.plan.n_iters);
  ropt.end_iter = upto;
  ropt.mid = &j.mid;
  const bool rec = recovery_active();
  int outcome_epoch = 0;
  if (rec) {
    // Every attempt — first or resubmitted — gets a disjoint agreement-
    // epoch block and a fresh data-plane tag salt, so nothing of a failed
    // attempt (stale messages, stale agreements) can ever match a retry.
    ropt.epoch_base = epoch_cursor_;
    ropt.tag_salt = salt_cursor_++;
    const int span = 2 * j.plan.n_iters + 8;
    outcome_epoch = epoch_cursor_ + span - 1;
    epoch_cursor_ += span;
    audit_decision(comm_->rank(), "svc.alloc",
                   {{"job", j.id},
                    {"epoch_base", ropt.epoch_base},
                    {"tag_salt", ropt.tag_salt},
                    {"span", span},
                    {"outcome_epoch", outcome_epoch}});
    j.mid_backup = j.mid;
  }
  core::CcOutput out;
  core::CcStats s;
  bool local_fail = false;
  bool retryable = true;
  FailReason why = FailReason::none;
  if (!rec) {
    s = core::collective_compute_with_plan(*comm_, *j.ds, j.spec.io, j.plan,
                                           out, ropt);
  } else {
    try {
      s = core::collective_compute_with_plan(*comm_, *j.ds, j.spec.io,
                                             j.plan, out, ropt);
    } catch (const fault::Error& e) {
      local_fail = true;
      switch (e.kind()) {
        case fault::Kind::root_failed:
          why = FailReason::root_failed;
          retryable = false;
          break;
        case fault::Kind::unrecoverable:
          why = FailReason::unrecoverable;
          retryable = false;
          break;
        case fault::Kind::producer_failed:
          // The in-transit producer died: its unpublished steps are gone
          // for good, so no resubmit can ever finish this job.
          why = FailReason::producer_failed;
          retryable = false;
          break;
        case fault::Kind::data_corrupt:
          // The integrity layer exhausted its recovery budget: the bytes
          // are gone at every custody stage, so a resubmit would re-read
          // the same corrupt extents. Surface, never retry.
          why = FailReason::data_corrupt;
          retryable = false;
          break;
        default:
          // slice_aborted (and any other recoverable fault): resubmit.
          break;
      }
    }
    // Outcome agreement: the attempt's last epoch replicates the verdict
    // (word 0, OR of every rank's flags) and merges every survivor's clock
    // (one single-owner word per rank), so the retry/deadline decisions
    // below run on identical state everywhere — a rank that unwound early
    // and one that finished the partial slice reach the same conclusion.
    std::vector<std::uint64_t> m(
        1 + static_cast<std::size_t>(comm_->size()), 0);
    if (local_fail) {
      m[0] |= kOutcomeFailed;
      if (!retryable) m[0] |= kOutcomeNonRetryable;
      if (why == FailReason::root_failed) m[0] |= kOutcomeRootDead;
      if (why == FailReason::unrecoverable) m[0] |= kOutcomeUnrecoverable;
      if (why == FailReason::producer_failed) m[0] |= kOutcomeProducerDead;
      if (why == FailReason::data_corrupt) m[0] |= kOutcomeDataCorrupt;
    }
    m[1 + static_cast<std::size_t>(comm_->rank())] = to_nanos(comm_->wtime());
    const mpi::ft::Verdict v = mpi::ft::agree(*comm_, m, outcome_epoch);
    dead_ = v.dead;
    const double prev_now = agreed_now_;
    for (std::size_t r = 1; r < v.mask.size(); ++r) {
      agreed_now_ =
          std::max(agreed_now_, static_cast<double>(v.mask[r]) * 1e-9);
    }
    if ((v.mask[0] & kOutcomeFailed) != 0) {
      // The attempt failed somewhere. Roll every rank back to the parked
      // mid — ranks that completed the partial slice discard their park,
      // ranks that unwound never wrote one — and decide the job's fate
      // from the agreed verdict bits.
      retryable = (v.mask[0] & kOutcomeNonRetryable) == 0;
      why = FailReason::retry_budget;  // refined below / by the budget
      if ((v.mask[0] & kOutcomeRootDead) != 0) {
        why = FailReason::root_failed;
      } else if ((v.mask[0] & kOutcomeUnrecoverable) != 0) {
        why = FailReason::unrecoverable;
      } else if ((v.mask[0] & kOutcomeProducerDead) != 0) {
        why = FailReason::producer_failed;
      } else if ((v.mask[0] & kOutcomeDataCorrupt) != 0) {
        why = FailReason::data_corrupt;
      }
      j.mid = j.mid_backup;
      handle_slice_failure(j, why, retryable);
      return;
    }
    // Agreed success: refresh the per-iteration cost estimate feeding
    // admission-control feasibility (exactly one slice ran since the last
    // outcome agreement — the scheduler is sequential).
    const double slice_s = agreed_now_ - prev_now;
    const int iters = upto - ropt.begin_iter;
    if (prev_now > 0 && slice_s > 0 && iters > 0) {
      const double per_iter = slice_s / static_cast<double>(iters);
      ema_iter_s_ =
          ema_iter_s_ <= 0 ? per_iter : 0.5 * ema_iter_s_ + 0.5 * per_iter;
    }
  }
  accumulate(j.cc, s);
  j.next_iter = upto;
  ++j.slices;
  ++stats_.slices;
  bump_metric("svc.slices");
  if (upto >= j.plan.n_iters) {
    // The closing slice ran the final reduce; this is the job's output.
    j.out = out;
    finish(j, /*aborted=*/false);
  } else {
    if (cfg_.park.valid()) persist_mid(j);
    if (cfg_.policy == Policy::weighted_fair) {
      const auto cost = static_cast<std::uint64_t>(upto - ropt.begin_iter);
      j.pass += std::max<std::uint64_t>(cost, 1) * kPassScale /
                static_cast<std::uint64_t>(j.spec.weight);
    }
  }
}

void ServiceContext::run_all() {
  while (!queue_.empty() || !admitted_.empty()) {
    if (deadline_mode_ && !recovery_active()) {
      // Without per-slice outcome agreements the replicated clock only
      // advances here; keep it fresh so deadlines fire promptly.
      sync_clock();
    }
    admit();
    if (admitted_.empty()) continue;  // everything queued was shed
    Job* j = pick_next();
    if (j == nullptr) {
      // Every admitted job is backing off. Sleep the whole service to the
      // earliest retry gate in virtual time — the target is replicated, so
      // every rank wakes into the same schedule.
      double target = 0;
      bool first = true;
      for (JobId id : admitted_) {
        const Job& a = *jobs_[static_cast<std::size_t>(id)];
        target = first ? a.not_before : std::min(target, a.not_before);
        first = false;
      }
      if (target > comm_->wtime()) {
        des::Completion::at(comm_->engine(), target).wait();
      }
      agreed_now_ = std::max(agreed_now_, target);
      continue;
    }
    if (j->deadline_abs > 0 && agreed_now_ > j->deadline_abs) {
      // SLO breach: the budgeted time is gone — structured failure, and
      // the remaining slices go to tenants that can still make theirs.
      fail_job(*j, FailReason::deadline);
      continue;
    }
    if (chaos_abort(*j)) {
      // Tenant-local fault: the job dies between slices, where no
      // collective is in flight — every rank agrees (the schedule is pure
      // seeded data), so the remaining jobs' collective sequences stay
      // aligned and nobody else even stalls.
      abort_fired_ = true;
      finish(*j, /*aborted=*/true);
      continue;
    }
    if (j->id != last_run_) {
      if (last_run_ >= 0) ++stats_.switches;
      last_run_ = j->id;
    }
    audit_decision(comm_->rank(), "svc.pick",
                   {{"job", j->id},
                    {"tenant", j->spec.tenant},
                    {"iter", j->next_iter},
                    {"slice", j->slices + 1}});
    run_slice(*j);
  }
  settle_park_send();
}

JobState ServiceContext::state(JobId id) const { return job_at(id).st; }

JobResult ServiceContext::result(JobId id) const {
  const Job& j = job_at(id);
  JobResult r;
  r.state = j.st;
  r.failed = j.st == JobState::failed || j.st == JobState::shed;
  r.reason = j.reason;
  r.retries = j.retries;
  return r;
}

const core::CcOutput& ServiceContext::output(JobId id) const {
  const Job& j = job_at(id);
  COLCOM_EXPECT_MSG(j.st == JobState::done, "output of an unfinished job");
  return j.out;
}

const core::CcStats& ServiceContext::job_stats(JobId id) const {
  return job_at(id).cc;
}

double ServiceContext::latency_s(JobId id) const {
  const Job& j = job_at(id);
  COLCOM_EXPECT(j.st != JobState::queued && j.st != JobState::admitted);
  return j.finished_s - j.submitted_s;
}

int ServiceContext::slices_run(JobId id) const { return job_at(id).slices; }

const ServiceContext::Job& ServiceContext::job_at(JobId id) const {
  COLCOM_EXPECT(id >= 0 && id < static_cast<JobId>(jobs_.size()));
  return *jobs_[static_cast<std::size_t>(id)];
}

core::CcStats run_query(mpi::Comm& comm, const ncio::Dataset& ds,
                        const core::ObjectIO& io, core::CcOutput& out,
                        ServiceConfig cfg) {
  ServiceContext ctx(comm, std::move(cfg));
  JobSpec spec;
  spec.name = "query";
  spec.dataset = ctx.register_dataset(ds);
  spec.io = io;
  const JobId id = ctx.submit(std::move(spec));
  ctx.run_all();
  out = ctx.output(id);
  return ctx.job_stats(id);
}

}  // namespace colcom::svc
