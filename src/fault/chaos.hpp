// ChaosSchedule: a deterministic, seeded event list driving fault injection
// at every layer below the analysis — which link degrades, which rank
// straggles, which aggregator crashes, when, and for how long — all in
// virtual time, so a chaos run is exactly as reproducible as a clean one.
//
// The schedule is pure data (queries are const and side-effect-free); the
// Injector wraps one schedule with the mutable side: fault statistics and
// `fault.*` metric emission through colcom::trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "des/time.hpp"
#include "fault/fault.hpp"

namespace colcom::trace {
class Tracer;
}

namespace colcom::fault {

/// Declarative chaos knobs expanded into a ChaosSchedule. All probabilities
/// and counts are interpreted deterministically from `seed`; the default
/// config injects nothing and leaves every fast path untouched.
struct ChaosConfig {
  std::uint64_t seed = 0xc4a05;
  double horizon_s = 10.0;  ///< random event times are drawn in [0, horizon)

  /// Network message loss: each internode transfer attempt is independently
  /// dropped with this probability (0 disables the MPI retransmit path).
  double msg_loss_prob = 0;

  /// Link degradation events: `degraded_links` random links each run at
  /// `degrade_factor` of nominal bandwidth for `degrade_duration_s`.
  int degraded_links = 0;
  double degrade_factor = 0.25;
  double degrade_duration_s = 1.0;

  /// Straggler events: `stragglers` random ranks burn CPU at
  /// 1/straggler_factor speed for `straggler_duration_s`.
  int stragglers = 0;
  double straggler_factor = 4.0;
  double straggler_duration_s = 1.0;

  /// Aggregator crash events: `aggregator_crashes` random ranks permanently
  /// stop serving as aggregators at a random time. (Ranks that are not
  /// aggregators when the event fires crash harmlessly.)
  int aggregator_crashes = 0;

  /// MPI retransmit protocol (used when msg_loss_prob > 0): the sender arms
  /// an ack timeout per attempt — `ack_timeout_s` plus the expected wire
  /// time — backed off by `backoff` per retry, up to `max_retries`
  /// retransmits before the transfer fails with fault::Error.
  double ack_timeout_s = 2e-3;
  double backoff = 2.0;
  int max_retries = 6;

  /// ULFM-flavored failure detection: `Comm::recv_ft` polls the world's
  /// death registry every `crash_detect_timeout_s` of virtual time while a
  /// receive is pending, so a crash inside a collective surfaces as
  /// `fault::Error{rank_failed}` instead of a hang.
  double crash_detect_timeout_s = 1e-3;

  /// When an aggregator's role crash interrupts an iteration it already
  /// mapped, ship the parked partial records to the absorbing survivor
  /// (warm-partial recovery) instead of re-reading the chunk from the PFS.
  /// Off forces the cold re-read path (the A/B for the recovery study).
  bool warm_partials = true;

  /// Silent-data-corruption chaos (colcom::integrity): each staged cache
  /// hit / write-behind flush / stream contribution serve independently
  /// rolls against its probability; on a hit the resident bytes are flipped
  /// *before* the integrity layer verifies them, so detection and bounded
  /// recovery run under real corruption. `corrupt_attempts` bounds how many
  /// consecutive recovery attempts per extent are re-corrupted before the
  /// bytes come back clean (mirrors pfs::FaultyStore); an attempt budget the
  /// recovery bound cannot beat surfaces as fault::Error{data_corrupt}.
  double cache_rot_prob = 0;       ///< bit-rot on a ChunkCache verify
  double wb_torn_prob = 0;         ///< torn write-behind extent at flush
  double stream_corrupt_prob = 0;  ///< corrupted stream payload at serve
  double ckpt_corrupt_prob = 0;    ///< corrupted checkpoint generation
  int corrupt_attempts = 1;        ///< re-corruptions per extent before clean

  /// Multi-tenant service chaos (colcom::svc): abort the first job of
  /// tenant `svc_abort_tenant` that is about to run its
  /// `svc_abort_slice`-th scheduler slice (1-based; 0 disables). The abort
  /// is tenant-local — the scheduler drops the job between collective
  /// slices, so every other tenant's queries proceed untouched.
  int svc_abort_tenant = -1;
  int svc_abort_slice = 0;

  bool any() const {
    return msg_loss_prob > 0 || degraded_links > 0 || stragglers > 0 ||
           aggregator_crashes > 0 || any_corruption();
  }

  bool any_corruption() const {
    return cache_rot_prob > 0 || wb_torn_prob > 0 || stream_corrupt_prob > 0 ||
           ckpt_corrupt_prob > 0;
  }
};

/// One scheduled fault: `kind` strikes `subject` (link id or rank) at `at`
/// for `duration` seconds; `magnitude` is the bandwidth/speed factor where
/// applicable. Crashes are permanent (duration ignored).
struct ChaosEvent {
  Kind kind = Kind::link_degraded;
  int subject = 0;
  des::SimTime at = 0;
  des::SimTime duration = 0;
  double magnitude = 1.0;
};

/// Named control-plane phases where a crash point can fire. Unlike timed
/// `aggregator_crash` events (role death, polled at watch boundaries), a
/// crash point kills the *process*: the rank's fiber unwinds via
/// `mpi::RankStop` the `hit`-th time it enters the phase, mid-collective.
enum class Phase {
  plan_exchange,     ///< inside romio::build_plan's offset-list exchange
  crash_watch,       ///< inside the per-iteration crash-watch agreement
  flush_collective,  ///< inside stage::Area::wb_flush_collective
  mid_map,           ///< after a chunk read, before its shuffle
  replan,            ///< inside the post-death replan metadata recovery
  submit,            ///< inside svc::submit's plan-exchange collectives
  stream_publish,    ///< inside stream::Producer::publish (producer death)
};

const char* to_string(Phase phase);

/// The shared corruption pattern: XORs a seeded non-zero byte into every
/// 257th position of `span` (mirrors pfs::FaultyStore, so planted damage
/// looks the same at every custody layer). Involutory for a fixed seed —
/// applying it twice restores the original bytes.
void chaos_flip(std::span<std::byte> span, std::uint64_t seed);

/// Kill `rank` the `hit`-th time (1-based) it enters `phase`.
struct CrashPoint {
  Phase phase = Phase::plan_exchange;
  int rank = 0;
  int hit = 1;
};

/// The expanded, seeded event list plus the per-transfer loss model.
/// Queries are pure functions of (schedule, arguments): two schedules built
/// from the same config and machine shape answer identically.
class ChaosSchedule {
 public:
  ChaosSchedule() = default;

  /// Expands `cfg` into events for a machine with `n_nodes` nodes,
  /// `nprocs` ranks and `n_links` directed mesh links.
  ChaosSchedule(const ChaosConfig& cfg, int n_nodes, int nprocs, int n_links);

  /// Appends an explicit event (tests/benches that must hit a known
  /// subject, e.g. crash a specific aggregator rank).
  void add(const ChaosEvent& ev) { events_.push_back(ev); }

  /// Appends a control-plane crash point (process death inside a phase).
  void add_crash_point(const CrashPoint& cp) { crash_points_.push_back(cp); }

  const ChaosConfig& config() const { return cfg_; }
  const std::vector<ChaosEvent>& events() const { return events_; }

  /// Bandwidth factor of `link_id` at time `t` (1.0 when healthy; the worst
  /// overlapping degradation otherwise).
  double link_factor(int link_id, des::SimTime t) const;

  /// CPU speed divisor of `rank` at time `t` (1.0 when healthy).
  double cpu_factor(int rank, des::SimTime t) const;

  /// True when `rank` has a (permanent) aggregator-crash event at or before
  /// `t`.
  bool aggregator_crashed(int rank, des::SimTime t) const;

  /// Deterministic per-attempt loss roll for one transfer, keyed by the
  /// (src, dst) rank pair, the channel sequence number, a protocol salt
  /// (eager payload / RTS / rendezvous payload) and the attempt index.
  bool drop_transfer(int src_rank, int dst_rank, std::uint64_t seq, int salt,
                     int attempt) const;

  bool has_msg_loss() const { return cfg_.msg_loss_prob > 0; }
  bool has_aggregator_crashes() const;
  bool has_stragglers() const;
  bool has_degraded_links() const;

  /// True when the scheduler should abort a job of `tenant` that is about
  /// to run its `slice_no`-th slice (1-based) — the svc tenant-local fault
  /// (ChaosConfig::svc_abort_tenant/svc_abort_slice). Pure data like every
  /// other query; the service fires it at most once per run.
  bool svc_abort_at(int tenant, int slice_no) const {
    return cfg_.svc_abort_slice > 0 && cfg_.svc_abort_tenant == tenant &&
           cfg_.svc_abort_slice == slice_no;
  }

  /// Deterministic corruption roll for one integrity verification, keyed by
  /// the custody layer (a small salt: 0 cache, 1 write-behind, 2 stream,
  /// 3 checkpoint), the extent identity (`a`, `b` — e.g. file-id/offset or
  /// topic/step) and the attempt index. Pure data like drop_transfer: the
  /// first `corrupt_attempts` attempts that roll under the layer's
  /// probability corrupt; later attempts of the same extent come back clean
  /// so bounded recovery can converge (set corrupt_attempts past the
  /// recovery budget to exercise the data_corrupt failure path).
  bool corrupt_extent(int layer_salt, std::uint64_t a, std::uint64_t b,
                      int attempt) const;

  bool has_corruption() const { return cfg_.any_corruption(); }

  /// True when `rank`'s `entry_no`-th entry (1-based) into `phase` matches
  /// a registered crash point.
  bool crash_at(Phase phase, int rank, int entry_no) const;
  bool has_crash_points() const { return !crash_points_.empty(); }
  const std::vector<CrashPoint>& crash_points() const { return crash_points_; }

 private:
  ChaosConfig cfg_;
  std::vector<ChaosEvent> events_;
  std::vector<CrashPoint> crash_points_;
};

/// Counters bumped by every injection/detection/recovery. Kept as plain
/// fields (always on) and mirrored into `fault.*` trace metrics when a
/// tracer is attached, so benches get numbers without tracing overhead.
struct FaultStats {
  std::uint64_t msgs_dropped = 0;      ///< transfer attempts lost in flight
  std::uint64_t net_retries = 0;       ///< retransmits after ack timeout
  std::uint64_t net_failures = 0;      ///< transfers past max_retries
  std::uint64_t degraded_transfers = 0;  ///< transfers through a slow link
  std::uint64_t straggler_hits = 0;    ///< compute charges slowed down
  std::uint64_t replans = 0;           ///< aggregator-failure re-plans
  std::uint64_t absorbed_chunks = 0;   ///< chunks served for a dead aggregator
  std::uint64_t io_fallbacks = 0;      ///< extents recovered independently
  std::uint64_t checkpoints = 0;       ///< IterativeComputer checkpoints
  std::uint64_t restores = 0;          ///< IterativeComputer restores
  std::uint64_t stage_invalidations = 0;  ///< staged chunks dropped on replan
  std::uint64_t rank_crashes = 0;      ///< process deaths at crash points
  std::uint64_t crash_detections = 0;  ///< recv_ft timeouts that found a death
  std::uint64_t agreement_rounds = 0;  ///< crash-watch agreement rounds run
  std::uint64_t warm_chunks = 0;       ///< chunks recovered from parked partials
  std::uint64_t warm_records = 0;      ///< partial records shipped warm
  std::uint64_t warm_bytes_saved = 0;  ///< PFS bytes the warm path avoided
  std::uint64_t job_aborts = 0;        ///< svc jobs killed tenant-locally
  std::uint64_t svc_retries = 0;       ///< slices resubmitted from a parked mid
  std::uint64_t svc_failures = 0;      ///< jobs failed with a structured reason
  std::uint64_t svc_shed = 0;          ///< jobs shed at admission control
  std::uint64_t corruptions_injected = 0;  ///< extents flipped by chaos
};

/// The mutable face of a schedule: owns the FaultStats and forwards every
/// injection/detection to the trace metrics registry (`fault.*`) when a
/// tracer is installed.
class Injector {
 public:
  explicit Injector(ChaosSchedule schedule) : schedule_(std::move(schedule)) {}

  const ChaosSchedule& schedule() const { return schedule_; }
  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

  bool net_loss_enabled() const { return schedule_.has_msg_loss(); }
  /// True when the schedule can kill an aggregator role (a timed
  /// aggregator_crash event) or a process (a crash point). The one "can
  /// kill" check: collective computing then runs its agreed crash watch,
  /// and svc::ServiceContext agrees on every slice's outcome.
  bool watch_aggregators() const {
    return schedule_.has_aggregator_crashes() || schedule_.has_crash_points();
  }
  bool has_stragglers() const { return schedule_.has_stragglers(); }
  bool has_degraded_links() const { return schedule_.has_degraded_links(); }

  /// Bounds per-rank metric cardinality: worlds up to this many ranks get
  /// per-rank detail counters (`fault.*.rank<r>`); larger worlds aggregate
  /// the same observations into one `*_by_rank` histogram so 1024-rank
  /// sweeps don't bloat trace exports. Set by Runtime at install time.
  static constexpr int kPerRankMetricCap = 64;
  void set_world_size(int nprocs) { nprocs_ = nprocs; }

  // Each note_* bumps the stat and the matching fault.* metric.
  void note_drop();
  void note_net_retry(int src_rank = -1);
  void note_net_failure();
  void note_degraded_transfer();
  void note_straggler_hit();
  void note_replan();
  void note_absorbed_chunk();
  void note_io_fallback();
  void note_checkpoint();
  void note_restore();
  void note_stage_invalidation();
  void note_rank_crash(int rank);
  void note_crash_detected(int rank);
  void note_agreement_round();
  void note_warm_chunk(std::uint64_t records, std::uint64_t bytes_saved);
  void note_job_abort();
  void note_svc_retry();
  void note_svc_failure();
  void note_svc_shed();
  void note_corruption_injected(const char* layer);

 private:
  void per_rank(const char* base, const char* hist, int rank);

  ChaosSchedule schedule_;
  FaultStats stats_;
  int nprocs_ = 0;
};

}  // namespace colcom::fault
