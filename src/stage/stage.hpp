// colcom::stage — aggregator-side burst-buffer staging between the PFS and
// the analysis runtime (cf. Wozniak et al., "Big Data Staging with MPI-IO
// for Interactive X-ray Science").
//
// Three pieces behind one per-rank StagingArea:
//   * a chunk cache keyed by (file, offset, length) with a budgeted
//     capacity, deterministic LRU eviction, pinning for in-flight chunks,
//     and crash/replan-aware invalidation so a survivor absorbing a dead
//     aggregator's file domain never serves stale bytes;
//   * an asynchronous prefetch pipeline (StagedReader): while iteration i
//     maps/shuffles chunk k the staging layer issues the collective read
//     for chunk k+1, and warm re-reads of a cached chunk skip the PFS
//     entirely (re-validated against the requested extent union for free);
//   * write-behind: dirty extents staged at burst-buffer bandwidth and
//     drained to the PFS asynchronously under a bounded dirty budget,
//     fsync'd by wb_flush() at iteration barriers — or flushed through the
//     two-phase collective write (wb_flush_collective), which exercises
//     CollectiveIo::write_all's independent-write fallback under faults.
//
// Everything is deterministic: the cache is per-rank, LRU order is a
// sequence counter, and all costs are charged in virtual time (cache hits
// and staging copies at burst-buffer bandwidth, demand reads and flushes
// through the simulated PFS). A failed prefetch degrades to a demand read
// — it can change timing, never results. All paths emit stage.* metrics
// and spans on the dedicated trace::Track::stage track, and staging reads/
// flushes carry CHK-IO epoch markers for the correctness checker (see
// docs/STAGING.md and docs/CORRECTNESS.md).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "integrity/integrity.hpp"
#include "mpi/comm.hpp"
#include "pfs/extent.hpp"
#include "pfs/pfs.hpp"
#include "romio/collective.hpp"
#include "romio/plan.hpp"
#include "romio/request.hpp"
#include "util/assert.hpp"

namespace colcom::fault {
class Injector;
}

namespace colcom::stage {

class StagedReader;

/// Knobs of one staging area. Defaults give a modest per-aggregator burst
/// buffer; capacity_bytes = 0 disables retention (every chunk is dropped
/// when unpinned), which is the "cold" configuration of the benches.
struct StageConfig {
  std::uint64_t capacity_bytes = 64ull << 20;  ///< chunk-cache budget
  /// Unflushed write-behind bytes allowed before wb_write blocks (async
  /// drain) or writes through (collective mode).
  std::uint64_t write_behind_budget_bytes = 16ull << 20;
  /// Issue the read of chunk k+1 while chunk k is processed.
  bool prefetch = true;
  /// How many chunks ahead of the one being processed the runtime may keep
  /// in flight (1 = the classic k+1 overlap). Depths beyond the first
  /// speculative fetch are admitted only while the readahead budget holds:
  /// cache occupancy plus speculative in-flight bytes must fit
  /// capacity_bytes, so deep readahead can never thrash the cache it is
  /// trying to warm (denials count as readahead_denied).
  int prefetch_depth = 1;
  /// Buffer dirty extents for a collective flush (wb_flush_collective)
  /// instead of draining them asynchronously as they are staged.
  bool wb_collective_flush = false;
  /// Burst-buffer bandwidth: cache hits and staging copies are charged at
  /// this rate (node-local NVRAM/DRAM, well above the PFS).
  double bb_bw = 12e9;
  /// CHK-IO context of this area's staged accesses (cf.
  /// romio::Hints::context): two areas on one rank driven by different
  /// communicators should carry distinct contexts so the checker can tell
  /// a flush of one from a flush of the other.
  int check_ctx = 0;
  /// Integrity policy (colcom::integrity): staged bytes are checksummed at
  /// custody transfer (cache insert, wb_write) and verified at point of use
  /// (cache hit serve, write-behind drain). `always` by default — a flipped
  /// bit becomes a structured event, never a silently wrong answer.
  integrity::VerifyMode verify = integrity::VerifyMode::always;
  /// Bounded recovery: re-fetch (cache) / re-stage (write-behind) attempts
  /// a detected corruption may consume before it surfaces as
  /// fault::Error{data_corrupt} naming the custody stage.
  int verify_recovery_budget = 3;
  /// Virtual-time cost of checksum computation, charged per verified byte
  /// when > 0 (bytes/s). 0 keeps verification free in virtual time so
  /// default-on integrity does not shift existing schedules; the
  /// bench/ext_integrity overhead study charges a realistic rate.
  double checksum_bw = 0;
};

/// Counters of one staging area, mirrored into stage.* trace metrics.
struct StageStats {
  // Chunk cache / prefetch pipeline.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Evictions forced by per-tenant quota enforcement: an inserting tenant
  /// over its configured share sheds its own LRU entries first, so a
  /// scan-heavy tenant can never push another tenant's warm chunks out
  /// (docs/SERVICE.md).
  std::uint64_t quota_evictions = 0;
  std::uint64_t invalidations = 0;   ///< entries dropped by invalidate()
  std::uint64_t hit_bytes = 0;       ///< bytes served from the cache
  std::uint64_t read_bytes = 0;      ///< bytes pulled from the PFS
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_wasted = 0;    ///< issued but never consumed
  std::uint64_t prefetch_fallbacks = 0; ///< failed prefetch -> demand read
  std::uint64_t uncacheable = 0;     ///< chunks served transiently (key clash)
  std::uint64_t stale_fetches = 0;   ///< fetches invalidated mid-flight
  std::uint64_t readahead_denied = 0;  ///< deep prefetches over the budget
  /// Hits where the cached chunk was populated by a different tenant's
  /// query (multi-tenant sharing through colcom::svc; see docs/SERVICE.md).
  std::uint64_t cross_query_hits = 0;
  std::uint64_t cross_query_hit_bytes = 0;
  // Write-behind.
  std::uint64_t wb_writes = 0;
  std::uint64_t wb_bytes = 0;
  std::uint64_t wb_flushes = 0;
  std::uint64_t wb_stalls = 0;       ///< dirty budget forced a wait/drain
  std::uint64_t wb_fallback_extents = 0;  ///< independent-write recoveries
  /// Collective flushes that found a dead member via Comm::shrink and
  /// degraded to an independent per-extent drain on the survivors.
  std::uint64_t wb_degraded_flushes = 0;
};

/// Cache key: one aggregation-chunk window of one file.
struct ChunkKey {
  int file = -1;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  friend auto operator<=>(const ChunkKey&, const ChunkKey&) = default;
};

/// Budgeted chunk cache with deterministic LRU eviction and pinning.
/// Entries are window-addressed chunk buffers plus the extent union they
/// were filled from; a lookup whose required extents differ is a miss (the
/// entry is dropped), so a key can never serve bytes read for a different
/// request set.
class ChunkCache {
 public:
  explicit ChunkCache(std::uint64_t capacity) : capacity_(capacity) {}

  struct Entry {
    ChunkKey key;
    std::vector<std::byte> bytes;          ///< buf[o - key.offset] = file[o]
    std::vector<pfs::ByteExtent> extents;  ///< ranges actually filled
    int pins = 0;
    std::uint64_t lru = 0;
    bool doomed = false;  ///< invalidated while pinned; erased on unpin
    int owner = 0;  ///< tenant whose query populated the entry (svc sharing)
    /// Custody checksum over the whole window buffer, attached at insert
    /// and verified on every hit serve / scrubber pass (colcom::integrity).
    std::uint64_t sum = 0;
    /// Bit-rot chaos attempt cursor (fault::ChaosConfig::cache_rot_prob):
    /// bounds how many consecutive verifications of this entry see injected
    /// rot before the bytes come back clean.
    int rot_attempts = 0;
  };

  /// Lookup; bumps the LRU clock. Doomed entries never match.
  Entry* find(const ChunkKey& k);

  /// Inserts a filled entry (unpinned, owned by `owner`), evicting unpinned
  /// LRU entries until the budget holds — the owner's own over-quota entries
  /// first when a quota is configured. Replaces an existing unpinned entry
  /// under the same key; returns nullptr if the key is held by a pinned
  /// entry (the caller serves its transient buffer instead).
  Entry* insert(ChunkKey k, std::vector<std::byte> bytes,
                std::vector<pfs::ByteExtent> extents, StageStats& stats,
                int owner = 0);

  /// Caps `tenant`'s live bytes at `bytes` (0 removes the cap). An insert
  /// that would push the tenant past its cap evicts the tenant's own
  /// unpinned LRU entries first (counted as quota_evictions); tenants
  /// without a cap share the remaining capacity as before.
  void set_quota(int tenant, std::uint64_t bytes);

  /// Live (non-doomed) bytes of entries populated by `tenant`.
  std::uint64_t tenant_bytes(int tenant) const;

  void pin(Entry& e) { ++e.pins; }
  /// Unpins; erases the entry if doomed, and trims back under budget.
  void unpin(Entry& e, StageStats& stats);

  /// Drops every entry of `file` overlapping [lo, hi). Pinned entries are
  /// doomed instead (freed on unpin) so in-flight consumers stay valid, but
  /// no future lookup can hit them. Returns entries affected.
  std::size_t invalidate(int file, std::uint64_t lo, std::uint64_t hi,
                         StageStats& stats);

  void erase(const ChunkKey& k);

  /// Visits every entry (live and doomed) — the scrubber's iteration seam.
  /// The callback must not insert or erase.
  template <class F>
  void for_each_entry(F&& f) {
    for (auto& [k, e] : map_) f(*e);
  }

  /// Bytes of live (non-doomed) entries of `file` — the residency score the
  /// staging-aware aggregator placement ranks candidates by.
  std::uint64_t file_bytes(int file) const;
  std::uint64_t occupancy() const { return bytes_; }
  std::uint64_t capacity() const { return capacity_; }
  std::size_t entries() const { return map_.size(); }
  /// Entries still pinned by an in-flight consumer. A quiesced area must
  /// report zero — anything else is a leaked pin (a chaos-soak end-state
  /// invariant: no recovery path may abandon a pinned chunk).
  std::size_t pinned_entries() const {
    std::size_t n = 0;
    for (const auto& [k, e] : map_) {
      if (e->pins > 0) ++n;
    }
    return n;
  }

 private:
  /// Evicts unpinned LRU entries until occupancy + incoming fits the
  /// budget (or only pinned entries remain). `owner` is the inserting
  /// tenant: when it has a quota, its own over-quota entries go first.
  void evict_to_fit(std::uint64_t incoming, StageStats& stats, int owner);

  std::uint64_t capacity_;
  std::uint64_t bytes_ = 0;
  std::uint64_t lru_seq_ = 0;
  std::map<ChunkKey, std::unique_ptr<Entry>> map_;
  std::map<int, std::uint64_t> quota_;  ///< tenant -> live-byte cap
};

/// One rank's staging area: the chunk cache plus the write-behind state.
/// Construct inside the rank body (per-rank, like any user buffer) and keep
/// it alive across iterations/steps — that persistence is what turns warm
/// iterations into PFS-free runs.
class StagingArea {
 public:
  explicit StagingArea(mpi::Comm& comm, StageConfig cfg = {});
  ~StagingArea();

  StagingArea(const StagingArea&) = delete;
  StagingArea& operator=(const StagingArea&) = delete;

  const StageConfig& config() const { return cfg_; }
  const StageStats& stats() const { return stats_; }
  ChunkCache& cache() { return cache_; }
  mpi::Comm& comm() { return *comm_; }

  /// Tenant whose query is currently driving this area (colcom::svc sets it
  /// before every scheduler slice; standalone use stays at 0). Cache
  /// entries remember the tenant that populated them, and a hit served to a
  /// different tenant counts as a cross-query hit.
  void set_tenant(int tenant) { tenant_ = tenant; }
  int tenant() const { return tenant_; }

  /// Caps `tenant`'s share of the chunk cache (see ChunkCache::set_quota);
  /// colcom::svc derives the caps from ServiceConfig::tenant_weights.
  void set_tenant_quota(int tenant, std::uint64_t bytes) {
    cache_.set_quota(tenant, bytes);
  }

  // --- streaming pub/sub accounting (colcom::stream) ---
  //
  // Published step buffers live in the stream topics, not the chunk cache,
  // but they occupy the same burst buffer; the topics account their pinned
  // bytes here so occupancy tooling and the zero-leak end-state invariant
  // (stream_pinned_bytes() == 0 after quiesce) see one number.

  void stream_pin(std::uint64_t bytes) { stream_pinned_bytes_ += bytes; }
  void stream_unpin(std::uint64_t bytes) {
    COLCOM_EXPECT(stream_pinned_bytes_ >= bytes);
    stream_pinned_bytes_ -= bytes;
  }
  std::uint64_t stream_pinned_bytes() const { return stream_pinned_bytes_; }

  /// Cached bytes of `file` resident in this rank's chunk cache — the
  /// placement score of staging-aware aggregator selection
  /// (romio::Hints::staging_aware_placement).
  std::uint64_t residency_bytes(pfs::FileId file) const {
    return cache_.file_bytes(file.index);
  }

  /// True when a new speculative fetch of `bytes` fits the readahead
  /// budget: the first speculative fetch is always admitted (the classic
  /// k+1 overlap), deeper ones only while occupancy + speculative
  /// in-flight bytes stay inside the cache budget.
  bool readahead_admit(std::uint64_t bytes) const;

  /// Crash/replan hook: drops every cached chunk of `file` overlapping
  /// [lo, hi) — called by the runtime when a survivor absorbs a dead
  /// aggregator's file domain, and by wb_write for self-overlap. Also
  /// marks overlapping in-flight StagedReader fetches stale: their bytes
  /// were copied before the invalidation, so they are served transiently
  /// at take() and never enter the cache. Returns entries invalidated.
  std::size_t invalidate(pfs::FileId file, std::uint64_t lo,
                         std::uint64_t hi);

  // --- write-behind ---

  /// Stages `src` for writing at (file, offset): charges the copy at
  /// burst-buffer bandwidth, invalidates overlapping cached chunks, and —
  /// unless wb_collective_flush — issues the PFS write asynchronously.
  /// Blocks (async) or writes through (collective) when the dirty budget
  /// is exceeded. Emits a CHK-IO dirty marker.
  void wb_write(pfs::FileId file, std::uint64_t offset,
                std::span<const std::byte> src);

  /// fsync at an iteration barrier: waits out every outstanding async
  /// write and drains collective-mode dirty extents through independent
  /// writes. Returns the seconds stalled. Emits the CHK-IO epoch marker.
  double wb_flush();

  /// Collective flush: every rank contributes its dirty extents of `file`,
  /// coalesced newest-wins into disjoint sorted extents, to one two-phase
  /// collective write (all ranks must call, including ranks with nothing
  /// dirty). Exercises CollectiveIo::write_all's independent-write
  /// fallback under injected storage faults. Emits the CHK-IO epoch
  /// marker; dirty extents of other files stay marked.
  romio::CollectiveStats wb_flush_collective(pfs::FileId file,
                                             const romio::Hints& hints = {});

  std::uint64_t wb_dirty_bytes() const {
    return wb_inflight_bytes_ + wb_buffered_bytes_;
  }

  // --- integrity scrubber ---

  /// One synchronous scrub pass over every resident cached extent: verify
  /// each live entry against its custody checksum, repair rot by re-reading
  /// the entry's filled extents from the PFS (bounded by
  /// verify_recovery_budget; an unrepairable entry is dropped and counted
  /// as an integrity failure — a future consumer re-fetches, so nothing is
  /// ever served silently wrong). Returns repairs made. Callable directly
  /// (tests) or driven by the background fiber below.
  std::size_t scrub_once();

  /// Spawns the background scrubber fiber: one scrub_once() every
  /// `period_s` of virtual time until stop_scrubber() (or destruction)
  /// and, when `max_passes` > 0, at most that many passes. NOTE: an
  /// unbounded scrubber keeps the event queue non-empty — call
  /// stop_scrubber() (or bound the passes) before expecting
  /// Engine::run() to drain.
  void start_scrubber(double period_s, int max_passes = 0);
  void stop_scrubber();

 private:
  friend class StagedReader;

  /// Samples the occupancy gauge / counter track after a cache mutation.
  void sample_occupancy();
  fault::Injector* injector() const;

  struct WbInflight {
    pfs::FileId file;
    pfs::ByteExtent ext;
    des::Completion done;
  };
  struct WbDirty {
    pfs::FileId file;
    pfs::ByteExtent ext;
    std::vector<std::byte> bytes;
    std::uint64_t sum = 0;  ///< custody checksum from wb_write
    /// Pristine shadow, stashed only when torn-flush chaos struck this
    /// extent (bounded memory: clean extents carry no copy) — the re-stage
    /// source of verify-before-drain recovery.
    std::vector<std::byte> pristine;
    int torn_attempts = 0;  ///< chaos attempt cursor (wb_torn_prob)
  };

  /// Writes one dirty extent independently with a bounded fault fallback.
  des::Completion wb_issue(const pfs::FileId& file, const pfs::ByteExtent& e,
                           std::span<const std::byte> src);

  /// Verify-before-drain: checks `d` against its custody checksum and
  /// re-stages from the pristine shadow (charged at bb bandwidth) on
  /// mismatch, bounded by verify_recovery_budget; throws
  /// fault::Error{data_corrupt} naming stage.write_behind on exhaustion.
  void wb_verify(WbDirty& d);

  mpi::Comm* comm_;
  StageConfig cfg_;
  StageStats stats_;
  ChunkCache cache_;
  int tenant_ = 0;
  /// Stream-published step bytes currently pinned in the burst buffer
  /// (colcom::stream topics; released at step retirement).
  std::uint64_t stream_pinned_bytes_ = 0;
  /// Bytes of speculative fetches currently in flight across this area's
  /// readers (readahead budget accounting).
  std::uint64_t spec_inflight_bytes_ = 0;
  int spec_inflight_ = 0;
  std::deque<WbInflight> wb_inflight_;
  std::uint64_t wb_inflight_bytes_ = 0;
  std::deque<WbDirty> wb_buffered_;  ///< collective mode only
  std::uint64_t wb_buffered_bytes_ = 0;
  /// Collective-flush sequence number: selects the shrink-agreement epoch
  /// (in a range disjoint from the runtime's crash-watch epochs).
  int wb_flush_seq_ = 0;
  std::vector<StagedReader*> readers_;  ///< live readers (invalidation hook)
  /// Scrubber stop flag, shared with the fiber so destruction while a wake
  /// is pending stays safe (the fiber checks the flag before touching the
  /// area).
  std::shared_ptr<bool> scrub_stop_;
};

/// One acquired chunk, however it was sourced (cache, PFS, or stream).
struct SourceChunk {
  /// Window-addressed chunk bytes, already verified by the source (PFS
  /// reads in romio::ChunkReader, cache hits against their custody
  /// checksum, stream payloads at the consumer copy). Read-only: a consumer
  /// never writes into a taken chunk, so a cached entry's custody checksum
  /// stays valid without re-hashing at release(). Valid until release().
  std::span<const std::byte> data;
  std::span<const pfs::ByteExtent> extents;  ///< ranges actually read
  double service_s = 0;          ///< PFS service time (0 on a hit)
  std::uint64_t bytes_read = 0;  ///< bytes pulled from the PFS
  std::uint64_t fallbacks = 0;   ///< extent-level independent recoveries
  bool hit = false;
};

/// The chunk-source seam of the collective-computing runtime: anything that
/// can serve window-addressed chunk bytes behind the begin/take/release
/// pipeline — the bare PfsReader and the staged StagedReader below, or a
/// stream::Reader fed by an in-transit producer (src/stream/). Every chunk
/// read of the runtime goes through this seam, and its map/shuffle/reduce
/// path is source-agnostic, so results are bit-identical across sources
/// that serve the same bytes.
class ChunkSource {
 public:
  virtual ~ChunkSource();

  /// Starts acquiring `chunk` over the union of `dreqs`. `speculative`
  /// marks prefetches (best effort; failures degrade at take()). Returns
  /// false — with nothing begun — when the source refuses to deepen its
  /// pipeline; the caller retries on demand when the chunk's turn comes.
  virtual bool begin(pfs::ByteExtent chunk,
                     const std::vector<romio::FlatRequest>& dreqs,
                     bool speculative) = 0;

  /// Completes the oldest begun fetch. The previous take must have been
  /// released.
  virtual SourceChunk take() = 0;

  /// Releases the bytes of the last take (unpins / frees the buffer).
  virtual void release() = 0;

  /// A fresh source over the same backing data, for recovery side-channels
  /// (a survivor absorbing a dead aggregator's domain reads through an
  /// auxiliary source so the primary pipeline's order is untouched).
  virtual std::unique_ptr<ChunkSource> aux() = 0;

  /// Window hooks for sources with producer-side state: [lo, hi) is the
  /// file-byte span the next run will consume. prepare() may block until
  /// the span is available (all ranks call it together); retire() signals
  /// the span was fully consumed. No-ops for PFS-backed sources.
  virtual void prepare(std::uint64_t lo, std::uint64_t hi);
  virtual void retire(std::uint64_t lo, std::uint64_t hi);
};

/// The unstaged source: every begin() issues a romio::ChunkReader demand
/// read straight against the PFS into one of two recycled window buffers
/// (the two-phase double buffer), so chunk k+2 lands in chunk k's buffer and
/// nothing is cached, checksummed or allocated per chunk. It never refuses
/// a begin() and ignores `speculative`; at most two chunks may be begun or
/// held at once. An extent whose independent-read fallback is exhausted
/// throws fault::Error from begin().
class PfsReader : public ChunkSource {
 public:
  PfsReader(mpi::Comm& comm, pfs::Pfs& fs, pfs::FileId file,
            std::uint64_t sieve_gap, fault::Injector* chaos);

  bool begin(pfs::ByteExtent chunk,
             const std::vector<romio::FlatRequest>& dreqs,
             bool speculative) override;
  /// Waits out the oldest begun read. `fallbacks` counts this chunk's
  /// extent-level independent recoveries only.
  SourceChunk take() override;
  void release() override;
  /// A fresh reader with its own two buffers.
  std::unique_ptr<ChunkSource> aux() override;

 private:
  struct Slot {
    romio::ChunkReader reader;
    std::vector<std::byte> buf;
    std::uint64_t fallbacks_before = 0;  ///< reader.fallbacks() at issue
  };

  mpi::Comm* comm_;
  pfs::Pfs* fs_;
  pfs::FileId file_;
  std::uint64_t sieve_gap_;
  fault::Injector* chaos_;
  Slot slots_[2];            ///< fill order: begin() n uses slots_[n % 2]
  std::uint64_t begun_ = 0;  ///< begin() calls so far
  std::uint64_t taken_ = 0;  ///< take() calls so far
  bool holding_ = false;
};

/// The prefetch pipeline over one file: begin() starts acquiring a chunk
/// (cache probe, else an async demand read through romio::ChunkReader);
/// take() completes the oldest begun fetch and pins its bytes until
/// release(). Multiple begins may be outstanding — that is the overlap.
class StagedReader : public ChunkSource {
 public:
  StagedReader(StagingArea& area, pfs::Pfs& fs, pfs::FileId file,
               std::uint64_t sieve_gap, fault::Injector* chaos);
  /// Unpins held entries; speculative fetches never taken count as
  /// prefetch_wasted.
  ~StagedReader() override;

  StagedReader(const StagedReader&) = delete;
  StagedReader& operator=(const StagedReader&) = delete;

  /// Starts acquiring `chunk` over the union of `dreqs` (the plan's own
  /// domain requests, or an absorbed dead-aggregator domain). `speculative`
  /// marks prefetches: a fault::Error during a speculative issue is
  /// swallowed and the fetch degrades to a demand read at take(). Returns
  /// false — with nothing begun — when a speculative fetch would overrun
  /// the readahead budget; the caller retries it as a demand read when the
  /// chunk's turn comes (StageStats::readahead_denied).
  bool begin(pfs::ByteExtent chunk,
             const std::vector<romio::FlatRequest>& dreqs,
             bool speculative) override;

  using Chunk = SourceChunk;

  /// Completes the oldest begun fetch. The previous take must have been
  /// released.
  Chunk take() override;

  /// Releases the bytes of the last take (unpins / frees the buffer).
  void release() override;

  /// A sibling reader over the same area and file (absorb side-channel).
  std::unique_ptr<ChunkSource> aux() override;

 private:
  friend class StagingArea;

  struct Fetch {
    ChunkKey key;
    pfs::ByteExtent chunk;
    const std::vector<romio::FlatRequest>* dreqs = nullptr;
    ChunkCache::Entry* entry = nullptr;  ///< pinned cache hit
    romio::ChunkReader reader;           ///< demand read (miss)
    std::vector<std::byte> buf;          ///< miss landing buffer
    std::vector<pfs::ByteExtent> extents;
    double issued_at = 0;
    std::uint64_t spec_bytes = 0;  ///< readahead budget held until take()
    bool speculative = false;
    bool hit = false;
    bool issue_failed = false;  ///< speculative issue hit fault::Error
    bool stale = false;  ///< invalidated mid-flight; never enters the cache
  };

  void issue_demand(Fetch& f);

  /// Point-of-use verification of a cache hit: inject bit-rot chaos if the
  /// entry's turn came, verify against the insert-time checksum, and
  /// recover by re-reading the entry's filled extents from the PFS (bounded
  /// by verify_recovery_budget). Exhaustion dooms the entry and throws
  /// fault::Error{data_corrupt} naming stage.cache.
  void verify_hit(ChunkCache::Entry& e, SourceChunk& out);

  StagingArea* area_;
  pfs::Pfs* fs_;
  pfs::FileId file_;
  std::uint64_t sieve_gap_;
  fault::Injector* chaos_;
  std::deque<Fetch> inflight_;
  // State of the last take(), held until release().
  ChunkCache::Entry* held_entry_ = nullptr;
  std::vector<std::byte> held_buf_;
  std::vector<pfs::ByteExtent> held_extents_;
  bool holding_ = false;
};

}  // namespace colcom::stage
