#include "stage/stage.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "check/check.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "mpi/ft.hpp"
#include "mpi/runtime.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/prng.hpp"

namespace colcom::stage {

namespace {

/// Bounded independent retry of one staged write after the PFS retry budget
/// ran out — the write-path twin of romio's fallback_read. Each attempt is a
/// fresh request (the PFS re-rolls its transient-fault decision per
/// request); a persistently failing extent rethrows the last fault::Error.
des::Completion fallback_write(pfs::Pfs& fs, pfs::FileId file,
                               std::uint64_t offset,
                               std::span<const std::byte> src) {
  constexpr int kFallbackAttempts = 4;
  for (int i = 0;; ++i) {
    try {
      return fs.write_async(file, offset, src);
    } catch (const fault::Error&) {
      if (i + 1 >= kFallbackAttempts) throw;
    }
  }
}

void stage_instant(mpi::Comm& comm, const char* name) {
  if (trace::Tracer* t = trace::Tracer::current(); t != nullptr) {
    t->instant(trace::Track::stage, comm.rank(), "stage", name, comm.wtime());
  }
}

// Sampling key of one staged extent (integrity::should_verify).
std::uint64_t extent_key(int file, std::uint64_t offset) {
  return static_cast<std::uint64_t>(file) * 0x9e3779b97f4a7c15ull + offset;
}

// Deterministic corruption pattern shared by every stage-layer injection
// (fault::chaos_flip): flip every 257th byte of `span`.
void flip_bytes(std::span<std::byte> span, std::uint64_t seed) {
  fault::chaos_flip(span, seed);
}

// Window-buffer view of one filled extent of a cache entry.
std::span<std::byte> entry_extent_span(ChunkCache::Entry& e,
                                       const pfs::ByteExtent& x) {
  return std::span<std::byte>(
      e.bytes.data() + (x.offset - e.key.offset), x.length);
}

// Bit-rot injection over a resident entry: flips bytes only inside the
// filled extents (holes were never read and never re-read by recovery).
void rot_entry(ChunkCache::Entry& e, std::uint64_t seed) {
  for (const pfs::ByteExtent& x : e.extents) {
    flip_bytes(entry_extent_span(e, x), seed ^ x.offset);
  }
}

// Charges checksum compute at StageConfig::checksum_bw (0 = free).
void charge_checksum(mpi::Comm& comm, const StageConfig& cfg,
                     std::uint64_t bytes) {
  if (cfg.checksum_bw > 0 && bytes > 0) {
    comm.overhead(static_cast<double>(bytes) / cfg.checksum_bw);
  }
}

}  // namespace

// --- ChunkCache ---

ChunkCache::Entry* ChunkCache::find(const ChunkKey& k) {
  auto it = map_.find(k);
  if (it == map_.end() || it->second->doomed) return nullptr;
  it->second->lru = ++lru_seq_;
  return it->second.get();
}

void ChunkCache::set_quota(int tenant, std::uint64_t bytes) {
  if (bytes == 0) {
    quota_.erase(tenant);
  } else {
    quota_[tenant] = bytes;
  }
}

std::uint64_t ChunkCache::tenant_bytes(int tenant) const {
  std::uint64_t total = 0;
  for (const auto& [k, e] : map_) {
    if (e->owner == tenant && !e->doomed) total += e->bytes.size();
  }
  return total;
}

void ChunkCache::evict_to_fit(std::uint64_t incoming, StageStats& stats,
                              int owner) {
  // Per-tenant partitioning: an inserting tenant over its configured share
  // sheds its *own* unpinned LRU entries first, so one tenant's scan
  // pressure never evicts another tenant's warm chunks (as long as the
  // quotas sum to at most the capacity).
  if (auto q = quota_.find(owner); q != quota_.end()) {
    while (tenant_bytes(owner) + incoming > q->second) {
      auto victim = map_.end();
      for (auto it = map_.begin(); it != map_.end(); ++it) {
        if (it->second->pins > 0 || it->second->owner != owner) continue;
        if (victim == map_.end() || it->second->lru < victim->second->lru) {
          victim = it;
        }
      }
      if (victim == map_.end()) break;  // nothing of the tenant's evictable
      bytes_ -= victim->second->bytes.size();
      ++stats.evictions;
      ++stats.quota_evictions;
      map_.erase(victim);
    }
  }
  while (bytes_ + incoming > capacity_) {
    // Deterministic LRU: smallest sequence number among unpinned entries.
    auto victim = map_.end();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->second->pins > 0) continue;
      if (victim == map_.end() || it->second->lru < victim->second->lru) {
        victim = it;
      }
    }
    if (victim == map_.end()) return;  // only pinned entries left
    bytes_ -= victim->second->bytes.size();
    ++stats.evictions;
    map_.erase(victim);
  }
}

ChunkCache::Entry* ChunkCache::insert(ChunkKey k, std::vector<std::byte> bytes,
                                      std::vector<pfs::ByteExtent> extents,
                                      StageStats& stats, int owner) {
  auto it = map_.find(k);
  if (it != map_.end()) {
    if (it->second->pins > 0) return nullptr;  // key held; serve transiently
    bytes_ -= it->second->bytes.size();
    map_.erase(it);
  }
  evict_to_fit(bytes.size(), stats, owner);
  auto e = std::make_unique<Entry>();
  e->key = k;
  e->bytes = std::move(bytes);
  e->extents = std::move(extents);
  e->lru = ++lru_seq_;
  e->owner = owner;
  // Custody transfer into the burst buffer: attach the checksum every later
  // hit serve and scrubber pass verifies against.
  e->sum = integrity::checksum(e->bytes);
  bytes_ += e->bytes.size();
  Entry* raw = e.get();
  map_.emplace(k, std::move(e));
  return raw;
}

void ChunkCache::unpin(Entry& e, StageStats& stats) {
  COLCOM_EXPECT(e.pins > 0);
  const int owner = e.owner;
  if (--e.pins == 0 && e.doomed) {
    erase(e.key);
    return;
  }
  // A pinned insert may have pushed occupancy over budget; settle now.
  if (bytes_ > capacity_) evict_to_fit(0, stats, owner);
}

std::size_t ChunkCache::invalidate(int file, std::uint64_t lo,
                                   std::uint64_t hi, StageStats& stats) {
  std::size_t n = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    Entry& e = *it->second;
    const bool overlaps = e.key.file == file && e.key.offset < hi &&
                          e.key.offset + e.key.length > lo;
    if (!overlaps || e.doomed) {
      ++it;
      continue;
    }
    ++n;
    ++stats.invalidations;
    if (e.pins > 0) {
      // In-flight consumers keep their bytes; no future lookup may hit.
      e.doomed = true;
      ++it;
    } else {
      bytes_ -= e.bytes.size();
      it = map_.erase(it);
    }
  }
  return n;
}

void ChunkCache::erase(const ChunkKey& k) {
  auto it = map_.find(k);
  if (it == map_.end()) return;
  bytes_ -= it->second->bytes.size();
  map_.erase(it);
}

std::uint64_t ChunkCache::file_bytes(int file) const {
  std::uint64_t total = 0;
  for (const auto& [k, e] : map_) {
    if (k.file == file && !e->doomed) total += e->bytes.size();
  }
  return total;
}

// --- StagingArea ---

StagingArea::StagingArea(mpi::Comm& comm, StageConfig cfg)
    : comm_(&comm), cfg_(cfg), cache_(cfg.capacity_bytes) {
  COLCOM_EXPECT(cfg_.bb_bw > 0);
}

StagingArea::~StagingArea() {
  // Staged writes already moved their bytes into the Store at issue time;
  // dropping the completions only forgoes the fsync accounting.
  stop_scrubber();
}

std::size_t StagingArea::scrub_once() {
  std::uint64_t extents = 0;
  std::uint64_t repairs = 0;
  auto& fs = comm_->runtime().fs();
  std::vector<ChunkKey> drop;
  cache_.for_each_entry([&](ChunkCache::Entry& e) {
    if (e.doomed || e.bytes.empty()) return;
    ++extents;
    charge_checksum(*comm_, cfg_, e.bytes.size());
    if (integrity::checksum(e.bytes) == e.sum) return;
    // Resident rot found before any consumer touched it.
    integrity::note_detected(integrity::Stage::scrub);
    const pfs::FileId file{e.key.file};
    bool healed = false;
    for (int r = 0; r < cfg_.verify_recovery_budget && !healed; ++r) {
      std::uint64_t n = 0;
      for (const pfs::ByteExtent& x : e.extents) {
        fs.read(file, x.offset, entry_extent_span(e, x));
        n += x.length;
      }
      charge_checksum(*comm_, cfg_, e.bytes.size());
      if (integrity::checksum(e.bytes) == e.sum) {
        integrity::note_recovered(integrity::Stage::scrub, n);
        ++repairs;
        healed = true;
      }
    }
    if (!healed) {
      // The scrubber is background work: an unrepairable entry is counted
      // as a structured failure and dropped (a future consumer re-fetches
      // from the PFS), never thrown across unrelated fibers.
      (void)integrity::make_corrupt_error(
          fault::Layer::stage, integrity::Stage::scrub,
          "file " + std::to_string(e.key.file) + " offset " +
              std::to_string(e.key.offset));
      if (e.pins > 0) {
        e.doomed = true;
      } else {
        drop.push_back(e.key);
      }
    }
  });
  for (const ChunkKey& k : drop) cache_.erase(k);
  integrity::note_scrub_pass(extents, repairs);
  if (!drop.empty()) sample_occupancy();
  return static_cast<std::size_t>(repairs);
}

void StagingArea::start_scrubber(double period_s, int max_passes) {
  COLCOM_EXPECT(period_s > 0);
  stop_scrubber();
  auto stop = std::make_shared<bool>(false);
  scrub_stop_ = stop;
  des::Engine& eng = comm_->engine();
  const int node = comm_->node();
  eng.spawn("stage.scrubber", node,
            [this, stop, period_s, max_passes, &eng] {
              // The stop flag is checked before every touch of the area, so
              // a pending wake outliving the area exits without dereferencing
              // freed state.
              for (int pass = 0; max_passes <= 0 || pass < max_passes;
                   ++pass) {
                eng.sleep_for(period_s);
                if (*stop) return;
                scrub_once();
              }
            });
}

void StagingArea::stop_scrubber() {
  if (scrub_stop_ != nullptr) {
    *scrub_stop_ = true;
    scrub_stop_.reset();
  }
}

fault::Injector* StagingArea::injector() const {
  return comm_->runtime().chaos();
}

bool StagingArea::readahead_admit(std::uint64_t bytes) const {
  // The first speculative fetch is always admitted so prefetch_depth = 1
  // behaves exactly as before (including the capacity-0 "cold" config);
  // deeper readahead shares the cache budget with resident entries.
  if (spec_inflight_ == 0) return true;
  return cache_.occupancy() + spec_inflight_bytes_ + bytes <=
         cfg_.capacity_bytes;
}

void StagingArea::sample_occupancy() {
  if (trace::Tracer* t = trace::Tracer::current(); t != nullptr) {
    const double occ = static_cast<double>(cache_.occupancy());
    t->metrics().gauge("stage.occupancy_bytes").set(occ);
    t->counter_sample(trace::Track::stage, "stage.occupancy_bytes", occ,
                      comm_->wtime());
  }
}

std::size_t StagingArea::invalidate(pfs::FileId file, std::uint64_t lo,
                                    std::uint64_t hi) {
  const std::size_t n = cache_.invalidate(file.index, lo, hi, stats_);
  // A miss fetch issued before this point copied pre-invalidation bytes at
  // issue time; mark it stale so take() serves it transiently instead of
  // inserting it into the cache, where it would outlive flush epochs.
  for (StagedReader* r : readers_) {
    if (r->file_.index != file.index) continue;
    for (StagedReader::Fetch& f : r->inflight_) {
      if (!f.hit && f.key.offset < hi && f.key.offset + f.key.length > lo) {
        f.stale = true;
      }
    }
  }
  if (n > 0) {
    if (fault::Injector* inj = injector(); inj != nullptr) {
      for (std::size_t i = 0; i < n; ++i) inj->note_stage_invalidation();
    }
    stage_instant(*comm_, "stage.invalidate");
    sample_occupancy();
  }
  return n;
}

des::Completion StagingArea::wb_issue(const pfs::FileId& file,
                                      const pfs::ByteExtent& e,
                                      std::span<const std::byte> src) {
  auto& fs = comm_->runtime().fs();
  try {
    return fs.write_async(file, e.offset, src);
  } catch (const fault::Error&) {
    // Degrade to a bounded independent retry instead of losing the extent.
    des::Completion c = fallback_write(fs, file, e.offset, src);
    ++stats_.wb_fallback_extents;
    if (fault::Injector* inj = injector(); inj != nullptr) {
      inj->note_io_fallback();
    }
    return c;
  }
}

void StagingArea::wb_verify(WbDirty& d) {
  if (!integrity::should_verify(cfg_.verify,
                                extent_key(d.file.index, d.ext.offset))) {
    return;
  }
  integrity::note_verified(integrity::Stage::write_behind);
  charge_checksum(*comm_, cfg_, d.bytes.size());
  if (integrity::checksum(d.bytes) == d.sum) {
    d.pristine.clear();
    d.pristine.shrink_to_fit();
    return;
  }
  integrity::note_detected(integrity::Stage::write_behind);
  fault::Injector* fi = injector();
  const std::uint64_t fseed =
      (fi != nullptr ? fi->schedule().config().seed : 0) ^
      extent_key(d.file.index, d.ext.offset);
  if (!d.pristine.empty()) {
    for (int r = 0; r < cfg_.verify_recovery_budget; ++r) {
      // Re-stage from the pristine shadow, charged at bb bandwidth like the
      // original staging copy.
      comm_->overhead(static_cast<double>(d.pristine.size()) / cfg_.bb_bw);
      d.bytes.assign(d.pristine.begin(), d.pristine.end());
      if (fi != nullptr && fi->schedule().corrupt_extent(
                               fault::CorruptLayer::write_behind,
                               static_cast<std::uint64_t>(d.file.index),
                               d.ext.offset, d.torn_attempts)) {
        ++d.torn_attempts;
        flip_bytes(d.bytes, fseed);
        fi->note_corruption_injected("write_behind");
      }
      charge_checksum(*comm_, cfg_, d.bytes.size());
      if (integrity::checksum(d.bytes) == d.sum) {
        integrity::note_recovered(integrity::Stage::write_behind,
                                  d.bytes.size());
        d.pristine.clear();
        d.pristine.shrink_to_fit();
        return;
      }
    }
  }
  throw integrity::make_corrupt_error(
      fault::Layer::stage, integrity::Stage::write_behind,
      "file " + std::to_string(d.file.index) + " offset " +
          std::to_string(d.ext.offset));
}

void StagingArea::wb_write(pfs::FileId file, std::uint64_t offset,
                           std::span<const std::byte> src) {
  COLCOM_EXPECT(file.valid());
  if (src.empty()) return;
  // Staging copy into the burst buffer (sys time at bb bandwidth).
  comm_->overhead(static_cast<double>(src.size()) / cfg_.bb_bw);
  ++stats_.wb_writes;
  stats_.wb_bytes += src.size();
  // The extent is dirty until the next flush epoch; cached chunks of it are
  // stale from this rank's perspective the moment the bytes are staged.
  invalidate(file, offset, offset + src.size());
  if (check::Checker* chk = check::Checker::current(); chk != nullptr) {
    chk->on_stage_write(comm_->rank(), file.index, offset, src.size(),
                        cfg_.check_ctx);
  }
  stage_instant(*comm_, "stage.wb_write");

  const pfs::ByteExtent ext{offset, src.size()};
  // Custody transfer into the write-behind buffer: attach the checksum the
  // drain verifies against, and roll the torn-flush chaos — a struck extent
  // keeps a pristine shadow (bounded memory: clean extents carry no copy)
  // as the re-stage source of verify-before-drain recovery.
  const std::uint64_t wsum = integrity::checksum(src);
  charge_checksum(*comm_, cfg_, src.size());
  fault::Injector* fi = injector();
  const bool torn =
      fi != nullptr &&
      fi->schedule().corrupt_extent(fault::CorruptLayer::write_behind,
                                    static_cast<std::uint64_t>(file.index),
                                    offset, 0);
  if (cfg_.wb_collective_flush) {
    WbDirty d;
    d.file = file;
    d.ext = ext;
    d.bytes.assign(src.begin(), src.end());
    d.sum = wsum;
    if (torn) {
      d.pristine.assign(src.begin(), src.end());
      flip_bytes(d.bytes,
                 (fi->schedule().config().seed) ^ extent_key(file.index,
                                                             offset));
      d.torn_attempts = 1;
      fi->note_corruption_injected("write_behind");
    }
    wb_buffered_.push_back(std::move(d));
    wb_buffered_bytes_ += src.size();
    // Over budget: write the oldest dirty extents through independently so
    // the buffer stays bounded even when the collective flush is far away.
    while (wb_buffered_bytes_ > cfg_.write_behind_budget_bytes &&
           wb_buffered_.size() > 1) {
      ++stats_.wb_stalls;
      WbDirty old = std::move(wb_buffered_.front());
      wb_buffered_.pop_front();
      wb_buffered_bytes_ -= old.bytes.size();
      wb_verify(old);
      wb_issue(old.file, old.ext, old.bytes).wait();
    }
  } else {
    if (torn) {
      // Async mode issues immediately, so the torn staged copy is detected
      // (or, with verification off, silently persisted) right here.
      WbDirty d;
      d.file = file;
      d.ext = ext;
      d.bytes.assign(src.begin(), src.end());
      d.sum = wsum;
      d.pristine.assign(src.begin(), src.end());
      flip_bytes(d.bytes,
                 (fi->schedule().config().seed) ^ extent_key(file.index,
                                                             offset));
      d.torn_attempts = 1;
      fi->note_corruption_injected("write_behind");
      wb_verify(d);
      wb_inflight_.push_back(
          WbInflight{file, ext, wb_issue(file, ext, d.bytes)});
    } else {
      wb_inflight_.push_back(WbInflight{file, ext, wb_issue(file, ext, src)});
    }
    wb_inflight_bytes_ += src.size();
    // Bounded dirty budget: block on the oldest outstanding write.
    while (wb_inflight_bytes_ > cfg_.write_behind_budget_bytes &&
           wb_inflight_.size() > 1) {
      ++stats_.wb_stalls;
      wb_inflight_.front().done.wait();
      wb_inflight_bytes_ -= wb_inflight_.front().ext.length;
      wb_inflight_.pop_front();
    }
  }
}

double StagingArea::wb_flush() {
  const double t0 = comm_->wtime();
  while (!wb_inflight_.empty()) {
    wb_inflight_.front().done.wait();
    wb_inflight_bytes_ -= wb_inflight_.front().ext.length;
    wb_inflight_.pop_front();
  }
  // Collective-mode leftovers with no collective partner drain independently.
  while (!wb_buffered_.empty()) {
    WbDirty d = std::move(wb_buffered_.front());
    wb_buffered_.pop_front();
    wb_buffered_bytes_ -= d.bytes.size();
    wb_verify(d);
    wb_issue(d.file, d.ext, d.bytes).wait();
  }
  ++stats_.wb_flushes;
  if (check::Checker* chk = check::Checker::current(); chk != nullptr) {
    chk->on_stage_flush(comm_->rank(), cfg_.check_ctx);
  }
  stage_instant(*comm_, "stage.wb_flush");
  return comm_->wtime() - t0;
}

romio::CollectiveStats StagingArea::wb_flush_collective(
    pfs::FileId file, const romio::Hints& hints) {
  // Control-plane chaos: a rank scheduled to die inside the collective
  // flush unwinds here, before it drains anything — survivors detect it in
  // the shrink agreement below and degrade to an independent drain.
  mpi::ft::crash_point(*comm_, fault::Phase::flush_collective);
  // Async writes of this file must not race the collective rewrite.
  const double t0 = comm_->wtime();
  while (!wb_inflight_.empty()) {
    wb_inflight_.front().done.wait();
    wb_inflight_bytes_ -= wb_inflight_.front().ext.length;
    wb_inflight_.pop_front();
  }
  (void)t0;

  // Collect this rank's dirty extents of `file` in staging order.
  std::vector<WbDirty> mine;
  for (auto it = wb_buffered_.begin(); it != wb_buffered_.end();) {
    if (it->file.index == file.index) {
      wb_buffered_bytes_ -= it->bytes.size();
      mine.push_back(std::move(*it));
      it = wb_buffered_.erase(it);
    } else {
      ++it;
    }
  }
  // Verify every extent before it leaves our custody — torn staged copies
  // are re-staged from their pristine shadow here, ahead of the newest-wins
  // coalescing that would smear corrupt bytes across merged extents.
  for (WbDirty& d : mine) wb_verify(d);
  // Coalesce newest-wins into sorted, non-overlapping extents: staged
  // writes may duplicate or overlap (e.g. persist_checkpoint to the same
  // slot twice between flushes), while FlatRequest requires disjoint
  // sorted extents — and the packed bytes must reflect the last write.
  std::map<std::uint64_t, std::vector<std::byte>> merged;
  for (auto& d : mine) {
    const std::uint64_t lo = d.ext.offset;
    const std::uint64_t hi = d.ext.offset + d.ext.length;
    auto it = merged.lower_bound(lo);
    if (it != merged.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.size() > lo) it = prev;
    }
    while (it != merged.end() && it->first < hi) {
      const std::uint64_t a = it->first;
      std::vector<std::byte> old = std::move(it->second);
      const std::uint64_t b = a + old.size();
      it = merged.erase(it);
      if (a < lo) {
        merged.emplace(
            a, std::vector<std::byte>(
                   old.begin(),
                   old.begin() + static_cast<std::ptrdiff_t>(lo - a)));
      }
      if (b > hi) {
        it = merged
                 .emplace(hi, std::vector<std::byte>(
                                  old.begin() +
                                      static_cast<std::ptrdiff_t>(hi - a),
                                  old.end()))
                 .first;
      }
    }
    merged.emplace(lo, std::move(d.bytes));
  }
  std::vector<pfs::ByteExtent> extents;
  std::vector<std::byte> packed;
  for (auto& [off, bytes] : merged) {
    extents.push_back(pfs::ByteExtent{off, bytes.size()});
    packed.insert(packed.end(), bytes.begin(), bytes.end());
  }
  romio::CollectiveStats stats;
  fault::Injector* fi = injector();
  const bool ftmode = fi != nullptr && fi->schedule().has_crash_points();
  // Shrink-agreement epoch range for flushes: disjoint from the runtime's
  // crash-watch epochs (iteration-numbered, far below this base) so a flush
  // agreement can never share a tag block with an adjacent watch agreement.
  constexpr int kFlushEpochBase = 1 << 20;
  bool degraded = false;
  if (ftmode) {
    mpi::ft::Group g = comm_->shrink(kFlushEpochBase + wb_flush_seq_++);
    if (!g.full()) {
      // A member died: the two-phase write_all would hang waiting on its
      // contribution. Survivors drain their own extents independently —
      // slower, but every staged byte still reaches the PFS.
      degraded = true;
      ++stats_.wb_degraded_flushes;
      const double td = comm_->wtime();
      std::size_t pos = 0;
      for (const pfs::ByteExtent& e : extents) {
        wb_issue(file, e,
                 std::span<const std::byte>(packed.data() + pos, e.length))
            .wait();
        pos += e.length;
        ++stats.io_fallbacks;
      }
      stats.bytes_moved = packed.size();
      stats.total_s = comm_->wtime() - td;
      // Survivors leave the flush together, as the collective would.
      g.barrier();
    }
  }
  if (!degraded) {
    const romio::FlatRequest req(std::move(extents));
    romio::CollectiveIo io(hints);
    stats = io.write_all(*comm_, file, req, packed);
  }
  ++stats_.wb_flushes;
  if (check::Checker* chk = check::Checker::current(); chk != nullptr) {
    // The drains above persisted every async write and `file`'s buffered
    // extents; exactly the still-buffered extents of other files remain
    // dirty, so close this area's epoch and re-mark them.
    chk->on_stage_flush(comm_->rank(), cfg_.check_ctx);
    for (const WbDirty& d : wb_buffered_) {
      chk->on_stage_write(comm_->rank(), d.file.index, d.ext.offset,
                          d.ext.length, cfg_.check_ctx);
    }
  }
  stage_instant(*comm_, "stage.wb_flush");
  return stats;
}

// --- ChunkSource ---

ChunkSource::~ChunkSource() = default;
void ChunkSource::prepare(std::uint64_t /*lo*/, std::uint64_t /*hi*/) {}
void ChunkSource::retire(std::uint64_t /*lo*/, std::uint64_t /*hi*/) {}

// --- PfsReader ---

PfsReader::PfsReader(mpi::Comm& comm, pfs::Pfs& fs, pfs::FileId file,
                     std::uint64_t sieve_gap, fault::Injector* chaos)
    : comm_(&comm),
      fs_(&fs),
      file_(file),
      sieve_gap_(sieve_gap),
      chaos_(chaos) {
  COLCOM_EXPECT(file.valid());
}

bool PfsReader::begin(pfs::ByteExtent chunk,
                      const std::vector<romio::FlatRequest>& dreqs,
                      bool /*speculative*/) {
  COLCOM_EXPECT_MSG(begun_ - taken_ + (holding_ ? 1 : 0) < 2,
                    "PfsReader holds at most two chunks (begun or taken)");
  Slot& s = slots_[begun_ % 2];
  s.fallbacks_before = s.reader.fallbacks();
  s.reader.issue(*fs_, file_, dreqs, chunk, s.buf, sieve_gap_, comm_->wtime(),
                 chaos_);
  ++begun_;
  return true;
}

SourceChunk PfsReader::take() {
  COLCOM_EXPECT_MSG(!holding_, "take() without release() of the previous chunk");
  COLCOM_EXPECT_MSG(taken_ < begun_, "take() with no begun fetch");
  Slot& s = slots_[taken_ % 2];
  ++taken_;
  holding_ = true;
  s.reader.wait();
  SourceChunk out;
  out.data = std::span<const std::byte>(s.buf);
  out.extents = std::span<const pfs::ByteExtent>(s.reader.extents());
  out.service_s = s.reader.service_time();
  out.bytes_read = s.reader.bytes_read();
  out.fallbacks = s.reader.fallbacks() - s.fallbacks_before;
  return out;
}

void PfsReader::release() {
  COLCOM_EXPECT_MSG(holding_, "release() without take()");
  holding_ = false;
}

std::unique_ptr<ChunkSource> PfsReader::aux() {
  return std::make_unique<PfsReader>(*comm_, *fs_, file_, sieve_gap_, chaos_);
}

// --- StagedReader ---

StagedReader::StagedReader(StagingArea& area, pfs::Pfs& fs, pfs::FileId file,
                           std::uint64_t sieve_gap, fault::Injector* chaos)
    : area_(&area),
      fs_(&fs),
      file_(file),
      sieve_gap_(sieve_gap),
      chaos_(chaos) {
  COLCOM_EXPECT(file.valid());
  area_->readers_.push_back(this);
}

StagedReader::~StagedReader() {
  std::erase(area_->readers_, this);
  if (holding_) release();
  StageStats& st = area_->stats_;
  for (Fetch& f : inflight_) {
    if (f.speculative) ++st.prefetch_wasted;
    if (f.hit) area_->cache_.unpin(*f.entry, st);
    if (f.spec_bytes > 0) {
      area_->spec_inflight_bytes_ -= f.spec_bytes;
      --area_->spec_inflight_;
    }
    // Missed fetches already moved their bytes at issue time; dropping the
    // completions is safe (they only mark timing).
  }
  area_->sample_occupancy();
}

void StagedReader::issue_demand(Fetch& f) {
  f.reader.issue(*fs_, file_, *f.dreqs, f.chunk, f.buf, sieve_gap_,
                 area_->comm_->wtime(), chaos_);
}

bool StagedReader::begin(pfs::ByteExtent chunk,
                         const std::vector<romio::FlatRequest>& dreqs,
                         bool speculative) {
  mpi::Comm& comm = *area_->comm_;
  StageStats& st = area_->stats_;
  Fetch f;
  f.key = ChunkKey{file_.index, chunk.offset, chunk.length};
  f.chunk = chunk;
  f.dreqs = &dreqs;
  f.speculative = speculative;
  f.issued_at = comm.wtime();
  if (chunk.length == 0) {
    inflight_.push_back(std::move(f));
    return true;
  }
  f.extents = chunk_read_extents(dreqs, chunk, sieve_gap_);
  if (ChunkCache::Entry* e = area_->cache_.find(f.key); e != nullptr) {
    if (e->extents == f.extents) {
      if (check::Checker* chk = check::Checker::current(); chk != nullptr) {
        chk->on_stage_read(comm.rank(), file_.index, chunk.offset,
                           chunk.length, area_->cfg_.check_ctx);
      }
      // Warm hit: re-validated against the requested extent union for free.
      area_->cache_.pin(*e);
      f.entry = e;
      f.hit = true;
      ++st.hits;
      st.hit_bytes += pfs::total_bytes(f.extents);
      if (e->owner != area_->tenant_) {
        // The chunk was staged by another tenant's query — the sharing
        // colcom::svc banks on (docs/SERVICE.md).
        ++st.cross_query_hits;
        st.cross_query_hit_bytes += pfs::total_bytes(f.extents);
        stage_instant(comm, "stage.cross_query_hit");
      }
      stage_instant(comm, "stage.hit");
      inflight_.push_back(std::move(f));
      return true;
    }
    // Same window, different request union — the cached bytes cover the
    // wrong extents. Never serve them; drop the entry and read fresh.
    area_->cache_.erase(f.key);
  }
  const std::uint64_t want = pfs::total_bytes(f.extents);
  if (speculative && !area_->readahead_admit(want)) {
    // Over the readahead budget: refuse to deepen the pipeline. Nothing is
    // enqueued, so the caller's cursor stays put and the chunk is fetched
    // on demand when its turn comes.
    ++st.readahead_denied;
    return false;
  }
  if (check::Checker* chk = check::Checker::current(); chk != nullptr) {
    chk->on_stage_read(comm.rank(), file_.index, chunk.offset, chunk.length,
                       area_->cfg_.check_ctx);
  }
  ++st.misses;
  if (speculative) {
    ++st.prefetch_issued;
    f.spec_bytes = want;
    area_->spec_inflight_bytes_ += want;
    ++area_->spec_inflight_;
  }
  try {
    issue_demand(f);
  } catch (const fault::Error&) {
    if (!speculative) throw;
    // A failed prefetch degrades to a demand read at take() — it may cost
    // time, never correctness.
    f.issue_failed = true;
  }
  inflight_.push_back(std::move(f));
  return true;
}

StagedReader::Chunk StagedReader::take() {
  COLCOM_EXPECT_MSG(!holding_, "take() without release() of the previous chunk");
  COLCOM_EXPECT_MSG(!inflight_.empty(), "take() with no begun fetch");
  mpi::Comm& comm = *area_->comm_;
  StageStats& st = area_->stats_;
  Fetch f = std::move(inflight_.front());
  inflight_.pop_front();
  holding_ = true;
  if (f.spec_bytes > 0) {
    area_->spec_inflight_bytes_ -= f.spec_bytes;
    --area_->spec_inflight_;
  }

  Chunk out;
  if (f.chunk.length == 0) return out;

  if (f.hit) {
    // Burst-buffer read: charged at bb bandwidth instead of PFS service.
    comm.overhead(static_cast<double>(pfs::total_bytes(f.entry->extents)) /
                  area_->cfg_.bb_bw);
    // Point of use: bit-rot chaos gets its shot at the resident bytes, then
    // verification against the insert-time checksum (throws data_corrupt on
    // recovery-budget exhaustion — after unpinning and dooming the entry).
    verify_hit(*f.entry, out);
    held_entry_ = f.entry;
    out.data = std::span<const std::byte>(f.entry->bytes);
    out.extents = std::span<const pfs::ByteExtent>(f.entry->extents);
    out.hit = true;
    return out;
  }

  if (f.issue_failed) {
    ++st.prefetch_fallbacks;
    issue_demand(f);  // demand retry; a second fault::Error propagates
  }
  {
    TRACE_SPAN(comm.engine(), "stage", "fetch");
    f.reader.wait();
  }
  if (trace::Tracer* t = trace::Tracer::current(); t != nullptr) {
    t->complete(trace::Track::stage, comm.rank(), "stage",
                f.speculative ? "prefetch" : "demand", f.issued_at,
                comm.wtime());
  }
  out.service_s = f.reader.service_time();
  out.bytes_read = f.reader.bytes_read();
  out.fallbacks = f.reader.fallbacks();
  st.read_bytes += out.bytes_read;

  // Enter the cache pinned; the consumer's span must survive eviction
  // pressure from concurrent prefetches. A fetch invalidated mid-flight
  // carries pre-invalidation bytes and must never enter the cache.
  ChunkCache::Entry* e =
      f.stale ? nullptr
              : area_->cache_.insert(f.key, std::move(f.buf),
                                     std::move(f.extents), st,
                                     area_->tenant_);
  if (e != nullptr) {
    area_->cache_.pin(*e);
    held_entry_ = e;
    out.data = std::span<const std::byte>(e->bytes);
    out.extents = std::span<const pfs::ByteExtent>(e->extents);
  } else {
    // Stale, or the key is held by a doomed in-flight entry; serve this
    // buffer transiently without caching it.
    if (f.stale) {
      ++st.stale_fetches;
    } else {
      ++st.uncacheable;
    }
    held_buf_ = std::move(f.buf);
    held_extents_ = std::move(f.extents);
    out.data = std::span<const std::byte>(held_buf_);
    out.extents = std::span<const pfs::ByteExtent>(held_extents_);
  }
  area_->sample_occupancy();
  return out;
}

std::unique_ptr<ChunkSource> StagedReader::aux() {
  return std::make_unique<StagedReader>(*area_, *fs_, file_, sieve_gap_,
                                        chaos_);
}

void StagedReader::verify_hit(ChunkCache::Entry& e, SourceChunk& out) {
  fault::Injector* fi = area_->injector();
  const std::uint64_t key = extent_key(e.key.file, e.key.offset);
  const std::uint64_t fseed =
      (fi != nullptr ? fi->schedule().config().seed : 0) ^ key;
  if (fi != nullptr &&
      fi->schedule().corrupt_extent(fault::CorruptLayer::cache,
                                    static_cast<std::uint64_t>(e.key.file),
                                    e.key.offset, e.rot_attempts)) {
    ++e.rot_attempts;
    rot_entry(e, fseed);
    fi->note_corruption_injected("cache");
  }
  const StageConfig& cfg = area_->cfg_;
  if (!integrity::should_verify(cfg.verify, key)) return;
  mpi::Comm& comm = *area_->comm_;
  StageStats& st = area_->stats_;
  integrity::note_verified(integrity::Stage::cache);
  charge_checksum(comm, cfg, e.bytes.size());
  if (integrity::checksum(e.bytes) == e.sum) return;
  integrity::note_detected(integrity::Stage::cache);
  for (int r = 0; r < cfg.verify_recovery_budget; ++r) {
    // Bounded re-fetch: re-read the entry's filled extents from the PFS
    // (charged there, like any demand read) straight into the window
    // buffer, so a recovered hit is bit-identical to a fresh read.
    std::uint64_t n = 0;
    for (const pfs::ByteExtent& x : e.extents) {
      fs_->read(file_, x.offset, entry_extent_span(e, x));
      n += x.length;
    }
    out.bytes_read += n;
    st.read_bytes += n;
    if (fi != nullptr &&
        fi->schedule().corrupt_extent(fault::CorruptLayer::cache,
                                      static_cast<std::uint64_t>(e.key.file),
                                      e.key.offset, e.rot_attempts)) {
      ++e.rot_attempts;
      rot_entry(e, fseed);
      fi->note_corruption_injected("cache");
    }
    charge_checksum(comm, cfg, e.bytes.size());
    if (integrity::checksum(e.bytes) == e.sum) {
      integrity::note_recovered(integrity::Stage::cache, n);
      return;
    }
  }
  // Unrecoverable garbage: doom the entry so no future lookup can hit it,
  // hand back our pin (erasing it), and surface the structured failure. The
  // message names the entry, so it is built before unpin() frees it.
  e.doomed = true;
  const std::string where = "file " + std::to_string(e.key.file) +
                            " offset " + std::to_string(e.key.offset);
  area_->cache_.unpin(e, st);
  throw integrity::make_corrupt_error(fault::Layer::stage,
                                      integrity::Stage::cache, where);
}

void StagedReader::release() {
  COLCOM_EXPECT_MSG(holding_, "release() without take()");
  holding_ = false;
  if (held_entry_ != nullptr) {
    area_->cache_.unpin(*held_entry_, area_->stats_);
    held_entry_ = nullptr;
    area_->sample_occupancy();
  }
  held_buf_.clear();
  held_extents_.clear();
}

}  // namespace colcom::stage
