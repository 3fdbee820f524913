#include "stream/stream.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "check/check.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "integrity/integrity.hpp"
#include "mpi/runtime.hpp"
#include "romio/plan.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace colcom::stream {

namespace {

/// Contexts per topic: step s of a topic carries check context
/// base + (s % kCtxStride), so concurrent steps never share a CHK-IO epoch.
constexpr int kCtxStride = 4096;

void stream_instant(mpi::Comm& comm, const char* name) {
  if (trace::Tracer* t = trace::Tracer::current(); t != nullptr) {
    t->instant(trace::Track::stage, comm.rank(), "stream", name, comm.wtime());
  }
}

/// A dead rank's fiber (producer helper or consumer) woken inside a stream
/// wait must unwind like any other fiber of the killed process — publishing
/// or consuming from beyond the grave would corrupt the re-target protocol.
void check_alive(mpi::Comm& comm) {
  if (!comm.alive(comm.rank())) throw mpi::RankStop{};
}

}  // namespace

// --- Topic ---

Topic::Topic(std::string name, TopicLayout layout, const StreamConfig& cfg,
             int check_ctx)
    : name_(std::move(name)),
      layout_(layout),
      cfg_(&cfg),
      check_ctx_(check_ctx),
      failed_from_(layout.n_steps) {
  COLCOM_EXPECT(layout_.file.valid());
  COLCOM_EXPECT(layout_.step_bytes > 0 && layout_.n_steps > 0);
  COLCOM_EXPECT(cfg_->window >= 1 && cfg_->bb_bw > 0);
}

int Topic::ctx_of(std::uint64_t step) const {
  return check_ctx_ + static_cast<int>(step % kCtxStride);
}

std::uint64_t Topic::first_incomplete() const {
  for (std::uint64_t s = retired_upto_; s < layout_.n_steps; ++s) {
    auto it = steps_.find(s);
    if (it == steps_.end() || !it->second.complete) return s;
  }
  return layout_.n_steps;
}

std::uint64_t Topic::resident_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [s, step] : steps_) total += step.buf.size();
  return total;
}

void Topic::wake_all(std::deque<int>& waiters) {
  while (!waiters.empty()) {
    const int id = waiters.front();
    waiters.pop_front();
    des_->wake(id);
  }
}

bool Topic::covered(std::uint64_t step, std::uint64_t offset,
                    std::uint64_t length) const {
  if (step < retired_upto_) return true;
  auto it = steps_.find(step);
  if (it == steps_.end()) return false;
  if (it->second.complete) return true;
  // Contributions never overlap each other (the publish EXPECT enforces
  // it), so summed intersection lengths measure coverage exactly.
  std::uint64_t got = 0;
  for (const Contribution& c : it->second.contribs) {
    const std::uint64_t lo = std::max(offset, c.offset);
    const std::uint64_t hi = std::min(offset + length, c.offset + c.length);
    if (hi > lo) got += hi - lo;
  }
  return got >= length;
}

void Topic::publish(mpi::Comm& comm, std::uint64_t step,
                    std::uint64_t step_offset,
                    std::span<const std::byte> bytes,
                    stage::StagingArea* area, bool takeover) {
  if (bytes.empty()) return;  // a zero-row producer contributes nothing
  des_ = &comm.engine();
  check_alive(comm);
  COLCOM_EXPECT(step < layout_.n_steps);
  COLCOM_EXPECT(step_offset + bytes.size() <= layout_.step_bytes);
  if (takeover && covered(step, step_offset, bytes.size())) return;
  COLCOM_EXPECT_MSG(step >= retired_upto_, "publish into a retired step");
  if (step >= failed_from_) {
    throw fault::Error(fault::Layer::stream, fault::Kind::producer_failed,
                       "publish on a failed stream: " + name_);
  }

  // Back-pressure: the bounded window of unretired steps. Lagging analysis
  // stalls the producer here in virtual time.
  const double t0 = comm.wtime();
  bool stalled = false;
  while (failed_from_ > step &&
         step >= retired_upto_ + static_cast<std::uint64_t>(cfg_->window)) {
    stalled = true;
    producer_waiters_.push_back(des_->current_actor());
    des_->block();
    check_alive(comm);
  }
  if (stalled) {
    ++stats_.backpressure_stalls;
    stats_.stall_s += comm.wtime() - t0;
    TRACE_COUNT(comm.engine(), trace::Track::stage,
                "stream.backpressure_stalls", 1);
    stream_instant(comm, "stream.backpressure_stall");
  }
  if (step >= failed_from_) {
    throw fault::Error(fault::Layer::stream, fault::Kind::producer_failed,
                       "stream failed while publish was stalled: " + name_);
  }

  // The handoff: copy into the step buffer at burst-buffer bandwidth — the
  // streamed bytes never touch the PFS. The copy charge is a DES wait, so
  // re-check liveness and takeover coverage after it: a contribution is
  // all-or-nothing, and a racing survivor may have covered the range while
  // this fiber was charged.
  const double bw = area != nullptr ? area->config().bb_bw : cfg_->bb_bw;
  comm.overhead(static_cast<double>(bytes.size()) / bw);
  check_alive(comm);
  if (takeover && covered(step, step_offset, bytes.size())) return;
  if (step >= failed_from_) {
    // fail() ran while this fiber was charged: pinning now would leak the
    // contribution — nothing ever erases steps at or past failed_from_.
    throw fault::Error(fault::Layer::stream, fault::Kind::producer_failed,
                       "stream failed during publish copy: " + name_);
  }
  Step& s = steps_[step];
  if (s.buf.empty()) s.buf.resize(layout_.step_bytes);
  std::memcpy(s.buf.data() + step_offset, bytes.data(), bytes.size());
  s.filled += bytes.size();
  COLCOM_EXPECT_MSG(s.filled <= layout_.step_bytes,
                    "producers published overlapping slab rows");
  const std::uint64_t file_off =
      layout_.base + step * layout_.step_bytes + step_offset;
  // Custody transfer: the payload's checksum rides with the contribution
  // and is verified at the first consumer copy (colcom::integrity). While
  // stream corruption chaos is armed the producer keeps a pristine shadow —
  // the re-request source — and the step-buffer copy may be flipped right
  // here, before any verification, so detection runs under real damage.
  Contribution ctb;
  ctb.rank = comm.rank();
  ctb.offset = step_offset;
  ctb.length = bytes.size();
  ctb.area = area;
  ctb.sum = integrity::checksum(bytes);
  fault::Injector* fi = comm.runtime().chaos();
  if (fi != nullptr && fi->schedule().config().stream_corrupt_prob > 0) {
    ctb.pristine.assign(bytes.begin(), bytes.end());
    if (fi->schedule().corrupt_extent(
            fault::CorruptLayer::stream,
            static_cast<std::uint64_t>(layout_.file.index), file_off, 0)) {
      fault::chaos_flip(
          std::span<std::byte>(s.buf.data() + step_offset, bytes.size()),
          fi->schedule().config().seed ^
              (static_cast<std::uint64_t>(layout_.file.index) *
                   0x9e3779b97f4a7c15ull +
               file_off));
      fi->note_corruption_injected("stream");
    }
  }
  s.contribs.push_back(std::move(ctb));
  if (area != nullptr) area->stream_pin(bytes.size());
  stats_.bytes_published += bytes.size();
  TRACE_COUNT(comm.engine(), trace::Track::stage, "stream.bytes_published",
              bytes.size());

  if (check::Checker* chk = check::Checker::current(); chk != nullptr) {
    chk->on_stage_write(comm.rank(), layout_.file.index, file_off,
                        bytes.size(), ctx_of(step));
  }

  if (s.filled == layout_.step_bytes) {
    s.complete = true;
    ++stats_.steps_published;
    TRACE_COUNT(comm.engine(), trace::Track::stage, "stream.steps_published",
                1);
    stream_instant(comm, "stream.step_complete");
    // Seal the step's CHK-IO epoch: every contributor's extents of this
    // step's context are now ordered before any consumer read.
    if (check::Checker* chk = check::Checker::current(); chk != nullptr) {
      std::vector<int> ranks;
      for (const Contribution& c : s.contribs) ranks.push_back(c.rank);
      std::sort(ranks.begin(), ranks.end());
      ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
      for (int r : ranks) chk->on_stage_flush(r, ctx_of(step));
    }
    wake_all(consumer_waiters_);
    // No subscriber is waiting to consume: retire eagerly so a consumerless
    // stream cannot wedge its producers on the window.
    if (subscribers_.empty()) advance_retirement(&comm);
  }
}

void Topic::fail(mpi::Comm& comm) {
  des_ = &comm.engine();
  const std::uint64_t from = first_incomplete();
  if (from >= failed_from_) {
    // Already failed at or before this point; nothing new to tear down.
    wake_all(consumer_waiters_);
    wake_all(producer_waiters_);
    return;
  }
  failed_from_ = from;
  // Every step from the failure point to the end of the stream is lost:
  // count them all, not just the ones with partial contributions — a step
  // nobody had published yet is just as undelivered.
  stats_.steps_failed += layout_.n_steps - failed_from_;
  check::Checker* chk = check::Checker::current();
  // Free every step that can no longer complete: its partial bytes will
  // never be served (awaits throw), so holding pins would leak them.
  for (auto it = steps_.lower_bound(failed_from_); it != steps_.end();) {
    std::vector<int> ranks;
    for (const Contribution& c : it->second.contribs) {
      if (c.area != nullptr) c.area->stream_unpin(c.length);
      ranks.push_back(c.rank);
    }
    if (chk != nullptr) {
      std::sort(ranks.begin(), ranks.end());
      ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
      for (int r : ranks) chk->on_stage_flush(r, ctx_of(it->first));
    }
    it = steps_.erase(it);
  }
  TRACE_COUNT(comm.engine(), trace::Track::stage, "stream.steps_failed",
              stats_.steps_failed);
  stream_instant(comm, "stream.fail");
  wake_all(consumer_waiters_);
  wake_all(producer_waiters_);
}

void Topic::release_rank_pins(int rank) {
  for (auto& [s, step] : steps_) {
    for (Contribution& ctb : step.contribs) {
      if (ctb.rank != rank || ctb.area == nullptr) continue;
      ctb.area->stream_unpin(ctb.length);
      ctb.area = nullptr;
    }
  }
}

void Topic::producer_closed(mpi::Comm& comm) {
  ++closed_producers_;
  if (closed_producers_ < std::max(producers_, layout_.producers)) return;
  // Last producer gone: steps that can no longer complete must fail rather
  // than hang their consumers. A clean end-of-stream (every step complete)
  // leaves failed_from_ at n_steps — failed() stays false.
  if (first_incomplete() < layout_.n_steps) {
    fail(comm);
  } else if (des_ != nullptr) {
    wake_all(consumer_waiters_);
  }
}

void Topic::subscribe(Reader* r) { subscribers_.push_back(r); }

void Topic::unsubscribe(Reader* r) {
  std::erase(subscribers_, r);
  // The dropped consumer may have been the retirement straggler (consumer
  // death): re-settle the floor so stalled producers resume against the
  // survivors.
  if (des_ != nullptr) advance_retirement(nullptr);
}

void Topic::await(mpi::Comm& comm, std::uint64_t lo, std::uint64_t hi) {
  des_ = &comm.engine();
  COLCOM_EXPECT(lo >= layout_.base && lo < hi);
  COLCOM_EXPECT(hi <= layout_.base + layout_.n_steps * layout_.step_bytes);
  const std::uint64_t s0 = step_of(lo);
  const std::uint64_t s1 = step_of(hi - 1);
  COLCOM_EXPECT_MSG(s0 >= retired_upto_, "await of a retired step");
  for (std::uint64_t s = s0; s <= s1; ++s) {
    for (;;) {
      auto it = steps_.find(s);
      if (it != steps_.end() && it->second.complete) break;
      if (s >= failed_from_) {
        throw fault::Error(fault::Layer::stream, fault::Kind::producer_failed,
                           "producer died before step " + std::to_string(s) +
                               " of " + name_);
      }
      consumer_waiters_.push_back(des_->current_actor());
      des_->block();
      check_alive(comm);
    }
  }
}

void Topic::verify_contribs(mpi::Comm& comm, std::uint64_t step, Step& s) {
  fault::Injector* fi = comm.runtime().chaos();
  for (Contribution& c : s.contribs) {
    if (c.verified) continue;
    c.verified = true;
    integrity::note_verified(integrity::Stage::stream_payload);
    const std::span<std::byte> have(s.buf.data() + c.offset, c.length);
    if (integrity::checksum(have) == c.sum) {
      c.pristine.clear();
      c.pristine.shrink_to_fit();
      continue;
    }
    // The served buffer rotted after publish: one detection episode,
    // closed by the producer re-request (recovered) or by both copies
    // being bad (failed, structured).
    integrity::note_detected(integrity::Stage::stream_payload);
    const std::uint64_t file_off =
        layout_.base + step * layout_.step_bytes + c.offset;
    const bool producer_bad =
        c.pristine.empty() ||
        (fi != nullptr &&
         fi->schedule().corrupt_extent(
             fault::CorruptLayer::stream,
             static_cast<std::uint64_t>(layout_.file.index), file_off, 1));
    if (!producer_bad && integrity::checksum(c.pristine) == c.sum) {
      // Re-request: copy the producer's shadow back over the step buffer
      // at handoff bandwidth — bounded, bit-identical recovery.
      std::memcpy(have.data(), c.pristine.data(), c.length);
      comm.overhead(static_cast<double>(c.length) / cfg_->bb_bw);
      integrity::note_recovered(integrity::Stage::stream_payload, c.length);
      c.pristine.clear();
      c.pristine.shrink_to_fit();
      continue;
    }
    throw integrity::make_corrupt_error(
        fault::Layer::stream, integrity::Stage::stream_payload,
        name_ + " step " + std::to_string(step) + " offset " +
            std::to_string(c.offset) + ": producer copy also corrupt");
  }
}

void Topic::copy(mpi::Comm& comm, std::uint64_t off,
                 std::span<std::byte> dst) {
  check::Checker* chk = check::Checker::current();
  std::uint64_t pos = 0;
  while (pos < dst.size()) {
    const std::uint64_t rel = off + pos - layout_.base;
    const std::uint64_t s = rel / layout_.step_bytes;
    const std::uint64_t so = rel % layout_.step_bytes;
    const std::uint64_t n =
        std::min<std::uint64_t>(dst.size() - pos, layout_.step_bytes - so);
    auto it = steps_.find(s);
    COLCOM_EXPECT_MSG(it != steps_.end() && it->second.complete,
                      "copy from an incomplete step (prepare() not awaited?)");
    // Verify-on-first-use: every contribution of the step is checked the
    // first time any consumer copy touches the step, so a corrupt payload
    // never crosses this custody boundary unverified.
    verify_contribs(comm, s, it->second);
    if (chk != nullptr) {
      chk->on_stage_read(comm.rank(), layout_.file.index, off + pos, n,
                         ctx_of(s));
    }
    std::memcpy(dst.data() + pos, it->second.buf.data() + so, n);
    pos += n;
  }
}

void Topic::consumed(mpi::Comm& comm, Reader* r, std::uint64_t hi) {
  des_ = &comm.engine();
  COLCOM_EXPECT(hi > layout_.base);
  r->watermark_ = std::max(r->watermark_, step_of(hi - 1) + 1);
  advance_retirement(&comm);
}

void Topic::advance_retirement(mpi::Comm* comm) {
  std::uint64_t floor = first_incomplete();
  for (const Reader* r : subscribers_) {
    floor = std::min(floor, r->watermark_);
  }
  if (floor <= retired_upto_) return;
  while (retired_upto_ < floor) {
    auto it = steps_.find(retired_upto_);
    if (it != steps_.end()) {
      for (const Contribution& c : it->second.contribs) {
        if (c.area != nullptr) c.area->stream_unpin(c.length);
      }
      steps_.erase(it);
    }
    ++stats_.steps_retired;
    ++retired_upto_;
  }
  if (comm != nullptr) {
    TRACE_COUNT(comm->engine(), trace::Track::stage, "stream.steps_retired",
                1);
    stream_instant(*comm, "stream.retire");
  }
  wake_all(producer_waiters_);
}

// --- Engine ---

Engine::Engine(StreamConfig cfg) : cfg_(cfg) {
  COLCOM_EXPECT(cfg_.window >= 1);
}

Topic& Engine::topic(const std::string& name, const TopicLayout& layout) {
  for (auto& [n, t] : topics_) {
    if (n == name) {
      const TopicLayout& have = t->layout();
      COLCOM_EXPECT_MSG(have.file.index == layout.file.index &&
                            have.base == layout.base &&
                            have.step_bytes == layout.step_bytes &&
                            have.n_steps == layout.n_steps,
                        "topic re-registered with a different layout");
      return *t;
    }
  }
  const int ctx =
      cfg_.check_ctx_base + static_cast<int>(topics_.size()) * kCtxStride;
  topics_.emplace_back(
      name, std::make_unique<Topic>(name, layout, cfg_, ctx));
  return *topics_.back().second;
}

Topic* Engine::find(const std::string& name) {
  for (auto& [n, t] : topics_) {
    if (n == name) return t.get();
  }
  return nullptr;
}

StreamStats Engine::stats() const {
  StreamStats total;
  for (const auto& [n, t] : topics_) {
    const StreamStats& s = t->stats();
    total.steps_published += s.steps_published;
    total.bytes_published += s.bytes_published;
    total.steps_retired += s.steps_retired;
    total.backpressure_stalls += s.backpressure_stalls;
    total.stall_s += s.stall_s;
    total.steps_failed += s.steps_failed;
  }
  return total;
}

std::uint64_t Engine::resident_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [n, t] : topics_) total += t->resident_bytes();
  return total;
}

// --- Producer ---

Producer::Producer(Topic& topic, mpi::Comm& comm, stage::StagingArea* area)
    : topic_(&topic), comm_(&comm), area_(area) {
  topic_->add_producer();
}

Producer::~Producer() {
  if (closed_) return;
  if (!comm_->alive(comm_->rank())) {
    // The whole rank died (the consumer-death scenario: simulation and
    // analysis are colocated). The surviving ranks re-target this rank's
    // rows — the fields a producer publishes are re-derivable, unlike a
    // producer-logic death — so the stream stays healthy: deregister
    // quietly instead of failing pending steps. The rank's StagingArea
    // unwinds with it (it is declared before the producers, so it is
    // destroyed after them): scrub this rank's pins first.
    closed_ = true;
    topic_->release_rank_pins(comm_->rank());
    topic_->producer_closed(*comm_);
    return;
  }
  // Destruction without close() is a producer death (the simulation fiber
  // unwound mid-stream): fail pending steps so consumers error, never hang.
  topic_->fail(*comm_);
}

void Producer::publish(std::uint64_t step, std::uint64_t step_offset,
                       std::span<const std::byte> bytes, bool takeover) {
  // The producer-death crash point. Deliberately NOT mpi::ft::crash_point:
  // that kills the whole rank's process, but here only the simulation side
  // dies — the analysis rank lives on and must see a structured error.
  fault::Injector* fi = comm_->runtime().chaos();
  if (fi != nullptr && fi->schedule().has_crash_points()) {
    ++entries_;
    if (fi->schedule().crash_at(fault::Phase::stream_publish, comm_->rank(),
                                entries_)) {
      closed_ = true;  // the fail below is this producer's terminal act
      topic_->fail(*comm_);
      throw fault::Error(fault::Layer::stream, fault::Kind::producer_failed,
                         comm_->rank(),
                         "producer crash point at step " +
                             std::to_string(step) + " of " + topic_->name());
    }
  }
  topic_->publish(*comm_, step, step_offset, bytes, area_, takeover);
}

void Producer::close() {
  if (closed_) return;
  closed_ = true;
  topic_->producer_closed(*comm_);
}

// --- Reader ---

Reader::Reader(Topic& topic, mpi::Comm& comm, std::uint64_t sieve_gap,
               bool subscribing)
    : topic_(&topic),
      comm_(&comm),
      sieve_gap_(sieve_gap),
      subscribing_(subscribing) {
  if (subscribing_) topic_->subscribe(this);
}

Reader::~Reader() {
  if (subscribing_) topic_->unsubscribe(this);
}

bool Reader::begin(pfs::ByteExtent chunk,
                   const std::vector<romio::FlatRequest>& dreqs,
                   bool /*speculative*/) {
  Fetch f;
  f.chunk = chunk;
  if (chunk.length > 0) {
    f.extents = romio::chunk_read_extents(dreqs, chunk, sieve_gap_);
  }
  inflight_.push_back(std::move(f));
  return true;
}

stage::SourceChunk Reader::take() {
  COLCOM_EXPECT_MSG(!holding_, "take() without release() of the previous chunk");
  COLCOM_EXPECT_MSG(!inflight_.empty(), "take() with no begun fetch");
  Fetch f = std::move(inflight_.front());
  inflight_.pop_front();
  holding_ = true;

  stage::SourceChunk out;
  if (f.chunk.length == 0) return out;

  held_buf_.assign(f.chunk.length, std::byte{0});
  held_extents_ = std::move(f.extents);
  std::uint64_t total = 0;
  for (const pfs::ByteExtent& e : held_extents_) {
    topic_->copy(*comm_, e.offset,
                 std::span<std::byte>(held_buf_.data() +
                                          (e.offset - f.chunk.offset),
                                      e.length));
    total += e.length;
  }
  // Reading the published slab is a burst-buffer copy, like a cache hit.
  comm_->overhead(static_cast<double>(total) / topic_->cfg_->bb_bw);
  out.data = std::span<const std::byte>(held_buf_);
  out.extents = std::span<const pfs::ByteExtent>(held_extents_);
  out.hit = true;
  return out;
}

void Reader::release() {
  COLCOM_EXPECT_MSG(holding_, "release() without take()");
  holding_ = false;
  held_buf_.clear();
  held_extents_.clear();
}

std::unique_ptr<stage::ChunkSource> Reader::aux() {
  // Recovery side-channel: reads the same published steps but never joins
  // the retirement quorum, so an absorb can't hold the window open.
  return std::make_unique<Reader>(*topic_, *comm_, sieve_gap_, false);
}

void Reader::prepare(std::uint64_t lo, std::uint64_t hi) {
  topic_->await(*comm_, lo, hi);
}

void Reader::retire(std::uint64_t lo, std::uint64_t hi) {
  if (!subscribing_ || hi <= lo) return;
  topic_->consumed(*comm_, this, hi);
}

}  // namespace colcom::stream
