#include "romio/collective.hpp"

#include "mpi/runtime.hpp"

#include <algorithm>
#include <cstring>

#include "check/check.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "integrity/integrity.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace colcom::romio {

namespace {
constexpr int kReadDataTag = -2100;
constexpr int kWriteDataTag = -2200;
int read_tag(const Hints& h) { return kReadDataTag - h.context * 16; }
int write_tag(const Hints& h) { return kWriteDataTag - h.context * 16; }

[[maybe_unused]] const bool kTagsRegistered = [] {
  for (int ctx = 0; ctx < 8; ++ctx) {
    const std::string suffix = "(ctx " + std::to_string(ctx) + ")";
    check::register_tag(kReadDataTag - ctx * 16, "romio.read" + suffix);
    check::register_tag(kWriteDataTag - ctx * 16, "romio.write" + suffix);
  }
  return true;
}();

/// Bytes of `pieces`, all from one file range of one request. They sit back
/// to back in the requesting rank's buffer: FlatRequest keeps buffer order
/// equal to file order.
std::uint64_t piece_bytes(const std::vector<Piece>& pieces) {
  return pieces.back().buf_off + pieces.back().len - pieces.front().buf_off;
}

/// The run of a chunk window (whose first byte is file offset `chunk_lo`)
/// that `pieces` cover when they are back to back in the file too; empty
/// when holes split them.
template <typename Byte>
std::span<Byte> window_run(std::span<Byte> window, std::uint64_t chunk_lo,
                           const std::vector<Piece>& pieces) {
  const std::uint64_t n = piece_bytes(pieces);
  const Piece& last = pieces.back();
  if (last.file_off + last.len - pieces.front().file_off != n) return {};
  return window.subspan(pieces.front().file_off - chunk_lo, n);
}

/// Packs `pieces` of the chunk buffer (which covers file range starting at
/// `chunk_lo`) into a contiguous wire buffer.
std::vector<std::byte> pack_pieces(std::span<const std::byte> chunk_buf,
                                   std::uint64_t chunk_lo,
                                   const std::vector<Piece>& pieces) {
  std::vector<std::byte> out(piece_bytes(pieces));
  std::uint64_t pos = 0;
  for (const auto& p : pieces) {
    std::memcpy(out.data() + pos, chunk_buf.data() + (p.file_off - chunk_lo),
                p.len);
    pos += p.len;
  }
  return out;
}
}  // namespace

namespace {
/// Bounded independent retries of one extent's read or write (`io`) after
/// the collective's PFS retry budget ran out. Each attempt is a fresh
/// request (the PFS re-rolls its transient-fault decision per request), so
/// a handful of attempts recovers any transiently failing extent; a
/// persistently failing one rethrows the last fault::Error.
template <typename Io>
des::Completion retry_independently(const Io& io) {
  constexpr int kFallbackAttempts = 4;
  for (int i = 0;; ++i) {
    try {
      return io();
    } catch (const fault::Error&) {
      if (i + 1 >= kFallbackAttempts) throw;
    }
  }
}
}  // namespace

void ChunkReader::issue(pfs::Pfs& fs, pfs::FileId file,
                        const std::vector<FlatRequest>& domain_requests,
                        pfs::ByteExtent chunk, std::vector<std::byte>& buf,
                        std::uint64_t sieve_gap, double now,
                        fault::Injector* chaos) {
  fs_ = &fs;
  file_ = file;
  chaos_ = chaos;
  chunk_ = chunk;
  pending_.clear();
  extents_.clear();
  guards_.clear();
  bytes_ = 0;
  issued_at_ = now;
  done_at_ = now;
  issued_ = true;
  buf.resize(chunk.length);
  base_ = buf.data();
  if (chunk.length == 0) return;
  extents_ = chunk_read_extents(domain_requests, chunk, sieve_gap);
  // With nothing armed the comparison could never fail, so the guards are
  // only taken (and wait() only verifies) under PFS-read corruption chaos.
  const bool guard =
      chaos != nullptr && chaos->schedule().config().pfs_corrupt_prob > 0;
  for (const auto& e : extents_) {
    pending_.push_back(read_extent(e));
    bytes_ += e.length;
    if (guard) {
      guards_.push_back(integrity::checksum(window(e)));
      corrupt_in_flight(e, 0);
    }
  }
}

des::Completion ChunkReader::read_extent(const pfs::ByteExtent& e) {
  try {
    return fs_->read_async(file_, e.offset, window(e));
  } catch (const fault::Error&) {
    // Degrade to independent I/O for this extent instead of aborting the
    // whole collective read.
    des::Completion c = retry_independently(
        [&] { return fs_->read_async(file_, e.offset, window(e)); });
    ++fallbacks_;
    if (chaos_ != nullptr) chaos_->note_io_fallback();
    return c;
  }
}

std::span<std::byte> ChunkReader::window(const pfs::ByteExtent& e) const {
  return {base_ + (e.offset - chunk_.offset), e.length};
}

void ChunkReader::corrupt_in_flight(const pfs::ByteExtent& e, int attempt) {
  const fault::ChaosSchedule& s = chaos_->schedule();
  const auto file = static_cast<std::uint64_t>(file_.index);
  if (!s.corrupt_extent(fault::CorruptLayer::pfs_read, file, e.offset,
                        attempt)) {
    return;
  }
  fault::chaos_flip(window(e), s.config().seed ^
                                   (file * 0x9e3779b97f4a7c15ull + e.offset));
  chaos_->note_corruption_injected("pfs_read");
}

void ChunkReader::wait() {
  COLCOM_EXPECT(issued_);
  for (const auto& c : pending_) {
    c.wait();
    done_at_ = std::max(done_at_, c.ready_at());
  }
  // Verification is free in virtual time (cf. stage::StageConfig::
  // checksum_bw's default); a re-read is charged by the PFS like any read.
  for (std::size_t i = 0; i < guards_.size(); ++i) {
    const pfs::ByteExtent& e = extents_[i];
    integrity::note_verified(integrity::Stage::pfs_read);
    if (integrity::checksum(window(e)) == guards_[i]) continue;
    integrity::note_detected(integrity::Stage::pfs_read);
    for (int r = 1;; ++r) {
      if (r > kMaxRereads) {
        throw integrity::make_corrupt_error(
            fault::Layer::romio, integrity::Stage::pfs_read,
            "file " + std::to_string(file_.index) + " offset " +
                std::to_string(e.offset) + " still corrupt after " +
                std::to_string(kMaxRereads) + " re-reads");
      }
      const des::Completion c = read_extent(e);
      c.wait();
      done_at_ = std::max(done_at_, c.ready_at());
      bytes_ += e.length;
      corrupt_in_flight(e, r);
      if (integrity::checksum(window(e)) == guards_[i]) {
        integrity::note_recovered(integrity::Stage::pfs_read,
                                  static_cast<std::uint64_t>(r) * e.length);
        break;
      }
    }
  }
}

double ChunkReader::service_time() const { return done_at_ - issued_at_; }

CollectiveStats CollectiveIo::read_all(mpi::Comm& comm, pfs::FileId file,
                                       const FlatRequest& mine,
                                       std::span<std::byte> dst) {
  COLCOM_EXPECT(dst.size() >= mine.total_bytes());
  TRACE_SPAN(comm.engine(), "romio", "read_all");
  CollectiveStats stats;
  const double t_begin = comm.wtime();
  TwoPhasePlan plan = build_plan(comm, mine, hints_);
  stats.plan_s = comm.wtime() - t_begin;
  const int my_agg = plan.aggregator_index(comm.rank());
  auto& fs = comm.runtime().fs();
  const double pack_bw = comm.runtime().config().pack_bw;

  // Aggregator state: double-buffered chunks for the pipelined variant.
  std::vector<std::byte> bufs[2];
  ChunkReader reader;
  auto issue_read = [&](int k) {
    reader.issue(fs, file, plan.domain_requests, plan.chunk(my_agg, k),
                 bufs[k % 2], hints_.sieve_gap, comm.wtime(),
                 comm.runtime().chaos());
  };

  if (my_agg >= 0) {
    stats.iters.resize(static_cast<std::size_t>(plan.n_iters));
    if (plan.n_iters > 0) issue_read(0);
  }

  for (int k = 0; k < plan.n_iters; ++k) {
    // Pending sends lend their buffers until they complete, so `packed` is
    // declared first and outlives `sends`.
    std::vector<std::vector<std::byte>> packed;
    std::vector<mpi::Request> sends;
    if (my_agg >= 0) {
      auto& is = stats.iters[static_cast<std::size_t>(k)];
      const pfs::ByteExtent c = reader.chunk();
      TRACE_COUNT(comm.engine(), ::colcom::trace::Track::ranks,
                  "romio.aggregation_rounds", 1);
      const double wait_begin = comm.wtime();
      {
        TRACE_SPAN(comm.engine(), "romio", "io");
        reader.wait();
      }
      is.stall_s = comm.wtime() - wait_begin;
      is.read_s = reader.service_time();
      is.read_bytes = reader.bytes_read();
      const std::span<const std::byte> chunk_buf(bufs[k % 2]);

      // Nonblocking two-phase: fetch the next chunk while shuffling this one.
      if (hints_.pipelined && k + 1 < plan.n_iters) issue_read(k + 1);

      const double shuffle_begin = comm.wtime();
      {
        TRACE_SPAN(comm.engine(), "romio", "shuffle");
        if (c.length > 0) {
          for (int r = 0; r < comm.size(); ++r) {
            const auto pieces =
                plan.domain_requests[static_cast<std::size_t>(r)].intersect(
                    c.offset, c.offset + c.length);
            if (pieces.empty()) continue;
            // One run of the window goes out as is; only pieces split by
            // holes are packed first.
            std::span<const std::byte> wire =
                window_run(chunk_buf, c.offset, pieces);
            if (wire.empty()) {
              packed.push_back(pack_pieces(chunk_buf, c.offset, pieces));
              wire = packed.back();
            }
            is.shuffle_bytes += wire.size();
            TRACE_COUNT(comm.engine(), ::colcom::trace::Track::ranks,
                        "romio.shuffle_bytes", wire.size());
            // ROMIO's pack cost (sys time) at the aggregator.
            comm.overhead(static_cast<double>(wire.size()) / pack_bw);
            sends.push_back(comm.isend(r, read_tag(hints_), wire));
          }
        }
        // Receive own pieces below, then account the shuffle completion.
        receive_for_iteration(comm, plan, mine, dst, k, stats);
        mpi::wait_all(sends);
      }
      is.shuffle_s = comm.wtime() - shuffle_begin;
      if (!hints_.pipelined && k + 1 < plan.n_iters) issue_read(k + 1);
    } else {
      TRACE_SPAN(comm.engine(), "romio", "shuffle");
      receive_for_iteration(comm, plan, mine, dst, k, stats);
    }
  }
  stats.total_s = comm.wtime() - t_begin;
  return stats;
}

void CollectiveIo::receive_for_iteration(mpi::Comm& comm,
                                         const TwoPhasePlan& plan,
                                         const FlatRequest& mine,
                                         std::span<std::byte> dst, int k,
                                         CollectiveStats& stats) {
  // Post every expected receive up front (ROMIO posts all irecvs then
  // waits). This rank's pieces of one chunk are one run of its buffer, so
  // each aggregator's payload lands there in place.
  std::vector<std::pair<mpi::Request, std::uint64_t>> incoming;
  for (int a = 0; a < plan.aggregator_count(); ++a) {
    const pfs::ByteExtent c = plan.chunk(a, k);
    if (c.length == 0) continue;
    const auto pieces = mine.intersect(c.offset, c.offset + c.length);
    if (pieces.empty()) continue;
    const auto run = dst.subspan(pieces.front().buf_off, piece_bytes(pieces));
    const int agg = plan.aggregators[static_cast<std::size_t>(a)];
    incoming.emplace_back(comm.irecv(agg, read_tag(hints_), run), run.size());
  }
  // ROMIO's unpack cost (sys time) at the receiver.
  const double unpack_bw = comm.runtime().config().memcpy_bw;
  for (auto& [req, total] : incoming) {
    req.wait();
    COLCOM_ENSURE(req.info().bytes == total);
    comm.overhead(static_cast<double>(total) / unpack_bw);
    stats.bytes_moved += total;
  }
}

CollectiveStats CollectiveIo::write_all(mpi::Comm& comm, pfs::FileId file,
                                        const FlatRequest& mine,
                                        std::span<const std::byte> src) {
  COLCOM_EXPECT(src.size() >= mine.total_bytes());
  TRACE_SPAN(comm.engine(), "romio", "write_all");
  CollectiveStats stats;
  const double t_begin = comm.wtime();
  TwoPhasePlan plan = build_plan(comm, mine, hints_);
  stats.plan_s = comm.wtime() - t_begin;
  const int my_agg = plan.aggregator_index(comm.rank());
  if (my_agg >= 0) stats.iters.resize(static_cast<std::size_t>(plan.n_iters));
  auto& fs = comm.runtime().fs();
  const double pack_bw = comm.runtime().config().pack_bw;

  std::vector<std::byte> chunk_buf;
  std::vector<std::byte> staging;
  for (int k = 0; k < plan.n_iters; ++k) {
    // Everyone ships its pieces of each aggregator's current chunk, straight
    // out of `src`: they are one run of it.
    std::vector<mpi::Request> sends;
    for (int a = 0; a < plan.aggregator_count(); ++a) {
      const pfs::ByteExtent c = plan.chunk(a, k);
      if (c.length == 0) continue;
      const auto pieces = mine.intersect(c.offset, c.offset + c.length);
      if (pieces.empty()) continue;
      const auto run = src.subspan(pieces.front().buf_off, piece_bytes(pieces));
      // ROMIO's pack cost (sys time) at the sender.
      comm.overhead(static_cast<double>(run.size()) / pack_bw);
      stats.bytes_moved += run.size();
      sends.push_back(comm.isend(plan.aggregators[static_cast<std::size_t>(a)],
                                 write_tag(hints_), run));
    }

    if (my_agg >= 0) {
      auto& is = stats.iters[static_cast<std::size_t>(k)];
      const pfs::ByteExtent c = plan.chunk(my_agg, k);
      if (c.length > 0) {
        TRACE_COUNT(comm.engine(), ::colcom::trace::Track::ranks,
                    "romio.aggregation_rounds", 1);
        const double shuffle_begin = comm.wtime();
        {
          TRACE_SPAN(comm.engine(), "romio", "shuffle");
          chunk_buf.resize(c.length);
          // A byte no writer covers needs a pre-read. Writers may overlap,
          // so coverage is the union of their pieces.
          const auto covered =
              chunk_read_extents(plan.domain_requests, c, /*sieve_gap=*/0);
          if (pfs::total_bytes(covered) < c.length) {
            // Read-modify-write (ROMIO's data sieving on the write path).
            const double t0 = comm.wtime();
            {
              TRACE_SPAN(comm.engine(), "romio", "io");
              try {
                fs.read(file, c.offset, chunk_buf);
              } catch (const fault::Error&) {
                retry_independently([&] {
                  return fs.read_async(file, c.offset, chunk_buf);
                }).wait();
                ++stats.io_fallbacks;
                if (auto* chaos = comm.runtime().chaos(); chaos != nullptr) {
                  chaos->note_io_fallback();
                }
              }
            }
            is.read_s += comm.wtime() - t0;
            is.read_bytes += c.length;
          }
          // In rank order, so where writers overlap the later rank wins. A
          // contributor's one run lands in the chunk in place; only pieces
          // split by holes go through staging.
          for (int r = 0; r < comm.size(); ++r) {
            const auto pieces =
                plan.domain_requests[static_cast<std::size_t>(r)].intersect(
                    c.offset, c.offset + c.length);
            if (pieces.empty()) continue;
            const std::uint64_t total = piece_bytes(pieces);
            std::span<std::byte> into =
                window_run(std::span<std::byte>(chunk_buf), c.offset, pieces);
            const bool direct = !into.empty();
            if (!direct) {
              staging.resize(total);
              into = staging;
            }
            const auto info = comm.recv(r, write_tag(hints_), into);
            COLCOM_ENSURE(info.bytes == total);
            if (!direct) {
              std::uint64_t pos = 0;
              for (const auto& p : pieces) {
                std::memcpy(chunk_buf.data() + (p.file_off - c.offset),
                            staging.data() + pos, p.len);
                pos += p.len;
              }
            }
            is.shuffle_bytes += total;
            TRACE_COUNT(comm.engine(), ::colcom::trace::Track::ranks,
                        "romio.shuffle_bytes", total);
          }
        }
        is.shuffle_s += comm.wtime() - shuffle_begin;
        const double w0 = comm.wtime();
        {
          TRACE_SPAN(comm.engine(), "romio", "io");
          try {
            fs.write(file, c.offset, chunk_buf);
          } catch (const fault::Error&) {
            // Degrade to independent stripe-sized writes instead of failing
            // the collective: each is a fresh request with fresh retry
            // budget, so transient OST faults cannot lose the chunk.
            const std::uint64_t stripe = fs.config().stripe_size;
            fault::Injector* chaos = comm.runtime().chaos();
            for (std::uint64_t pos = 0; pos < c.length; pos += stripe) {
              const std::uint64_t len = std::min(stripe, c.length - pos);
              const auto part =
                  std::span<const std::byte>(chunk_buf).subspan(pos, len);
              retry_independently([&] {
                return fs.write_async(file, c.offset + pos, part);
              }).wait();
              ++stats.io_fallbacks;
              if (chaos != nullptr) chaos->note_io_fallback();
            }
          }
        }
        is.read_s += comm.wtime() - w0;  // I/O phase time (write side)
        is.read_bytes += c.length;
      }
    }
    mpi::wait_all(sends);
  }
  stats.total_s = comm.wtime() - t_begin;
  return stats;
}

}  // namespace colcom::romio
