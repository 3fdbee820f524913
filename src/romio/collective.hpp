// Two-phase collective read/write (ROMIO's ADIOI_GEN_ReadStridedColl /
// WriteStridedColl, reimplemented over the simulated machine).
//
// Read: aggregators stream their file domain in cb-sized chunks (I/O
// phase) and redistribute each chunk's bytes to the requesting ranks
// (shuffle phase). With hints.pipelined the read of chunk k+1 overlaps the
// shuffle of chunk k — the nonblocking two-phase the paper profiles in
// Fig. 1 and contrasts with collective computing.
//
// Like ROMIO's, the shuffle makes no copy of its own: a rank's pieces of
// one chunk are one run of its buffer, sent or received in place, and the
// aggregator's chunk window is used in place too unless holes split those
// pieces. The pack/unpack charges (pack_bw, memcpy_bw) model ROMIO's work.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpi/comm.hpp"
#include "pfs/pfs.hpp"
#include "romio/plan.hpp"
#include "romio/request.hpp"

namespace colcom::fault {
class Injector;
}

namespace colcom::romio {

/// Aggregator-side timing of one two-phase iteration.
struct IterStat {
  double read_s = 0;     ///< PFS service time of this chunk
  double stall_s = 0;    ///< time the aggregator actually waited on the read
  double shuffle_s = 0;  ///< time to deliver all shuffle messages
  std::uint64_t read_bytes = 0;
  std::uint64_t shuffle_bytes = 0;
};

/// Per-rank result of a collective operation.
struct CollectiveStats {
  double plan_s = 0;   ///< access-info exchange and planning
  double total_s = 0;  ///< whole collective call on this rank
  std::uint64_t bytes_moved = 0;  ///< user payload into (read) / out of (write) this rank
  /// Extents recovered through independent I/O after the collective path
  /// surfaced fault::Error (read: ChunkReader re-reads; write: write_all
  /// re-writes stripe by stripe).
  std::uint64_t io_fallbacks = 0;
  std::vector<IterStat> iters;    ///< non-empty on aggregators only
};

/// One in-flight aggregation-chunk read: the union of requested ranges in
/// the chunk window (holes skipped per Hints::sieve_gap), landing in a
/// window-addressed buffer (byte at file offset o sits at buf[o - chunk.
/// offset]). Every chunk read goes through this: the plain two-phase read,
/// and every chunk source of the collective-computing runtime (its own
/// chunks, staging misses, absorbed and make-up chunks). That makes it the
/// one place a PFS read is verified: while PFS-read corruption chaos is
/// armed (fault::ChaosConfig::pfs_corrupt_prob), issue() records the
/// OST-side guard of each extent — its integrity::checksum as the store
/// served it — before the in-flight flip, and wait() verifies every extent
/// against its guard (integrity::Stage::pfs_read), healing a mismatch by
/// re-reading up to kMaxRereads times or throwing
/// fault::Error{data_corrupt} naming pfs.read. Unarmed, nothing is hashed.
class ChunkReader {
 public:
  /// Re-reads a corrupted extent may take before its read fails.
  static constexpr int kMaxRereads = 3;

  /// Issues the async reads for `chunk` over the union of
  /// `domain_requests` (any rank-indexed request set — the plan's own
  /// domain, or an absorbed dead-aggregator domain); `buf`'s storage must
  /// stay put until wait() (moving the vector is fine, resizing it is
  /// not). When an extent exhausts its PFS retry budget (fault::Error) the
  /// reader degrades to a bounded independent re-read of that extent
  /// instead of aborting the collective; `chaos`, when non-null, records
  /// the fallback and may corrupt the read in flight.
  void issue(pfs::Pfs& fs, pfs::FileId file,
             const std::vector<FlatRequest>& domain_requests,
             pfs::ByteExtent chunk, std::vector<std::byte>& buf,
             std::uint64_t sieve_gap, double now,
             fault::Injector* chaos = nullptr);

  /// Blocks until every extent of the chunk arrived, then verifies it while
  /// PFS-read corruption chaos is armed.
  void wait();

  pfs::ByteExtent chunk() const { return chunk_; }
  /// Bytes pulled from the PFS for this chunk, re-reads included.
  std::uint64_t bytes_read() const { return bytes_; }
  /// The extents actually read (post hole-skipping): the filled ranges of
  /// the window buffer.
  const std::vector<pfs::ByteExtent>& extents() const { return extents_; }
  /// PFS service time of this chunk, re-reads included (valid after
  /// wait()).
  double service_time() const;
  bool issued() const { return issued_; }
  /// Extents recovered through the independent-read fallback, accumulated
  /// across every issue() on this reader.
  std::uint64_t fallbacks() const { return fallbacks_; }

 private:
  /// Reads extent `e` into its window of the buffer, degrading to the
  /// bounded independent re-read when the PFS retry budget runs out.
  des::Completion read_extent(const pfs::ByteExtent& e);
  /// The extent's window of the buffer.
  std::span<std::byte> window(const pfs::ByteExtent& e) const;
  /// Rolls PFS-read corruption chaos for `attempt` of extent `e` and, on a
  /// hit, flips its bytes.
  void corrupt_in_flight(const pfs::ByteExtent& e, int attempt);

  pfs::Pfs* fs_ = nullptr;
  pfs::FileId file_;
  fault::Injector* chaos_ = nullptr;
  std::byte* base_ = nullptr;  ///< buf.data(): the window's first byte
  pfs::ByteExtent chunk_{0, 0};
  std::vector<pfs::ByteExtent> extents_;
  std::vector<des::Completion> pending_;
  /// OST-side guard per extent; empty unless pfs_corrupt_prob > 0.
  std::vector<std::uint64_t> guards_;
  std::uint64_t bytes_ = 0;
  std::uint64_t fallbacks_ = 0;
  double issued_at_ = 0;
  double done_at_ = 0;
  bool issued_ = false;
};

class CollectiveIo {
 public:
  explicit CollectiveIo(Hints hints = {}) : hints_(hints) {}

  /// Collective read: all ranks must call. `mine` describes this rank's file
  /// extents; bytes land packed-in-extent-order in `dst`.
  CollectiveStats read_all(mpi::Comm& comm, pfs::FileId file,
                           const FlatRequest& mine, std::span<std::byte> dst);

  /// Collective write: `src` holds this rank's bytes packed in extent order.
  CollectiveStats write_all(mpi::Comm& comm, pfs::FileId file,
                            const FlatRequest& mine,
                            std::span<const std::byte> src);

  const Hints& hints() const { return hints_; }

 private:
  /// Receiver side of one iteration: pull this rank's pieces of every
  /// aggregator's chunk `k` straight into their run of `dst`.
  void receive_for_iteration(mpi::Comm& comm, const TwoPhasePlan& plan,
                             const FlatRequest& mine, std::span<std::byte> dst,
                             int k, CollectiveStats& stats);

  Hints hints_;
};

}  // namespace colcom::romio
