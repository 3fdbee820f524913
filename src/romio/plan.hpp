// Two-phase planning: aggregator selection, file-domain partitioning, and
// the collective exchange of access information ("all processes share their
// accessing information by exchanging the offset list" — paper Sec. III-B).
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/comm.hpp"
#include "romio/request.hpp"

namespace colcom::romio {

/// MPI-IO-style hints controlling the two-phase engine.
struct Hints {
  std::uint64_t cb_buffer_size = 4ull << 20;  ///< per-iteration chunk (4 MB)
  /// Aggregator count; -1 selects one per compute node (ROMIO default).
  int cb_nodes = -1;
  /// Overlap the read of chunk k+1 with the shuffle of chunk k (the
  /// nonblocking two-phase the paper profiles in Fig. 1).
  bool pipelined = true;
  /// Align file-domain boundaries down to stripe boundaries.
  bool stripe_aligned_fd = false;
  std::uint64_t stripe_size = 4ull << 20;  ///< used when stripe_aligned_fd
  /// File domains and the global range are aligned to this many bytes.
  /// Collective computing sets it to the element size so chunks never split
  /// an element (a requirement for mapping in place).
  std::uint64_t fd_alignment = 1;
  /// Holes up to this size inside a chunk are read through (data sieving);
  /// larger holes split the chunk read so unrequested regions are skipped,
  /// as ROMIO does.
  std::uint64_t sieve_gap = 64ull << 10;
  /// Collective context id (like an MPI context): concurrent collective
  /// operations on one communicator must use distinct contexts so their
  /// internal tags cannot cross-match. 0 is the default blocking context.
  int context = 0;
  /// Staging-aware aggregator placement: rank candidates by the staged
  /// bytes of the target file resident in their burst-buffer caches
  /// (build_plan's `my_residency`), so replans and follow-up queries land
  /// on ranks whose warm chunks survive. Warm ranks are taken score-first,
  /// and a warm pool larger than the default aggregator count grows the
  /// set rather than truncating it (up to cb_nodes when set — cb_nodes >
  /// n_nodes warm pools are honored — or the alive pool otherwise); the
  /// remainder falls back to the spaced default, and an all-cold world
  /// selects exactly the default placement. Off by default: the extra
  /// allgather costs a little plan time and placement is bit-stable
  /// without it.
  bool staging_aware_placement = false;
};

/// The byte extents an aggregator actually reads for one chunk: the union
/// of all requests inside the chunk, with holes <= sieve_gap read through.
std::vector<pfs::ByteExtent> chunk_read_extents(
    const std::vector<FlatRequest>& domain_requests, pfs::ByteExtent chunk,
    std::uint64_t sieve_gap);

/// The collectively agreed plan. Identical on every rank except for
/// `my_request` / aggregator-held peer requests.
struct TwoPhasePlan {
  std::uint64_t gmin = 0;  ///< global min offset
  std::uint64_t gmax = 0;  ///< global max offset (one past last byte)
  std::vector<int> aggregators;        ///< ranks acting as aggregators
  std::vector<std::uint64_t> fd_begin; ///< per-aggregator domain start
  std::vector<std::uint64_t> fd_end;   ///< per-aggregator domain end
  int n_iters = 0;                     ///< lockstep iteration count
  std::uint64_t cb = 0;                ///< chunk bytes per iteration

  /// Peer requests clipped to my file domain — populated on aggregators
  /// only, indexed by rank.
  std::vector<FlatRequest> domain_requests;

  /// Full (unclipped) request of every rank, replicated to all ranks at
  /// plan time — populated only when the installed chaos schedule carries
  /// control-plane crash points. With the access metadata everywhere,
  /// recovering a dead aggregator's file domain is a pure local computation
  /// (replan_local) that survives cascading failures: no survivor ever
  /// needs to re-ask a rank that may itself die mid-exchange.
  std::vector<FlatRequest> all_requests;

  int aggregator_count() const { return static_cast<int>(aggregators.size()); }
  /// Index of `rank` among aggregators, or -1.
  int aggregator_index(int rank) const;
  bool is_aggregator(int rank) const { return aggregator_index(rank) >= 0; }

  /// Chunk range of aggregator `a` at iteration `k` (may be empty).
  pfs::ByteExtent chunk(int a, int k) const;

  /// A copy of the plan with every byte offset moved by `delta` — valid for
  /// translation-invariant iterative access (core::IterativeComputer).
  TwoPhasePlan shifted(std::int64_t delta) const;

  /// Flat byte image of the whole plan (including domain_requests) for
  /// checkpointing; deserialize() inverts it exactly.
  std::vector<std::byte> serialize() const;
  static TwoPhasePlan deserialize(std::span<const std::byte> bytes);
};

/// Builds the plan collectively. Every rank must call with its own request.
/// Cost model: one allreduce (a max over {-min, max}) agrees on
/// [gmin,gmax). Then every rank sends its offset list clipped to an
/// aggregator's file domain to that aggregator only when the clipped list
/// is non-empty, and one more allreduce — of an nprocs × aggregators
/// bitmap, one bit per non-empty list — tells each aggregator exactly
/// which ranks send. The exchange is two collectives plus one message per
/// non-empty (rank, aggregator) list: a contiguous slab per rank sends
/// about one list, an interleaved request one to every aggregator. Ranks
/// already crashed at t=0 under an installed chaos schedule are never
/// selected as aggregators.
/// `my_residency` is this rank's staging-residency score
/// (stage::StagingArea::residency_bytes of the target file), consulted only
/// under hints.staging_aware_placement — which adds one allgather to share
/// the scores.
TwoPhasePlan build_plan(mpi::Comm& comm, const FlatRequest& mine,
                        const Hints& hints, std::uint64_t my_residency = 0);

/// Message-free plan build over replicated access metadata: computes the
/// plan a healthy build_plan would agree on for a world whose alive members
/// are exactly `survivors` (ascending world ranks), from every rank's full
/// request (`all_requests`, indexed by world rank; entries of ranks outside
/// `survivors` are ignored and treated as empty). Pure local computation —
/// no collectives, so it is safe to call with dead world members and
/// produces the identical plan on every survivor. Aggregator candidates
/// come from `survivors`; staging-aware placement is never consulted (its
/// residency allgather is a collective). `rank` only selects whether
/// domain_requests is populated (this caller is an aggregator of the
/// result); `n_nodes` feeds the default aggregator count.
TwoPhasePlan build_plan_local(const std::vector<FlatRequest>& all_requests,
                              const std::vector<int>& survivors, int rank,
                              int n_nodes, const Hints& hints);

/// Recovery exchange after aggregator `dead_agg` (an index into
/// plan.aggregators) fails: every rank ships the part of its offset list
/// falling in the dead aggregator's file domain to every rank in
/// `survivors`, so any survivor can serve the dead domain's chunks. All
/// ranks must call; returns the per-rank clipped requests (indexed by rank)
/// on ranks in `survivors` and an empty vector elsewhere.
std::vector<FlatRequest> replan_exchange(mpi::Comm& comm,
                                         const TwoPhasePlan& plan,
                                         int dead_agg,
                                         const std::vector<int>& survivors,
                                         const FlatRequest& mine,
                                         const Hints& hints);

/// Message-free variant of replan_exchange for plans carrying replicated
/// access metadata (plan.all_requests): every caller clips every rank's
/// request to the dead aggregator's file domain locally. Because nothing is
/// exchanged, the result is identical on every survivor even when further
/// ranks die concurrently — the property the fault-tolerant control plane
/// relies on for cascading-failure recovery. Contains the `replan` chaos
/// crash point.
std::vector<FlatRequest> replan_local(mpi::Comm& comm,
                                      const TwoPhasePlan& plan, int dead_agg);

}  // namespace colcom::romio
