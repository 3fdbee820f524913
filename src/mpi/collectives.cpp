// Collective algorithms over point-to-point: binomial bcast/reduce,
// dissemination barrier, direct gather/scatter, pairwise alltoallv.
// Mirrors the classic MPICH algorithm choices so communication cost emerges
// from the network model.
#include <cstring>
#include <memory>
#include <vector>

#include "check/check.hpp"
#include "mpi/comm.hpp"
#include "mpi/world.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace colcom::mpi {

namespace {
// Distinct internal tags per collective kind.
constexpr int kTagBarrier = kCollectiveTagBase - 0;
constexpr int kTagBcast = kCollectiveTagBase - 1;
constexpr int kTagReduce = kCollectiveTagBase - 2;
constexpr int kTagGather = kCollectiveTagBase - 3;
constexpr int kTagScatter = kCollectiveTagBase - 4;
constexpr int kTagAlltoall = kCollectiveTagBase - 5;

[[maybe_unused]] const bool kTagsRegistered = [] {
  check::register_tag(kTagBarrier, "coll.barrier");
  check::register_tag(kTagBcast, "coll.bcast");
  check::register_tag(kTagReduce, "coll.reduce");
  check::register_tag(kTagGather, "coll.gather");
  check::register_tag(kTagScatter, "coll.scatter");
  check::register_tag(kTagAlltoall, "coll.alltoall");
  return true;
}();

// Collective kinds for the CHK-COLL sequence verifier. Composites
// (allreduce = reduce + bcast, gather -> gatherv, allgatherv = gatherv +
// bcast) record at every public entry, so the nested records stay
// rank-consistent whenever the outer calls do.
enum class Coll : int {
  barrier,
  bcast,
  reduce,
  allreduce,
  gatherv,
  allgatherv,
  scatter,
  alltoallv,
};

void note_coll(int rank, Coll kind, const char* name, int root = -1,
               std::uint64_t bytes = 0, int prim = -1, int op = -1,
               std::uint64_t sig = 0, bool compare_shape = true) {
  check::Checker* ck = check::Checker::current();
  if (ck == nullptr) return;
  check::CollCall call;
  call.kind = static_cast<int>(kind);
  call.name = name;
  call.root = root;
  call.bytes = bytes;
  call.prim = prim;
  call.op = op;
  call.sig = sig;
  call.compare_shape = compare_shape;
  ck->on_collective(rank, call);
}
}  // namespace

void Comm::barrier() {
  TRACE_SPAN(engine(), "coll", "barrier");
  TRACE_COUNT(engine(), ::colcom::trace::Track::ranks, "mpi.collectives", 1);
  note_coll(rank_, Coll::barrier, "barrier");
  const int n = size();
  for (int mask = 1; mask < n; mask <<= 1) {
    const int dst = (rank_ + mask) % n;
    const int src = (rank_ - mask + n) % n;
    std::byte token{};
    sendrecv(dst, kTagBarrier, {}, src, kTagBarrier, {&token, 0});
  }
}

void Comm::bcast(std::span<std::byte> data, int root) {
  TRACE_SPAN(engine(), "coll", "bcast");
  TRACE_COUNT(engine(), ::colcom::trace::Track::ranks, "mpi.collectives", 1);
  note_coll(rank_, Coll::bcast, "bcast", root, data.size());
  const int n = size();
  COLCOM_EXPECT(root >= 0 && root < n);
  if (n == 1) return;
  const int relrank = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (relrank & mask) {
      const int src = (rank_ - mask + n) % n;
      recv(src, kTagBcast, data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relrank + mask < n) {
      const int dst = (rank_ + mask) % n;
      send(dst, kTagBcast, data);
    }
    mask >>= 1;
  }
}

void Comm::reduce(const void* send_buf, void* recv_buf, std::size_t count,
                  Prim p, const Op& op, int root) {
  // Only the root's recv_buf is written (MPI semantics); any other rank
  // accumulates in a buffer of its own.
  std::vector<std::byte> own(rank_ == root ? 0 : count * prim_size(p));
  auto* acc = rank_ == root ? static_cast<std::byte*>(recv_buf) : own.data();
  reduce_into(send_buf, acc, count, p, op, root);
}

void Comm::reduce_into(const void* send_buf, std::byte* acc, std::size_t count,
                       Prim p, const Op& op, int root) {
  TRACE_SPAN(engine(), "coll", "reduce");
  TRACE_COUNT(engine(), ::colcom::trace::Track::ranks, "mpi.collectives", 1);
  note_coll(rank_, Coll::reduce, "reduce", root, count, static_cast<int>(p),
            static_cast<int>(op.kind()));
  const int n = size();
  COLCOM_EXPECT(root >= 0 && root < n);
  COLCOM_EXPECT(op.valid() && op.commutative());
  const std::size_t bytes = count * prim_size(p);
  if (acc != send_buf) std::memcpy(acc, send_buf, bytes);

  // One receive scratch, left uninitialized: every receive fills it whole.
  std::unique_ptr<std::byte[]> tmp;
  const int relrank = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((relrank & mask) == 0) {
      const int rel_src = relrank | mask;
      if (rel_src < n) {
        const int src = (rel_src + root) % n;
        if (!tmp) tmp = std::make_unique_for_overwrite<std::byte[]>(bytes);
        recv(src, kTagReduce, std::span<std::byte>(tmp.get(), bytes));
        op.apply(tmp.get(), acc, count, p);
        // Charge the combine as user compute (bytes touched / memcpy rate).
        compute(static_cast<double>(bytes) / world_->rt->config().memcpy_bw);
      }
    } else {
      const int dst = ((relrank & ~mask) + root) % n;
      send(dst, kTagReduce, std::span<const std::byte>(acc, bytes));
      break;
    }
    mask <<= 1;
  }
}

void Comm::allreduce(const void* send_buf, void* recv_buf, std::size_t count,
                     Prim p, const Op& op) {
  TRACE_SPAN(engine(), "coll", "allreduce");
  TRACE_COUNT(engine(), ::colcom::trace::Track::ranks, "mpi.collectives", 1);
  note_coll(rank_, Coll::allreduce, "allreduce", -1, count,
            static_cast<int>(p), static_cast<int>(op.kind()));
  // Every rank accumulates in its result buffer, which the bcast overwrites
  // anyway.
  auto* result = static_cast<std::byte*>(recv_buf);
  reduce_into(send_buf, result, count, p, op, 0);
  bcast({result, count * prim_size(p)}, 0);
}

void Comm::gather(std::span<const std::byte> send, std::span<std::byte> recv,
                  int root) {
  const auto n = static_cast<std::size_t>(size());
  std::vector<std::uint64_t> counts(n, send.size());
  if (rank_ == root) {
    COLCOM_EXPECT(recv.size() >= n * send.size());
  }
  gatherv(send, counts, recv, root);
}

void Comm::gatherv(std::span<const std::byte> send,
                   std::span<const std::uint64_t> counts,
                   std::span<std::byte> recv, int root) {
  TRACE_SPAN(engine(), "coll", "gatherv");
  TRACE_COUNT(engine(), ::colcom::trace::Track::ranks, "mpi.collectives", 1);
  // Per-rank send sizes differ by design; the (globally identical) counts
  // array is the comparable signature.
  note_coll(rank_, Coll::gatherv, "gatherv", root, 0, -1, -1,
            check::checksum(std::as_bytes(counts)));
  const int n = size();
  COLCOM_EXPECT(static_cast<int>(counts.size()) == n);
  COLCOM_EXPECT(send.size() == counts[static_cast<std::size_t>(rank_)]);
  if (rank_ != root) {
    send_t(root, kTagGather, send);
    return;
  }
  std::vector<std::uint64_t> displ(static_cast<std::size_t>(n) + 1, 0);
  for (int r = 0; r < n; ++r) {
    displ[static_cast<std::size_t>(r) + 1] =
        displ[static_cast<std::size_t>(r)] + counts[static_cast<std::size_t>(r)];
  }
  COLCOM_EXPECT(recv.size() >= displ[static_cast<std::size_t>(n)]);
  std::vector<Request> reqs;
  reqs.reserve(static_cast<std::size_t>(n) - 1);
  for (int r = 0; r < n; ++r) {
    auto slice = recv.subspan(displ[static_cast<std::size_t>(r)],
                              counts[static_cast<std::size_t>(r)]);
    if (r == rank_) {
      std::memcpy(slice.data(), send.data(), send.size());
    } else {
      reqs.push_back(irecv(r, kTagGather, slice));
    }
  }
  wait_all(reqs);
}

void Comm::allgatherv(std::span<const std::byte> send,
                      std::span<const std::uint64_t> counts,
                      std::span<std::byte> recv) {
  TRACE_SPAN(engine(), "coll", "allgatherv");
  TRACE_COUNT(engine(), ::colcom::trace::Track::ranks, "mpi.collectives", 1);
  note_coll(rank_, Coll::allgatherv, "allgatherv", -1, 0, -1, -1,
            check::checksum(std::as_bytes(counts)));
  gatherv(send, counts, recv, 0);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  bcast(recv.subspan(0, total), 0);
}

void Comm::scatter(std::span<const std::byte> send, std::span<std::byte> recv,
                   int root) {
  TRACE_SPAN(engine(), "coll", "scatter");
  TRACE_COUNT(engine(), ::colcom::trace::Track::ranks, "mpi.collectives", 1);
  note_coll(rank_, Coll::scatter, "scatter", root, recv.size());
  const int n = size();
  if (rank_ == root) {
    COLCOM_EXPECT(send.size() >= static_cast<std::size_t>(n) * recv.size());
    std::vector<Request> reqs;
    for (int r = 0; r < n; ++r) {
      auto slice = send.subspan(static_cast<std::size_t>(r) * recv.size(),
                                recv.size());
      if (r == rank_) {
        std::memcpy(recv.data(), slice.data(), slice.size());
      } else {
        reqs.push_back(isend(r, kTagScatter, slice));
      }
    }
    wait_all(reqs);
  } else {
    recv_t(root, kTagScatter, recv);
  }
}

void Comm::alltoallv(std::span<const std::byte> send,
                     std::span<const std::uint64_t> send_counts,
                     std::span<const std::uint64_t> send_displs,
                     std::span<std::byte> recv,
                     std::span<const std::uint64_t> recv_counts,
                     std::span<const std::uint64_t> recv_displs) {
  TRACE_SPAN(engine(), "coll", "alltoallv");
  TRACE_COUNT(engine(), ::colcom::trace::Track::ranks, "mpi.collectives", 1);
  // Per-peer counts/displacements legitimately differ per rank: the kind is
  // the whole comparable signature.
  note_coll(rank_, Coll::alltoallv, "alltoallv", -1, 0, -1, -1, 0,
            /*compare_shape=*/false);
  const int n = size();
  COLCOM_EXPECT(static_cast<int>(send_counts.size()) == n &&
                static_cast<int>(send_displs.size()) == n &&
                static_cast<int>(recv_counts.size()) == n &&
                static_cast<int>(recv_displs.size()) == n);
  const auto me = static_cast<std::size_t>(rank_);
  // Local slice first.
  COLCOM_EXPECT(send_counts[me] == recv_counts[me]);
  if (send_counts[me] > 0) {
    std::memcpy(recv.data() + recv_displs[me], send.data() + send_displs[me],
                send_counts[me]);
  }
  // Pairwise exchange: round r talks to rank±r, so each channel carries one
  // message per round and hot spots rotate around the mesh.
  for (int r = 1; r < n; ++r) {
    const auto dst = static_cast<std::size_t>((rank_ + r) % n);
    const auto src = static_cast<std::size_t>((rank_ - r + n) % n);
    sendrecv(static_cast<int>(dst), kTagAlltoall,
             send.subspan(send_displs[dst], send_counts[dst]),
             static_cast<int>(src), kTagAlltoall,
             recv.subspan(recv_displs[src], recv_counts[src]));
  }
}

}  // namespace colcom::mpi
