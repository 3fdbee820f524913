// The message-passing runtime: ranks, point-to-point with MPI matching
// semantics, and collectives.
//
// Each simulated rank is a DES fiber; a Comm is that rank's view of the
// world (rank id + shared matching state). Point-to-point follows MPI rules:
// (source, tag) matching with wildcards, and non-overtaking delivery per
// (sender, receiver) pair even when the network would reorder. Collectives
// are implemented algorithmically over point-to-point (binomial trees,
// dissemination, pairwise exchange), so their cost emerges from the network
// model instead of being postulated.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "des/completion.hpp"
#include "des/engine.hpp"
#include "mpi/datatype.hpp"
#include "mpi/op.hpp"

namespace colcom::fault {
enum class Phase;
}

namespace colcom::mpi {

class Runtime;
struct World;
class Comm;

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

/// Thrown by ft::crash_point to unwind a crashed rank's fiber mid-phase;
/// Runtime::run's rank wrapper absorbs it (the process is simply gone).
struct RankStop {};

namespace ft {
class Group;
struct Verdict;
void crash_point(Comm& comm, fault::Phase phase);
Verdict agree(Comm& comm, std::span<const std::uint64_t> mask, int epoch);
}  // namespace ft

/// Envelope information returned by receives.
struct MsgInfo {
  int source = -1;
  int tag = -1;
  std::uint64_t bytes = 0;
};

/// Handle for a nonblocking operation.
class Request {
 public:
  Request() = default;
  bool valid() const { return state_ != nullptr; }
  /// Blocks the calling fiber until the operation completes.
  void wait();
  bool done() const;
  /// Envelope of a completed receive (contract error for sends/incomplete).
  MsgInfo info() const;

 private:
  friend class Comm;
  struct State;
  std::shared_ptr<State> state_;
};

/// Waits for all requests (any order).
void wait_all(std::span<Request> reqs);

/// A rank's bound view of the communicator.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  // --- point-to-point, raw bytes ---
  void send(int dst, int tag, std::span<const std::byte> data);
  /// Nonblocking send. `data` is lent to the message until the request
  /// completes: the payload is copied once, into the matching receive,
  /// straight from `data` (or into the message itself when an eager
  /// arrival finds no receive posted). So `data` must stay unchanged until
  /// the request completes, as MPI requires, and must outlive the Request:
  /// a request destroyed before it completes copies the payload out of
  /// `data` then.
  Request isend(int dst, int tag, std::span<const std::byte> data);
  MsgInfo recv(int src, int tag, std::span<std::byte> dst);
  /// Sized receive: `dst` takes the message's length, whatever its size
  /// before, for payloads whose length the receiver cannot know (offset
  /// lists). Same messages and the same memcpy_bw charge as the span
  /// overload; a std::vector<std::byte> lvalue binds here.
  MsgInfo recv(int src, int tag, std::vector<std::byte>& dst);
  Request irecv(int src, int tag, std::span<std::byte> dst);
  /// Combined exchange — deadlock-free even when all ranks call it at once.
  void sendrecv(int dst, int send_tag, std::span<const std::byte> send_data,
                int src, int recv_tag, std::span<std::byte> recv_buf);

  // --- ULFM-flavored fault tolerance ---

  /// True while `rank`'s process has not died at a control-plane crash
  /// point (liveness query against the world's death registry).
  bool alive(int rank) const;

  /// Fault-tolerant receive: like recv(), but while the receive pends a
  /// des::Timer polls the death registry every
  /// `chaos.crash_detect_timeout_s`. A source that stays dead over two
  /// consecutive polls with nothing matched makes the receive fail with
  /// `fault::Error{rank_failed}` instead of hanging — the double
  /// confirmation gives pre-death in-flight messages (wire times orders of
  /// magnitude below the timeout) room to land first. Falls back to plain
  /// recv() when no injector is installed.
  MsgInfo recv_ft(int src, int tag, std::span<std::byte> dst);
  /// Fault-tolerant sized receive: `dst` takes the message's length.
  MsgInfo recv_ft(int src, int tag, std::vector<std::byte>& dst);

  /// ULFM shrink: survivor group over the currently-alive ranks, with
  /// crash-aware collectives (see mpi/ft.hpp). `epoch` namespaces the
  /// group's internal tags so successive shrinks don't cross-match.
  ft::Group shrink(int epoch = 0);

  // --- typed conveniences ---
  template <typename T>
  void send_t(int dst, int tag, std::span<const T> v) {
    send(dst, tag, std::as_bytes(v));
  }
  template <typename T>
  MsgInfo recv_t(int src, int tag, std::span<T> v) {
    return recv(src, tag, std::as_writable_bytes(v));
  }

  // --- collectives (all ranks of the world must participate) ---
  void barrier();
  void bcast(std::span<std::byte> data, int root);
  /// recv = reduction over all ranks' `send` (count elements of p), written
  /// at root only; send == recv reduces in place there.
  void reduce(const void* send, void* recv, std::size_t count, Prim p,
              const Op& op, int root);
  /// Every rank accumulates in its own `recv`, so no two ranks may pass the
  /// same one; send == recv reduces in place.
  void allreduce(const void* send, void* recv, std::size_t count, Prim p,
                 const Op& op);
  /// Equal-size gather; recv (root only) holds size() * block bytes.
  void gather(std::span<const std::byte> send, std::span<std::byte> recv,
              int root);
  /// Variable-size gather: counts[i] bytes from rank i, packed in rank order.
  void gatherv(std::span<const std::byte> send,
               std::span<const std::uint64_t> counts,
               std::span<std::byte> recv, int root);
  void allgatherv(std::span<const std::byte> send,
                  std::span<const std::uint64_t> counts,
                  std::span<std::byte> recv);
  void scatter(std::span<const std::byte> send, std::span<std::byte> recv,
               int root);
  /// Pairwise-exchange all-to-all with per-peer counts/displacements (bytes).
  void alltoallv(std::span<const std::byte> send,
                 std::span<const std::uint64_t> send_counts,
                 std::span<const std::uint64_t> send_displs,
                 std::span<std::byte> recv,
                 std::span<const std::uint64_t> recv_counts,
                 std::span<const std::uint64_t> recv_displs);

  // --- environment ---
  Runtime& runtime() const;
  des::Engine& engine() const;
  /// Node hosting this rank.
  int node() const;
  int node_of(int rank) const;
  /// Virtual wall clock (MPI_Wtime).
  double wtime() const;
  /// Burns `seconds` of CPU as user (application) time.
  void compute(double seconds);
  /// Burns `seconds` of CPU as sys (pack/copy/metadata) time.
  void overhead(double seconds);

  /// Spawns a helper fiber on this rank's node (the paper's Fig. 7 runs an
  /// I/O thread and a shuffle thread per aggregator). Returns a completion
  /// firing when `fn` returns.
  des::Completion spawn_thread(const std::string& name,
                               std::function<void()> fn);

 private:
  friend class Runtime;
  friend struct World;
  friend void ft::crash_point(Comm&, fault::Phase);
  friend ft::Verdict ft::agree(Comm&, std::span<const std::uint64_t>, int);
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  /// The binomial reduce tree towards `root`, accumulating in `acc`: it
  /// starts as this rank's `send` (acc == send is in place) and ends, at
  /// root, as the result.
  void reduce_into(const void* send, std::byte* acc, std::size_t count,
                   Prim p, const Op& op, int root);

  /// Applies the chaos straggler factor (1.0 on a fault-free machine).
  double scale_cpu(double seconds) const;

  /// Posts a receive into `dst`, or into `*sized` (resized to the message)
  /// when `sized` is set; recv_into and recv_ft_into wait for it.
  Request post_recv(int src, int tag, std::span<std::byte> dst,
                    std::vector<std::byte>* sized);
  MsgInfo recv_into(int src, int tag, std::span<std::byte> dst,
                    std::vector<std::byte>* sized);
  MsgInfo recv_ft_into(int src, int tag, std::span<std::byte> dst,
                       std::vector<std::byte>* sized);

  World* world_ = nullptr;
  int rank_ = -1;
};

}  // namespace colcom::mpi
