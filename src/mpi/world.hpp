// Internal shared state of the rank world: mailboxes, matching, sequencing.
// Not part of the public API.
#pragma once

#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "des/completion.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"

namespace colcom::mpi {

/// Per-message header bytes charged on the wire (envelope + protocol).
constexpr std::uint64_t kMsgHeaderBytes = 64;

/// Tags below this are reserved for internal collective algorithms.
constexpr int kCollectiveTagBase = -1000;

/// Loss-roll salts separating the three retransmittable wire legs of one
/// message (fault::ChaosSchedule::drop_transfer).
constexpr int kSaltEager = 0;
constexpr int kSaltRts = 1;
constexpr int kSaltPayload = 2;

struct Msg {
  int src = -1;
  int tag = 0;
  std::uint64_t seq = 0;
  std::uint64_t stamp = 0;  ///< arrival order in the receiver's mailbox
  /// The bytes to deliver. They stay in the sender's buffer, lent until
  /// they are handed to a receive (MPI forbids touching a send buffer
  /// before its request completes), and move into `owned` only when the
  /// message must outlive the lend: an eager arrival that is queued instead
  /// of matched (its send completes at arrival), an abandoned send, and
  /// checker sessions, which copy at post.
  std::span<const std::byte> payload;
  std::vector<std::byte> owned;
  /// Large messages use a rendezvous protocol: only a request-to-send
  /// travels eagerly; the payload moves after the receive is matched
  /// (clear-to-send), and the sender's request completes with the payload.
  bool rendezvous = false;
  std::shared_ptr<des::CompletionSource> send_done;  // rendezvous only
  std::uint64_t trace_flow = 0;  ///< flow-arrow id, 0 when tracing is off
  std::uint64_t check_id = 0;    ///< checker envelope id, 0 when checking off
  /// Payload checksum sampled at post time (CHK-SUM); travels with the
  /// envelope because the sender's SendRec is erased at match time.
  std::uint64_t check_sum = 0;
  /// Set when the chaos retransmit budget ran out: the message is delivered
  /// poisoned so both endpoints observe fault::Error instead of deadlocking.
  bool failed = false;

  /// True while `payload` points into the sender's buffer.
  bool lends() const {
    return !payload.empty() && payload.data() != owned.data();
  }
  /// Copies a lent payload into `owned`; the sender may reuse its buffer
  /// from here on.
  void own() {
    if (!lends()) return;
    owned.assign(payload.begin(), payload.end());
    payload = owned;
  }
  /// Eager arrivals that are queued (unexpected or held back for order)
  /// own their bytes, since the eager send completes at arrival. A
  /// rendezvous payload stays lent until its hand-off.
  void queue() {
    if (!rendezvous) own();
  }
  /// Drops the payload once it has been handed off or poisoned.
  void release() {
    payload = {};
    std::vector<std::byte>().swap(owned);
  }
};

struct PostedRecv {
  int src = kAnySource;
  int tag = kAnyTag;
  std::uint64_t stamp = 0;  ///< post order in the receiver's mailbox
  std::span<std::byte> dst;
  /// Set by the sized receives: the payload lands here, resized to the
  /// message, and `dst` is unused.
  std::vector<std::byte>* sized = nullptr;
  bool matched = false;
  bool failed = false;  ///< matched a poisoned message; wait() throws
  bool dead_peer = false;  ///< recv_ft declared the source process dead
  MsgInfo info;
  std::unique_ptr<des::CompletionSource> cs;
};

/// One (src, dst) pair: sequence numbers for non-overtaking delivery and
/// the pair's matching queues. A world holds up to P^2 of these, so empty
/// queues must not allocate (std::deque would, ~600 B each).
struct PairChannel {
  std::uint64_t next_send_seq = 0;
  std::uint64_t next_deliver_seq = 0;
  /// Arrived, unmatched messages from src, in arrival order.
  std::vector<std::shared_ptr<Msg>> unexpected;
  /// Pending receives at dst naming src, in post order.
  std::vector<std::shared_ptr<PostedRecv>> posted;
  /// Early arrivals waiting for a predecessor (the network may reorder).
  std::map<std::uint64_t, std::shared_ptr<Msg>> holdback;

  /// Hands `msg` to `release` if it is next in send order, then every
  /// held-back successor it unblocks. An early arrival is held back; an
  /// already-delivered seq (a retransmission that raced its ack) is dropped.
  template <typename Release>
  void release_in_order(std::shared_ptr<Msg> msg, Release&& release) {
    if (msg->seq != next_deliver_seq) {
      if (msg->seq > next_deliver_seq) {
        msg->queue();
        holdback.try_emplace(msg->seq, std::move(msg));
      }
      return;
    }
    ++next_deliver_seq;
    release(std::move(msg));
    while (!holdback.empty() && holdback.begin()->first == next_deliver_seq) {
      auto next = std::move(holdback.begin()->second);
      holdback.erase(holdback.begin());
      ++next_deliver_seq;
      release(std::move(next));
    }
  }
};

/// Per-rank matching state besides the pair queues. Allocates nothing until
/// a wildcard receive is posted.
struct Mailbox {
  /// One counter stamps every post and every arrival at this rank, so
  /// matches across several queues keep MPI's order exactly.
  std::uint64_t next_stamp = 0;
  /// Pending kAnySource receives, in post order.
  std::vector<std::shared_ptr<PostedRecv>> any_source;
};

struct World {
  Runtime* rt = nullptr;
  int nprocs = 0;
  std::vector<Mailbox> mailbox;                       // per dst rank
  std::unordered_map<std::uint64_t, PairChannel> chans;  // key src*n+dst
  std::vector<Comm> comms;                            // per rank

  /// ULFM-style death registry: dead[r] != 0 once rank r's process crashed
  /// at a control-plane crash point. Written synchronously by kill_rank(),
  /// read by Comm::recv_ft's failure-detection timer and by Comm::alive().
  std::vector<char> dead;
  /// Per-rank, per-fault::Phase entry counters driving crash points
  /// (indexed by static_cast<int>(Phase)).
  std::vector<std::array<int, 7>> phase_hits;

  /// Marks `rank` dead, bumps fault.rank.* metrics and emits a trace
  /// instant. Idempotent.
  void kill_rank(int rank);

  PairChannel& chan(int src, int dst) { return chans[pair_key(src, dst)]; }

  /// Matches an in-order arrival at `dst` on its pair `ch`: removes and
  /// returns the earliest-posted receive matching it, from the pair queue or
  /// the wildcard queue. Without one, moves `msg` into the pair's
  /// unexpected queue (an eager `msg` takes its own copy of the payload
  /// first) and returns nullptr.
  std::shared_ptr<PostedRecv> match_arrival(int dst, PairChannel& ch,
                                            std::shared_ptr<Msg>& msg);

  /// Matches a receive posted at `dst`: removes and returns the
  /// earliest-arrived matching message (across every peer for kAnySource).
  /// Without one, moves `pr` into its pending queue and returns nullptr.
  std::shared_ptr<Msg> match_post(int dst, std::shared_ptr<PostedRecv>& pr);

  /// Withdraws a pending receive at `dst` (recv_ft's dead-peer verdict).
  void cancel_post(int dst, const PostedRecv& pr);

  /// Called in event context when a message's transfer (or its RTS)
  /// completes; enforces per-pair FIFO then matches or enqueues. Duplicate
  /// seqs (late-ack retransmissions under chaos) are dropped here.
  void deliver(int dst, std::shared_ptr<Msg> msg);

  /// Chaos path: ships `wire_bytes` from `src_rank` to `dst_rank` under the
  /// ack/timeout/backoff retransmit protocol. Each attempt rolls a
  /// deterministic loss decision; the sender arms an ack deadline (backed
  /// off per retry) and retransmits until the ack arrives or max_retries is
  /// spent. Exactly one terminal callback runs (event context, must not
  /// block): `on_acked` after delivery + ack, or `on_failed` past the
  /// budget. `on_delivered` runs once at first arrival (before the ack).
  void ship_with_retry(int src_rank, int dst_rank, std::uint64_t wire_bytes,
                       std::uint64_t seq, int salt,
                       std::function<void()> on_delivered,
                       std::function<void()> on_acked,
                       std::function<void()> on_failed);

  /// Completes a matched pair: eager messages copy out immediately;
  /// rendezvous messages run CTS + payload transfer first. The hand-off is
  /// the payload's one copy on the host, from the sender's buffer (or the
  /// message's own copy) into the receive.
  void complete_match(int dst, std::shared_ptr<Msg> msg,
                      std::shared_ptr<PostedRecv> pr);

 private:
  std::uint64_t pair_key(int src, int dst) const {
    return static_cast<std::uint64_t>(src) *
               static_cast<std::uint64_t>(nprocs) +
           static_cast<std::uint64_t>(dst);
  }
};

}  // namespace colcom::mpi
