#include "mpi/comm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "check/check.hpp"
#include "des/sched.hpp"
#include "des/timer.hpp"
#include "fault/fault.hpp"
#include "mpi/world.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"

namespace colcom::mpi {

// ---------------------------------------------------------------- Request

struct Request::State {
  des::Completion completion;
  const PostedRecv* recv = nullptr;        // for irecv info()
  std::shared_ptr<PostedRecv> recv_own;    // keeps the posted recv alive
  std::shared_ptr<Msg> sent_msg;           // sends: the lend, chaos failure flag
  check::PendingOp check_op;               // deadlock registry entry
  std::span<const std::byte> check_buf;    // CHK-BUF: app buffer at post time
  std::uint64_t check_sum = 0;
  bool check_armed = false;

  // A send that loses its last handle before it completes (an unwinding
  // exception, a crash point's RankStop, a dropped request) copies its
  // payload out of the sender's buffer now, so its message still delivers
  // the bytes posted. Hence every send buffer must outlive its Request.
  ~State() {
    if (sent_msg != nullptr) sent_msg->own();
  }
};

void Request::wait() {
  COLCOM_EXPECT(valid());
  check::Checker* ck = check::Checker::current();
  const bool tracked = ck != nullptr &&
                       state_->check_op.kind != check::PendingOp::Kind::none &&
                       !state_->completion.done();
  if (tracked) ck->on_wait_begin(state_->check_op);
  state_->completion.wait();
  if (tracked) ck->on_wait_end();
  if (state_->recv != nullptr && state_->recv->failed) {
    throw fault::Error(fault::Layer::mpi, fault::Kind::retry_exhausted,
                       "receive matched a message whose sender exhausted its "
                       "retransmit budget");
  }
  if (state_->sent_msg != nullptr && state_->sent_msg->failed) {
    throw fault::Error(fault::Layer::mpi, fault::Kind::retry_exhausted,
                       "send failed after max_retries retransmits");
  }
  if (ck != nullptr && state_->check_armed) {
    state_->check_armed = false;
    ck->verify_send_buffer(state_->check_op, state_->check_buf,
                           state_->check_sum);
  }
}

bool Request::done() const {
  COLCOM_EXPECT(valid());
  return state_->completion.done();
}

MsgInfo Request::info() const {
  COLCOM_EXPECT(valid());
  COLCOM_EXPECT_MSG(state_->recv != nullptr, "info() is for receives");
  COLCOM_EXPECT_MSG(state_->completion.done(), "request not complete");
  return state_->recv->info;
}

void wait_all(std::span<Request> reqs) {
  for (auto& r : reqs) r.wait();
}

// ---------------------------------------------------------------- World

void World::kill_rank(int rank) {
  char& d = dead[static_cast<std::size_t>(rank)];
  if (d != 0) return;
  d = 1;
  if (fault::Injector* fi = rt->chaos(); fi != nullptr) {
    fi->note_rank_crash(rank);
  }
  if (check::Checker* ck = check::Checker::current(); ck != nullptr) {
    ck->on_rank_dead(rank);
  }
  if (trace::Tracer* tr = trace::Tracer::current(); tr != nullptr) {
    tr->instant(trace::Track::ranks, rank, "fault", "rank_crashed",
                rt->engine().now());
  }
}

void World::deliver(int dst, std::shared_ptr<Msg> msg) {
  PairChannel& ch = chan(msg->src, dst);
  // Release in send order (MPI non-overtaking even if the network reorders).
  ch.release_in_order(std::move(msg), [this, dst, &ch](std::shared_ptr<Msg> m) {
    des::note_access(des::mailbox_key(dst));
    if (auto pr = match_arrival(dst, ch, m)) {
      complete_match(dst, std::move(m), std::move(pr));
    }
  });
}

namespace {

// Removes and returns the queue entry at `it`.
template <typename T>
std::shared_ptr<T> take(std::vector<std::shared_ptr<T>>& q,
                        typename std::vector<std::shared_ptr<T>>::iterator it) {
  std::shared_ptr<T> out = std::move(*it);
  q.erase(it);
  return out;
}

}  // namespace

std::shared_ptr<PostedRecv> World::match_arrival(int dst, PairChannel& ch,
                                                 std::shared_ptr<Msg>& msg) {
  Mailbox& mb = mailbox[static_cast<std::size_t>(dst)];
  const auto wants = [tag = msg->tag](const std::shared_ptr<PostedRecv>& pr) {
    return pr->tag == kAnyTag || pr->tag == tag;
  };
  const auto named = std::find_if(ch.posted.begin(), ch.posted.end(), wants);
  const auto wild =
      std::find_if(mb.any_source.begin(), mb.any_source.end(), wants);
  // The earliest-posted match wins, whichever queue holds it.
  if (named != ch.posted.end() &&
      (wild == mb.any_source.end() || (*named)->stamp < (*wild)->stamp)) {
    return take(ch.posted, named);
  }
  if (wild != mb.any_source.end()) return take(mb.any_source, wild);
  msg->stamp = mb.next_stamp++;
  msg->queue();
  ch.unexpected.push_back(std::move(msg));
  return nullptr;
}

std::shared_ptr<Msg> World::match_post(int dst,
                                       std::shared_ptr<PostedRecv>& pr) {
  Mailbox& mb = mailbox[static_cast<std::size_t>(dst)];
  const auto wanted = [tag = pr->tag](const std::shared_ptr<Msg>& m) {
    return tag == kAnyTag || m->tag == tag;
  };
  if (pr->src != kAnySource) {
    PairChannel& ch = chan(pr->src, dst);
    const auto it =
        std::find_if(ch.unexpected.begin(), ch.unexpected.end(), wanted);
    if (it != ch.unexpected.end()) return take(ch.unexpected, it);
    pr->stamp = mb.next_stamp++;
    ch.posted.push_back(std::move(pr));
    return nullptr;
  }
  // Wildcard source: the earliest arrival across every peer's pair queue.
  std::vector<std::shared_ptr<Msg>>* best_q = nullptr;
  std::vector<std::shared_ptr<Msg>>::iterator best;
  for (int src = 0; src < nprocs; ++src) {
    const auto c = chans.find(pair_key(src, dst));
    if (c == chans.end()) continue;
    auto& q = c->second.unexpected;
    const auto it = std::find_if(q.begin(), q.end(), wanted);
    if (it != q.end() && (best_q == nullptr || (*it)->stamp < (*best)->stamp)) {
      best_q = &q;
      best = it;
    }
  }
  if (best_q != nullptr) return take(*best_q, best);
  pr->stamp = mb.next_stamp++;
  mb.any_source.push_back(std::move(pr));
  return nullptr;
}

void World::cancel_post(int dst, const PostedRecv& pr) {
  auto& q = pr.src == kAnySource
                ? mailbox[static_cast<std::size_t>(dst)].any_source
                : chan(pr.src, dst).posted;
  const auto it = std::find_if(
      q.begin(), q.end(), [&pr](const auto& p) { return p.get() == &pr; });
  if (it != q.end()) q.erase(it);
}

namespace {

// Sender-side state of one retransmitted transfer. try_once references this
// state and is stored inside it; ship_finish clears the closures to break
// the cycle once a terminal callback has run.
struct ShipState {
  explicit ShipState(des::Engine& eng) : timer(eng) {}
  des::Timer timer;
  int attempt = 0;
  bool delivered = false;
  bool acked = false;
  std::function<void()> on_delivered;
  std::function<void()> on_acked;
  std::function<void()> on_failed;
  std::function<void()> try_once;
};

void ship_finish(const std::shared_ptr<ShipState>& st, bool ok) {
  st->timer.cancel();
  std::function<void()> terminal =
      ok ? std::move(st->on_acked) : std::move(st->on_failed);
  st->on_delivered = nullptr;
  st->on_acked = nullptr;
  st->on_failed = nullptr;
  st->try_once = nullptr;
  if (terminal) terminal();
}

}  // namespace

void World::ship_with_retry(int src_rank, int dst_rank,
                            std::uint64_t wire_bytes, std::uint64_t seq,
                            int salt, std::function<void()> on_delivered,
                            std::function<void()> on_acked,
                            std::function<void()> on_failed) {
  fault::Injector* fi = rt->chaos();
  COLCOM_EXPECT(fi != nullptr && fi->net_loss_enabled());
  const int src_node = rt->node_of(src_rank);
  const int dst_node = rt->node_of(dst_rank);
  auto st = std::make_shared<ShipState>(rt->engine());
  st->on_delivered = std::move(on_delivered);
  st->on_acked = std::move(on_acked);
  st->on_failed = std::move(on_failed);
  World* w = this;
  // Points into the injector (stable for the runtime's lifetime); this
  // stack frame is long gone when retries fire.
  const fault::ChaosConfig* nc = &fi->schedule().config();
  st->try_once = [w, st, fi, nc, src_rank, dst_rank, src_node, dst_node,
                  wire_bytes, seq, salt] {
    des::Engine& eng = w->rt->engine();
    const bool dropped =
        fi->schedule().drop_transfer(src_rank, dst_rank, seq, salt,
                                     st->attempt);
    // The wire is charged either way: a lost message still occupied links.
    auto transfer =
        w->rt->network().transfer_async(src_node, dst_node, wire_bytes);
    if (dropped) {
      fi->note_drop();
    } else {
      transfer.on_done([w, st, src_node, dst_node] {
        if (st->try_once == nullptr) return;  // already terminal
        if (!st->delivered) {
          st->delivered = true;
          if (st->on_delivered) st->on_delivered();
        }
        // Acks ride the reliable control plane (header-sized, loss-free
        // like CTS).
        auto ack = w->rt->network().transfer_async(dst_node, src_node,
                                                   kMsgHeaderBytes);
        ack.on_done([st] {
          if (st->try_once == nullptr) return;
          st->acked = true;
          ship_finish(st, true);
        });
      });
    }
    // Ack deadline: base timeout plus round-trip wire time, backed off
    // exponentially per retry.
    const double wire_s =
        2.0 * static_cast<double>(wire_bytes + kMsgHeaderBytes) /
        w->rt->config().net.nic_bw;
    const double deadline =
        (nc->ack_timeout_s + wire_s) *
        std::pow(nc->backoff, static_cast<double>(st->attempt));
    st->timer.arm(eng.now() + deadline, [st, fi, nc, src_rank] {
      if (st->try_once == nullptr) return;
      if (st->acked) return;
      // Delivered with the ack still in flight: the ack is reliable, let
      // it land rather than retransmitting.
      if (st->delivered) return;
      if (st->attempt >= nc->max_retries) {
        fi->note_net_failure();
        ship_finish(st, false);
        return;
      }
      ++st->attempt;
      fi->note_net_retry(src_rank);
      st->try_once();
    });
  };
  st->try_once();
}

void World::complete_match(int dst, std::shared_ptr<Msg> msg,
                           std::shared_ptr<PostedRecv> pr) {
  des::Engine& eng = rt->engine();
  // Single funnel for every match decision (posted-recv and unexpected-scan
  // paths alike): the race analysis and vector-clock merge hook in here.
  if (check::Checker* ck = check::Checker::current();
      ck != nullptr && msg->check_id != 0) {
    ck->on_matched(dst, msg->check_id, pr->src, pr->tag, msg->failed);
  }
  if (msg->failed) {
    // Poisoned delivery: the sender exhausted its retransmit budget. Both
    // endpoints complete and their wait() throws fault::Error.
    msg->release();
    pr->failed = true;
    pr->matched = true;
    pr->info = MsgInfo{msg->src, msg->tag, 0};
    if (msg->send_done != nullptr && !msg->send_done->fired()) {
      msg->send_done->fire();
    }
    pr->cs->fire();
    return;
  }
  auto finish = [&eng, dst](Msg& m, PostedRecv& r) {
    COLCOM_EXPECT_MSG(r.sized != nullptr || m.payload.size() <= r.dst.size(),
                      "message longer than receive buffer");
    // CHK-SUM: the envelope is verified at the hand-off, before the receive
    // buffer is filled — eager and rendezvous deliveries funnel here.
    if (check::Checker* ck = check::Checker::current();
        ck != nullptr && m.check_id != 0) {
      ck->verify_payload(m.src, dst, m.tag, m.payload, m.check_sum);
    }
    if (r.sized != nullptr) {
      r.sized->assign(m.payload.begin(), m.payload.end());
    } else if (!m.payload.empty()) {
      std::memcpy(r.dst.data(), m.payload.data(), m.payload.size());
    }
    r.matched = true;
    r.info = MsgInfo{m.src, m.tag, m.payload.size()};
    m.release();
    // Land the sender's flow arrow on the receiving rank's track at the
    // moment the message is handed to the application.
    if (trace::Tracer* tr = trace::Tracer::current();
        tr != nullptr && m.trace_flow != 0) {
      tr->flow_in(trace::Track::ranks, dst, "mpi", "msg", m.trace_flow,
                  eng.now());
    }
    r.cs->fire();
  };
  if (!msg->rendezvous) {
    finish(*msg, *pr);
    return;
  }
  // Rendezvous: clear-to-send back to the sender, then the payload, then
  // both sides complete.
  net::Network& net = rt->network();
  const int src_node = rt->node_of(msg->src);
  const int dst_node = rt->node_of(dst);
  if (trace::Tracer* tr = trace::Tracer::current(); tr != nullptr) {
    tr->instant(trace::Track::ranks, dst, "mpi", "cts", eng.now());
  }
  auto cts = net.transfer_async(dst_node, src_node, kMsgHeaderBytes);
  World* w = this;
  cts.on_done([w, src_node, dst_node, dst, msg, pr, finish] {
    fault::Injector* fi = w->rt->chaos();
    if (fi != nullptr && fi->net_loss_enabled() && src_node != dst_node) {
      // The rendezvous payload is retransmittable too: ship it under the
      // ack/timeout protocol and poison both endpoints past the budget.
      w->ship_with_retry(
          msg->src, dst, msg->payload.size() + kMsgHeaderBytes, msg->seq,
          kSaltPayload,
          /*on_delivered=*/
          [msg, pr, finish] {
            finish(*msg, *pr);
            msg->send_done->fire();
          },
          /*on_acked=*/nullptr,
          /*on_failed=*/
          [msg, pr] {
            msg->failed = true;
            msg->release();
            pr->failed = true;
            pr->matched = true;
            pr->info = MsgInfo{msg->src, msg->tag, 0};
            pr->cs->fire();
            msg->send_done->fire();
          });
      return;
    }
    auto data = w->rt->network().transfer_async(
        src_node, dst_node, msg->payload.size() + kMsgHeaderBytes);
    data.on_done([msg, pr, finish] {
      finish(*msg, *pr);
      msg->send_done->fire();
    });
  });
}

// ---------------------------------------------------------------- Comm p2p

int Comm::size() const { return world_->nprocs; }
Runtime& Comm::runtime() const { return *world_->rt; }
des::Engine& Comm::engine() const { return world_->rt->engine(); }
int Comm::node() const { return world_->rt->node_of(rank_); }
int Comm::node_of(int rank) const { return world_->rt->node_of(rank); }
double Comm::wtime() const { return engine().now(); }

double Comm::scale_cpu(double seconds) const {
  fault::Injector* fi = world_->rt->chaos();
  if (fi == nullptr || !fi->has_stragglers() || seconds <= 0) return seconds;
  const double f = fi->schedule().cpu_factor(rank_, engine().now());
  if (f <= 1.0) return seconds;
  fi->note_straggler_hit();
  return seconds * f;
}

void Comm::compute(double seconds) {
  engine().advance(scale_cpu(seconds), des::CpuKind::user);
}

void Comm::overhead(double seconds) {
  engine().advance(scale_cpu(seconds), des::CpuKind::sys);
}

Request Comm::isend(int dst, int tag, std::span<const std::byte> data) {
  COLCOM_EXPECT(dst >= 0 && dst < size());
  auto msg = std::make_shared<Msg>();
  msg->src = rank_;
  msg->tag = tag;
  msg->seq = world_->chan(rank_, dst).next_send_seq++;

  const bool eager = data.size() <= world_->rt->config().eager_threshold;
  if (trace::Tracer* tr = trace::Tracer::current(); tr != nullptr) {
    const des::SimTime now = engine().now();
    tr->count(trace::Track::ranks, "mpi.bytes_sent", data.size(), now);
    tr->metrics()
        .counter(eager ? "mpi.msgs_eager" : "mpi.msgs_rendezvous")
        .add(1);
    tr->metrics()
        .histogram("mpi.msg_bytes", {64, 1024, 8192, 65536, 1 << 20})
        .observe(static_cast<double>(data.size()));
    // Flow arrow from the sending fiber's track to the receiving rank.
    const int tid = engine().in_actor() ? engine().current_actor() : rank_;
    msg->trace_flow = tr->next_flow_id();
    tr->flow_out(trace::Track::ranks, tid, "mpi",
                 (eager ? "eager " : "rndv ") + format_bytes(data.size()),
                 msg->trace_flow, now);
  }

  World* w = world_;
  fault::Injector* fi = world_->rt->chaos();
  // Intra-node transfers never traverse the lossy wire.
  const bool lossy_wire =
      fi != nullptr && fi->net_loss_enabled() && node() != node_of(dst);
  Request req;
  req.state_ = std::make_shared<Request::State>();
  if (check::Checker* ck = check::Checker::current(); ck != nullptr) {
    msg->check_id =
        ck->on_send_posted(rank_, dst, tag, data.size(), !eager);
    check::PendingOp& op = req.state_->check_op;
    op.kind = check::PendingOp::Kind::send;
    op.self = rank_;
    op.peer = dst;
    op.tag = tag;
    op.rendezvous = !eager;
    op.bytes = data.size();
    req.state_->check_buf = data;
    req.state_->check_sum = check::checksum(data);
    req.state_->check_armed = true;
    msg->check_sum = req.state_->check_sum;  // CHK-SUM rides the envelope
  }
  if (!world_->dead.empty() &&
      world_->dead[static_cast<std::size_t>(dst)] != 0) {
    // ULFM semantics: a send to a dead process completes locally and the
    // payload is dropped — nobody will ever match it, and a rendezvous
    // handshake with a dead receiver would otherwise hang the sender.
    auto cs = std::make_shared<des::CompletionSource>(engine());
    req.state_->completion = cs->completion();
    cs->fire();
    return req;
  }
  // The message lends `data` until its bytes are handed to a receive (see
  // Msg). A checker session copies at post instead: CHK-SUM then checks
  // the bytes posted, and CHK-BUF names a sender that changes its buffer
  // before wait().
  msg->payload = data;
  if (check::Checker::current() != nullptr) msg->own();
  req.state_->sent_msg = msg;
  if (eager) {
    if (lossy_wire) {
      // Under chaos the eager send completes on the ack (the sender must
      // know whether its retransmit budget sufficed).
      auto cs = std::make_shared<des::CompletionSource>(engine());
      req.state_->completion = cs->completion();
      world_->ship_with_retry(
          rank_, dst, data.size() + kMsgHeaderBytes, msg->seq, kSaltEager,
          /*on_delivered=*/[w, dst, msg] { w->deliver(dst, msg); },
          /*on_acked=*/[cs] { cs->fire(); },
          /*on_failed=*/
          [w, dst, msg, cs] {
            msg->failed = true;
            w->deliver(dst, msg);  // poison the receiver too
            cs->fire();
          });
      return req;
    }
    // Eager: the payload travels immediately; the send completes on
    // delivery regardless of the receiver.
    auto transfer = world_->rt->network().transfer_async(
        node(), node_of(dst), data.size() + kMsgHeaderBytes);
    transfer.on_done([w, dst, msg] { w->deliver(dst, msg); });
    req.state_->completion = transfer;
  } else {
    // Rendezvous: only the RTS travels now; the payload moves when the
    // receiver matches, and this request completes with the payload.
    msg->rendezvous = true;
    msg->send_done = std::make_shared<des::CompletionSource>(engine());
    req.state_->completion = msg->send_done->completion();
    if (lossy_wire) {
      world_->ship_with_retry(
          rank_, dst, kMsgHeaderBytes, msg->seq, kSaltRts,
          /*on_delivered=*/[w, dst, msg] { w->deliver(dst, msg); },
          /*on_acked=*/nullptr,
          /*on_failed=*/
          [w, dst, msg] {
            msg->failed = true;
            w->deliver(dst, msg);  // complete_match fires send_done
          });
      return req;
    }
    auto rts = world_->rt->network().transfer_async(node(), node_of(dst),
                                                    kMsgHeaderBytes);
    rts.on_done([w, dst, msg] { w->deliver(dst, msg); });
  }
  return req;
}

void Comm::send(int dst, int tag, std::span<const std::byte> data) {
  TRACE_SPAN(engine(), "mpi", "send");
  isend(dst, tag, data).wait();
}

Request Comm::irecv(int src, int tag, std::span<std::byte> dst) {
  return post_recv(src, tag, dst, nullptr);
}

Request Comm::post_recv(int src, int tag, std::span<std::byte> dst,
                        std::vector<std::byte>* sized) {
  COLCOM_EXPECT(src == kAnySource || (src >= 0 && src < size()));
  des::note_access(des::mailbox_key(rank_));
  Request req;
  req.state_ = std::make_shared<Request::State>();
  if (check::Checker::current() != nullptr) {
    check::PendingOp& op = req.state_->check_op;
    op.kind = check::PendingOp::Kind::recv;
    op.self = rank_;
    op.peer = src;  // kAnySource (-1) doubles as the checker's wildcard
    op.tag = tag;
    op.tag_any = tag == kAnyTag;
  }

  auto pr = std::make_shared<PostedRecv>();
  pr->src = src;
  pr->tag = tag;
  pr->dst = dst;
  pr->sized = sized;
  pr->cs = std::make_unique<des::CompletionSource>(engine());
  req.state_->completion = pr->cs->completion();
  req.state_->recv = pr.get();
  req.state_->recv_own = pr;
  // The earliest matching arrival wins. Eager payloads complete
  // immediately; rendezvous ones only now start their CTS + payload
  // transfer. Without a match the receive pends.
  if (auto msg = world_->match_post(rank_, pr)) {
    world_->complete_match(rank_, std::move(msg), std::move(pr));
  }
  return req;
}

MsgInfo Comm::recv(int src, int tag, std::span<std::byte> dst) {
  return recv_into(src, tag, dst, nullptr);
}

MsgInfo Comm::recv(int src, int tag, std::vector<std::byte>& dst) {
  return recv_into(src, tag, {}, &dst);
}

MsgInfo Comm::recv_into(int src, int tag, std::span<std::byte> dst,
                        std::vector<std::byte>* sized) {
  TRACE_SPAN(engine(), "mpi", "recv");
  Request r = post_recv(src, tag, dst, sized);
  r.wait();
  const MsgInfo info = r.info();
  // Model the receive-side copy-out as sys time.
  if (info.bytes > 0) {
    overhead(static_cast<double>(info.bytes) /
             world_->rt->config().memcpy_bw);
  }
  return info;
}

bool Comm::alive(int rank) const {
  COLCOM_EXPECT(rank >= 0 && rank < size());
  return world_->dead.empty() ||
         world_->dead[static_cast<std::size_t>(rank)] == 0;
}

MsgInfo Comm::recv_ft(int src, int tag, std::span<std::byte> dst) {
  return recv_ft_into(src, tag, dst, nullptr);
}

MsgInfo Comm::recv_ft(int src, int tag, std::vector<std::byte>& dst) {
  return recv_ft_into(src, tag, {}, &dst);
}

MsgInfo Comm::recv_ft_into(int src, int tag, std::span<std::byte> dst,
                           std::vector<std::byte>* sized) {
  COLCOM_EXPECT(src >= 0 && src < size());
  fault::Injector* fi = world_->rt->chaos();
  if (fi == nullptr) return recv_into(src, tag, dst, sized);
  TRACE_SPAN(engine(), "mpi", "recv_ft");
  Request r = post_recv(src, tag, dst, sized);
  std::shared_ptr<PostedRecv> pr = r.state_->recv_own;
  if (!pr->matched) {
    // Failure detector: poll the death registry on a timer while the
    // receive pends. Declaring the peer dead takes two consecutive polls
    // with dead[src] set and nothing matched — one full timeout of grace
    // for in-flight messages the peer sent before dying (their wire times
    // are orders of magnitude below crash_detect_timeout_s).
    World* w = world_;
    const int me = rank_;
    const double dt = fi->schedule().config().crash_detect_timeout_s;
    auto timer = std::make_shared<des::Timer>(engine());
    auto poll = std::make_shared<std::function<void()>>();
    auto suspected = std::make_shared<bool>(false);
    *poll = [w, pr, timer, poll, suspected, dt, src, me, fi] {
      // The poll reads this rank's mailbox state (pr->matched); footprint
      // it so the explorer knows poll ticks race with message deliveries.
      des::note_access(des::mailbox_key(me));
      if (pr->matched) return;
      if (w->dead[static_cast<std::size_t>(src)] != 0) {
        if (*suspected) {
          w->cancel_post(me, *pr);
          pr->dead_peer = true;
          pr->matched = true;
          pr->info = MsgInfo{src, 0, 0};
          fi->note_crash_detected(src);
          pr->cs->fire();
          return;
        }
        *suspected = true;
      }
      timer->arm(w->rt->engine().now() + dt, [poll] {
        if (*poll) (*poll)();
      });
    };
    timer->arm(engine().now() + dt, [poll] {
      if (*poll) (*poll)();
    });
    try {
      r.wait();
    } catch (...) {
      timer->cancel();
      *poll = nullptr;  // break the self-referential cycle
      throw;
    }
    timer->cancel();
    *poll = nullptr;
  } else {
    r.wait();
  }
  if (pr->dead_peer) {
    throw fault::Error(fault::Layer::mpi, fault::Kind::rank_failed, src,
                       "rank " + std::to_string(src) +
                           " died during a fault-tolerant receive");
  }
  const MsgInfo info = r.info();
  if (info.bytes > 0) {
    overhead(static_cast<double>(info.bytes) /
             world_->rt->config().memcpy_bw);
  }
  return info;
}

void Comm::sendrecv(int dst, int send_tag,
                    std::span<const std::byte> send_data, int src,
                    int recv_tag, std::span<std::byte> recv_buf) {
  TRACE_SPAN(engine(), "mpi", "sendrecv");
  Request r = irecv(src, recv_tag, recv_buf);
  Request s = isend(dst, send_tag, send_data);
  r.wait();
  s.wait();
}

des::Completion Comm::spawn_thread(const std::string& name,
                                   std::function<void()> fn) {
  auto cs = std::make_shared<des::CompletionSource>(engine());
  world_->rt->engine().spawn(
      name, node(),
      [fn = std::move(fn), cs] {
        fn();
        cs->fire();
      },
      world_->rt->config().fiber_stack_bytes);
  return cs->completion();
}

}  // namespace colcom::mpi
