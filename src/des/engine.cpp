#include "des/engine.hpp"

#include <algorithm>
#include <utility>

#include "des/sched.hpp"
#include "util/assert.hpp"

namespace colcom::des {

namespace {

// priority_queue::top() is const, but the queue's comparator reads only
// time and seq, which a move leaves intact: move the event (and its
// callback) out instead of copying it, then pop.
template <typename Queue>
typename Queue::value_type take_top(Queue& q) {
  auto ev = std::move(const_cast<typename Queue::value_type&>(q.top()));
  q.pop();
  return ev;
}

}  // namespace

Engine::Engine() = default;

Engine::~Engine() {
  // Unlink live sinks so a sink outliving this engine (a tracer spanning
  // several runtimes) neither dangles nor tries to deregister later.
  for (TraceSink* s : sinks_) {
    auto& e = s->engines_;
    e.erase(std::remove(e.begin(), e.end(), this), e.end());
    s->on_engine_destroyed();
  }
}

TraceSink::~TraceSink() {
  while (!engines_.empty()) engines_.back()->remove_trace_sink(this);
}

void Engine::add_trace_sink(TraceSink* sink) {
  COLCOM_EXPECT(sink != nullptr);
  if (std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end()) {
    sinks_.push_back(sink);
    sink->engines_.push_back(this);
  }
}

void Engine::remove_trace_sink(TraceSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
  auto& e = sink->engines_;
  e.erase(std::remove(e.begin(), e.end(), this), e.end());
}

ActorHandle Engine::spawn(std::string name, int node,
                          std::function<void()> body,
                          std::size_t stack_bytes) {
  COLCOM_EXPECT(body != nullptr);
  const int id = static_cast<int>(actors_.size());
  auto actor = std::make_unique<Actor>();
  actor->name = std::move(name);
  actor->node = node;
  actor->fiber = std::make_unique<Fiber>(stack_bytes, std::move(body));
  fiber_of_actor_.push_back(actor->fiber.get());
  actors_.push_back(std::move(actor));
  for (TraceSink* s : sinks_) {
    const Actor& a = *actors_.back();
    s->on_actor_spawn(id, a.node, a.name, now_);
  }
  // First dispatch happens through the queue so spawn order == start order.
  schedule(now_, [this, id] { resume_actor(id); });
  return ActorHandle{id};
}

void Engine::schedule(SimTime t, std::function<void()> fn) {
  if (t < now_ && ScheduleController::current() != nullptr) {
    // Under a controller with a nonzero tie window the clock may have run
    // ahead of a deadline computed before the pick; fire such events asap.
    t = now_;
  }
  COLCOM_EXPECT_MSG(t >= now_, "cannot schedule an event in the past");
  queue_.push(Event{t, seq_++, std::move(fn)});
}

void Engine::run() {
  COLCOM_EXPECT_MSG(!in_actor(), "run() must be called from the host context");
  while (!queue_.empty()) {
    Event ev = pop_next_event();
    if (ScheduleController::current() == nullptr) {
      COLCOM_ENSURE_MSG(ev.time >= now_, "virtual clock must be monotonic");
      now_ = ev.time;
    } else {
      // A controller may dispatch the later end of a tie window first; the
      // re-queued earlier events then fire at a clock that has already moved.
      now_ = std::max(now_, ev.time);
    }
    ++events_dispatched_;
    ev.fn();
    if (pending_exception_) {
      std::exception_ptr e = std::exchange(pending_exception_, nullptr);
      std::rethrow_exception(e);
    }
  }
  if (stall_handler_ != nullptr) {
    std::vector<int> blocked;
    for (std::size_t i = 0; i < actors_.size(); ++i) {
      if (actors_[i]->blocked) blocked.push_back(static_cast<int>(i));
    }
    if (!blocked.empty()) stall_handler_(blocked);
  }
}

Engine::Event Engine::pop_next_event() {
  Event ev = take_top(queue_);
  ScheduleController* sc = ScheduleController::current();
  if (sc == nullptr) return ev;
  // Collect every event runnable within the tie window and let the
  // controller choose; the rest go back on the queue untouched (their seq
  // numbers keep the default order stable for the next round).
  const SimTime window_end = ev.time + sc->tie_window();
  std::vector<Event> ties;
  ties.push_back(std::move(ev));
  while (!queue_.empty() && queue_.top().time <= window_end) {
    ties.push_back(take_top(queue_));
  }
  std::size_t chosen = 0;
  if (ties.size() > 1) {
    std::vector<RunnableEvent> view;
    view.reserve(ties.size());
    for (const Event& e : ties) view.push_back(RunnableEvent{e.time, e.seq});
    chosen = sc->pick(view);
    COLCOM_ENSURE_MSG(chosen < ties.size(),
                      "controller pick out of range");
  }
  Event out = std::move(ties[chosen]);
  for (std::size_t i = 0; i < ties.size(); ++i) {
    if (i != chosen) queue_.push(std::move(ties[i]));
  }
  sc->on_dispatch(RunnableEvent{out.time, out.seq});
  return out;
}

Engine::Actor& Engine::self() {
  COLCOM_EXPECT_MSG(in_actor(), "call valid only inside an actor");
  COLCOM_ENSURE(current_actor_ >= 0);
  return *actors_[static_cast<std::size_t>(current_actor_)];
}

void Engine::resume_actor(int id) {
  Actor& a = *actors_[static_cast<std::size_t>(id)];
  if (a.fiber->finished()) return;
  note_access(actor_key(id));
  const int prev = std::exchange(current_actor_, id);
  a.fiber->resume();
  current_actor_ = prev;
  if (a.fiber->finished()) {
    for (TraceSink* s : sinks_) s->on_actor_finish(id, now_);
    if (a.fiber->exception()) {
      pending_exception_ = a.fiber->exception();
    }
  }
}

void Engine::advance(SimTime dt, CpuKind kind) {
  COLCOM_EXPECT(dt >= 0);
  Actor& a = self();
  const int id = current_actor_;
  const SimTime begin = now_;
  const SimTime end = now_ + dt;
  schedule(end, [this, id] { resume_actor(id); });
  a.fiber->yield();
  record(id, kind, begin, end);
}

void Engine::block() {
  Actor& a = self();
  const int id = current_actor_;
  a.blocked = true;
  a.blocked_since = now_;
  a.fiber->yield();
  COLCOM_ENSURE_MSG(!a.blocked, "woken actor must have been unblocked");
  record(id, CpuKind::wait, a.blocked_since, now_);
}

void Engine::sleep_until(SimTime t) {
  COLCOM_EXPECT(t >= now_);
  const int id = current_actor_;
  schedule(t, [this, id] { wake(id); });
  block();
}

void Engine::wake(int actor_id) {
  COLCOM_EXPECT(actor_id >= 0 &&
                actor_id < static_cast<int>(actors_.size()));
  Actor& a = *actors_[static_cast<std::size_t>(actor_id)];
  COLCOM_EXPECT_MSG(a.blocked, "wake() target must be blocked");
  note_access(actor_key(actor_id));
  a.blocked = false;
  schedule(now_, [this, actor_id] { resume_actor(actor_id); });
}

int Engine::current_actor() const {
  COLCOM_EXPECT_MSG(in_actor(), "no current actor in host context");
  return current_actor_;
}

int Engine::current_node() const {
  return actors_[static_cast<std::size_t>(current_actor())]->node;
}

const std::string& Engine::actor_name(int id) const {
  return actors_[static_cast<std::size_t>(id)]->name;
}

int Engine::node_of(int id) const {
  return actors_[static_cast<std::size_t>(id)]->node;
}

bool Engine::actor_finished(int id) const {
  return actors_[static_cast<std::size_t>(id)]->fiber->finished();
}

void Engine::record(int actor_id, CpuKind kind, SimTime begin, SimTime end) {
  if (sinks_.empty() || end <= begin) return;
  const int node = actors_[static_cast<std::size_t>(actor_id)]->node;
  for (TraceSink* s : sinks_) {
    s->on_interval(node, actor_id, kind, begin, end);
  }
}

}  // namespace colcom::des
