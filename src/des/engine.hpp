// The discrete-event engine: virtual clock, event queue, actor scheduling and
// CPU-time accounting.
//
// Actors (simulated MPI ranks, aggregator I/O threads, ...) are fibers; they
// interact with virtual time only through Engine::advance() (consume CPU) and
// Engine::block()/wake() (sleep until an event completes). The engine is
// deterministic: events fire in (time, insertion-sequence) order and there is
// no other source of ordering.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "des/fiber.hpp"
#include "des/time.hpp"
#include "des/trace_sink.hpp"

namespace colcom::des {

/// Identifies a spawned actor; also usable to wait for its completion.
struct ActorHandle {
  int id = -1;
};

class Engine {
 public:
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Creates an actor bound to a (simulated) node. The body starts running
  /// when run() dispatches it. `stack_bytes` bounds the fiber stack.
  ActorHandle spawn(std::string name, int node, std::function<void()> body,
                    std::size_t stack_bytes = kFiberStackBytes);

  /// Schedules a plain callback at absolute virtual time `t` (>= now()).
  void schedule(SimTime t, std::function<void()> fn);

  /// Runs until the event queue drains. Rethrows the first actor exception.
  void run();

  /// Invoked when run() drains the event queue while some actors are still
  /// blocked — a stall: nothing can ever wake them (today's silent hang).
  /// Receives the blocked actor ids. Exceptions from the handler propagate
  /// out of run(). Not called when run() exits by rethrowing an actor
  /// exception.
  void set_stall_handler(std::function<void(const std::vector<int>&)> h) {
    stall_handler_ = std::move(h);
  }

  /// Virtual time at which a (currently blocked) actor blocked.
  SimTime actor_blocked_since(int id) const {
    return actors_[static_cast<std::size_t>(id)]->blocked_since;
  }

  // --- Calls valid only from inside an actor fiber ---

  /// Consumes `dt` of CPU, accounted as `kind`; other actors run meanwhile.
  void advance(SimTime dt, CpuKind kind = CpuKind::user);

  /// Blocks the calling actor until some other party calls wake() on it.
  /// Time spent blocked is accounted as CpuKind::wait.
  void block();

  /// Blocks until absolute virtual time `t` (accounted as wait).
  void sleep_until(SimTime t);

  /// Blocks for `dt` of virtual time (accounted as wait).
  void sleep_for(SimTime dt) { sleep_until(now_ + dt); }

  /// Wakes a blocked actor (schedules its resumption at now()). Waking an
  /// actor that is not blocked is a contract violation.
  void wake(int actor_id);

  /// Id/node/name of the actor currently executing.
  int current_actor() const;
  int current_node() const;
  const std::string& actor_name(int id) const;
  int node_of(int id) const;
  bool actor_finished(int id) const;

  /// True when called from inside an actor fiber.
  bool in_actor() const { return Fiber::current() != nullptr; }

  /// Attaches an observer for CPU intervals and actor lifecycle. Multiple
  /// sinks may be attached (profiler + tracer); attach order is notify order.
  void add_trace_sink(TraceSink* sink);
  void remove_trace_sink(TraceSink* sink);

  /// Number of events dispatched so far (for tests / sanity checks).
  std::uint64_t events_dispatched() const { return events_dispatched_; }

 private:
  struct Actor {
    std::string name;
    int node = 0;
    std::unique_ptr<Fiber> fiber;
    bool blocked = false;
    SimTime blocked_since = 0;
  };

  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Actor& self();
  Event pop_next_event();
  void resume_actor(int id);
  void record(int actor_id, CpuKind kind, SimTime begin, SimTime end);

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_dispatched_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<Fiber*> fiber_of_actor_;  // index: actor id
  int current_actor_ = -1;
  std::vector<TraceSink*> sinks_;
  std::exception_ptr pending_exception_;
  std::function<void(const std::vector<int>&)> stall_handler_;
};

}  // namespace colcom::des
