// TraceSink: the engine's observability seam.
//
// The interface every engine-level observer implements (the Figs. 2/3 CPU
// profiler, the tracer): CPU accounting intervals plus actor lifecycle.
// Higher-level structured tracing (spans, counters, flows — see src/trace/)
// consumes this seam for fiber run/block intervals and adds its own
// layer-level events on top.
//
// Sinks observe; they never schedule events or touch actor state, so an
// attached sink cannot perturb virtual time. With no sinks attached the
// engine's only cost is one empty-vector check per recorded interval.
#pragma once

#include <string>
#include <vector>

#include "des/time.hpp"

namespace colcom::des {

class Engine;

class TraceSink {
 public:
  /// Deregisters from any engine still holding this sink, so sink and
  /// engine may be destroyed in either order.
  virtual ~TraceSink();

  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Every CPU interval an actor spends (user/sys compute or blocked wait).
  /// `begin < end` is guaranteed; intervals of one actor never overlap.
  virtual void on_interval(int node, int actor, CpuKind kind, SimTime begin,
                           SimTime end) = 0;

  /// A new actor fiber was created (before its first dispatch).
  virtual void on_actor_spawn(int /*actor*/, int /*node*/,
                              const std::string& /*name*/, SimTime /*t*/) {}

  /// The actor's body returned.
  virtual void on_actor_finish(int /*actor*/, SimTime /*t*/) {}

  /// The engine this sink is attached to is being destroyed. Sinks that
  /// outlive the engine (a tracer spanning several runtimes) must drop any
  /// pointer to it here. The registration itself is already cleaned up.
  virtual void on_engine_destroyed() {}

 private:
  friend class Engine;
  std::vector<Engine*> engines_;  ///< engines currently holding this sink
};

}  // namespace colcom::des
