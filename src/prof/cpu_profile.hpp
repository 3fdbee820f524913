// CPU profiling: classifies every core-second of the job into user / sys /
// wait and buckets it over virtual time — the measurement behind the
// paper's Figs. 2 and 3 (total CPU profiling of two-phase collective vs
// independent I/O).
//
// A thin consumer of the engine's TraceSink seam: it only aggregates the
// intervals the seam reports. For full structured tracing (spans, counters,
// Perfetto export) attach a trace::Tracer instead — or alongside; the seam
// supports multiple sinks.
#pragma once

#include <cstdint>
#include <vector>

#include "des/time.hpp"
#include "des/trace_sink.hpp"

namespace colcom::prof {

/// Install on an Engine (add_trace_sink) before running;
/// read rows() afterwards.
class CpuProfile final : public des::TraceSink {
 public:
  /// `bucket_seconds`: time-series resolution.
  explicit CpuProfile(double bucket_seconds = 1.0);

  void on_interval(int node, int actor, des::CpuKind kind, des::SimTime begin,
                   des::SimTime end) override;

  struct Row {
    double t = 0;         ///< bucket start time
    double user_pct = 0;  ///< share of accounted CPU time in user code
    double sys_pct = 0;   ///< pack/unpack/metadata work
    double wait_pct = 0;  ///< blocked on I/O or communication
  };

  /// Percentages per bucket (user+sys+wait = 100 for non-empty buckets).
  std::vector<Row> rows() const;

  /// Aggregate over the whole run.
  Row total() const;

 private:
  struct Bucket {
    double acc[3] = {0, 0, 0};  // user, sys, wait core-seconds
  };
  double bucket_s_;
  std::vector<Bucket> buckets_;
};

}  // namespace colcom::prof
