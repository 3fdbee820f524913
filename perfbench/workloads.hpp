// The benchmark's workloads. Each one is a fixed set of simulated jobs whose
// inputs derive only from the seed; one call to run() executes the whole set
// once (a "pass") and checks every job's output against the serial ground
// truth computed by prepare().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.hpp"

namespace perfbench {

/// What one pass measured.
struct Pass {
  /// Host seconds: "host_s" (Runtime::run calls), "setup_s" (runtimes and
  /// datasets), and in traced passes the per-layer host times.
  std::map<std::string, double> host;
  /// Values the simulation determines: virtual times, byte and event
  /// counts. They must repeat bit for bit across passes of one seed, traced
  /// or not.
  std::map<std::string, double> exact;
  /// Submit-to-finish latency of every finished job, in virtual seconds.
  /// A job that has a machine to itself finishes at its makespan.
  std::vector<double> latencies;
};

/// Observers installed for a traced pass; null members mean "off".
struct Probes {
  SynthCounters synth;
  CountingSink sink;
  SpanLog* spans = nullptr;
};

/// Outcome of checking job outputs against ground truth.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few mismatches, for the log
  void check(bool ok, const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Computes the ground truth of every distinct job with
  /// core::serial_reduce and returns the host seconds it took. Each serial
  /// reduction gets a host span when `spans` is non-null.
  virtual double prepare(SpanLog* spans) = 0;

  /// Runs every job once. `probes` is null for an untraced pass. Outputs
  /// are checked into `verdict` after the timed region.
  virtual Pass run(Probes* probes, Verdict& verdict) = 0;

  /// Builds every runtime and dataset of one pass without running a job;
  /// returns the host seconds that took (a set-up sample).
  virtual double setup() = 0;

  /// Traced-only measurements that need a pass of their own, given an
  /// untraced pass of the workload (e.g. the share of the service makespan
  /// that park writes add). Default: none.
  virtual std::map<std::string, double> extra_layers(const Pass&) {
    return {};
  }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
