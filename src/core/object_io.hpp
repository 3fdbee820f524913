// Object I/O — the paper's programming model (Fig. 6).
//
// Users declare the I/O region (start/count on a dataset variable), the I/O
// mode, and the computation (an mpi::Op created with Op::create, exactly as
// MPI_Op_create in the paper's listing), and hand the object to
// collective_compute(). With blocking=true the call degenerates to the
// traditional read-then-compute MPI path (paper: "essentially identical to
// the traditional MPI-IO code").
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/op.hpp"
#include "ncio/dataset.hpp"
#include "romio/plan.hpp"

namespace colcom::core {

/// How map results are brought back together (paper Sec. III-C).
enum class ReduceMode {
  all_to_one,  ///< every partial goes to the root, reduced there
  all_to_all,  ///< each rank collects its own partials and reduces locally,
               ///< then a final cross-rank reduce
};

/// How map CPU time is charged in virtual time.
struct ComputeModel {
  /// Real-application mode: seconds of CPU per byte mapped (e.g. a scan at
  /// 2 GB/s => 0.5e-9). Used by the WRF tasks and examples.
  double seconds_per_byte = 0;

  /// Simulated-computation mode, reproducing the paper's benchmark
  /// methodology ("we simulate the computation part... vary the ratio of
  /// computation and I/O"): if > 0, mapping a chunk is charged
  /// ratio_of_io * (that chunk's I/O service time), and the traditional
  /// path charges ratio_of_io * (its measured I/O time). Overrides
  /// seconds_per_byte.
  double ratio_of_io = 0;
};

/// The object I/O descriptor (paper Fig. 6: io.start/io.count/io.mode/
/// io.block + the registered compute op).
struct ObjectIO {
  ncio::VarId var;
  std::vector<std::uint64_t> start;
  std::vector<std::uint64_t> count;

  bool collective = true;  ///< io.mode = collective | independent
  bool blocking = false;   ///< io.block: true selects the traditional path

  mpi::Op op;              ///< the map/reduce computation
  ReduceMode reduce_mode = ReduceMode::all_to_one;
  int root = 0;
  /// Broadcast the global result to every rank after the final reduce.
  bool broadcast_result = true;

  romio::Hints hints;
  ComputeModel compute;
};

/// Instrumentation returned by collective_compute / traditional_compute.
struct CcStats {
  double plan_s = 0;
  double io_s = 0;          ///< read/aggregation phase (trad: full coll. read)
  double map_s = 0;         ///< map execution (aggregators; trad: compute)
  double construct_s = 0;   ///< logical-map construction (CC only)
  double shuffle_s = 0;     ///< partial-result (CC) or raw-data (trad) shuffle
  double reduce_s = 0;      ///< final reduction
  double total_s = 0;

  std::uint64_t bytes_read = 0;      ///< bytes pulled from the PFS
  std::uint64_t shuffle_bytes = 0;   ///< payload moved in the shuffle phase
  std::uint64_t metadata_bytes = 0;  ///< intermediate-result metadata (Fig. 12)
  std::uint64_t partial_count = 0;   ///< intermediate partial results
  std::uint64_t logical_runs = 0;    ///< coordinate runs reconstructed
  std::uint64_t elements = 0;        ///< elements this rank's subset holds

  // Fault-recovery counters (non-zero only under an installed chaos
  // schedule; see docs/ROBUSTNESS.md).
  std::uint64_t replans = 0;         ///< aggregator deaths re-planned around
  std::uint64_t absorbed_chunks = 0; ///< dead-domain chunks this rank served
  std::uint64_t io_fallbacks = 0;    ///< extents recovered via independent I/O
  std::uint64_t warm_chunks = 0;     ///< missed slots recovered from parked
                                     ///< partials (no PFS re-read)
};

}  // namespace colcom::core
