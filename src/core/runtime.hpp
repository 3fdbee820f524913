// The collective computing runtime (paper Sec. III, Figs. 4/7) and the
// traditional MPI read-then-compute baseline it is evaluated against.
//
// collective_compute() splits the two-phase collective I/O: after each
// aggregation chunk is read, the logical map reconstructs coordinates, the
// user's map op runs *in place* on the aggregated bytes, and the shuffle
// phase carries only small partial results, finished by a lightweight
// reduce. traditional_compute() performs the same analysis the conventional
// way: full collective (or independent) read, then compute, then MPI_Reduce.
// Both produce identical numeric results; only the schedule differs.
#pragma once

#include <cstring>

#include "core/object_io.hpp"
#include "core/reduce.hpp"
#include "mpi/comm.hpp"
#include "ncio/dataset.hpp"

namespace colcom::stage {
class ChunkSource;
class StagingArea;
}

namespace colcom::core {

/// Reduction results of an analysis run.
struct CcOutput {
  mpi::Prim prim = mpi::Prim::f64;

  /// Global reduction over every rank's subset. Valid at the root, and on
  /// all ranks when ObjectIO::broadcast_result.
  bool has_global = false;
  alignas(8) unsigned char global[8] = {};

  /// This rank's own-subset reduction. all_to_all: valid on every rank with
  /// a non-empty subset. all_to_one: valid on the root (for its own subset).
  bool has_mine = false;
  alignas(8) unsigned char mine[8] = {};

  /// all_to_one mode, root only: the reduction of each rank's subset,
  /// reconstructed from the shuffled partials ("each process' partial
  /// results are constructed on that node").
  std::vector<Accumulator> per_rank;

  template <typename T>
  T global_as() const {
    COLCOM_EXPECT(has_global);
    T v;
    std::memcpy(&v, global, sizeof(T));
    return v;
  }
  template <typename T>
  T mine_as() const {
    COLCOM_EXPECT(has_mine);
    T v;
    std::memcpy(&v, mine, sizeof(T));
    return v;
  }
};

/// Runs the object I/O through the collective computing runtime. All ranks
/// must call collectively. Honors obj.blocking / obj.collective by routing
/// to the traditional path (paper: io.block=true degenerates to plain
/// MPI-IO code).
CcStats collective_compute(mpi::Comm& comm, const ncio::Dataset& ds,
                           const ObjectIO& obj, CcOutput& out);

/// The baseline: read everything (two-phase collective or independent per
/// obj.collective), then compute, then reduce.
CcStats traditional_compute(mpi::Comm& comm, const ncio::Dataset& ds,
                            const ObjectIO& obj, CcOutput& out);

/// Execution options of a plan-based run: burst-buffer staging attachment
/// and the mid-analysis iteration window used by checkpoint/restart — and,
/// through colcom::svc, by the multi-tenant scheduler, whose time slices
/// are exactly these windows (each slice parks its accumulator state in
/// `mid`, so interleaving jobs never changes any job's combine order).
struct RunOptions {
  /// Per-rank staging area (see src/stage/): aggregator chunk reads and
  /// absorbs go through a StagedReader over its cache + prefetch pipeline,
  /// and replans invalidate the dead domain. Cold make-ups read around the
  /// cache. nullptr reads through a stage::PfsReader straight from the PFS.
  stage::StagingArea* staging = nullptr;

  /// Per-rank chunk source serving every aggregator chunk read — demand,
  /// absorb and cold make-up alike (e.g. a stream::Reader, see
  /// src/stream/) — in place of the runtime's own PfsReader or
  /// StagedReader. The run brackets its consumed byte span with
  /// source->prepare()/retire() on every rank. The map/shuffle/reduce path
  /// does not depend on the source, so one serving the file's bytes yields
  /// bit-identical results. Takes precedence over `staging`.
  stage::ChunkSource* source = nullptr;

  /// First aggregation iteration (chunk index) to execute. > 0 resumes a
  /// partial run and requires the matching `mid` state.
  int begin_iter = 0;
  /// One past the last iteration to execute; -1 means plan.n_iters. A
  /// partial run (end_iter < plan.n_iters) skips the final reduce, leaves
  /// `out` empty and exports the mid-analysis state instead.
  int end_iter = -1;

  /// Mid-analysis accumulator state (per-rank, opaque bytes): read when
  /// begin_iter > 0, written when end_iter cuts the run short. Must be
  /// non-null for any partial run.
  std::vector<std::byte>* mid = nullptr;

  /// Base of the agreement-epoch block this run may use (crash watches,
  /// the final settle agreement, survivor groups): epochs up to
  /// base + 2 * end_iter + 2. A scheduler resubmitting failed slices must
  /// hand every attempt a fresh disjoint block so no two attempts ever
  /// share an agreement tag.
  int epoch_base = 0;
  /// Salt folded into the runtime's data-plane tags (shuffle, absorb,
  /// recover, final fold). 0 uses the unsalted tags; a resubmitted attempt
  /// must use a fresh salt so stale in-flight messages of the failed
  /// attempt can never match the retry's receives.
  int tag_salt = 0;
};

/// Runs collective computing over a caller-provided two-phase plan (built
/// with detail::cc_hints for an object of the same shape) — the fast path
/// of IterativeComputer, which shifts one cached plan across time windows.
/// When the chaos schedule can kill an aggregator role or a process
/// (fault::Injector::watch_aggregators), every iteration runs a crash watch
/// over mpi::ft::agree. A death the runtime can heal recovers
/// bit-identically; one it cannot heal throws the same fault::Error
/// (unrecoverable, root_failed or slice_aborted) on every alive rank. A
/// fault::Error raised by one aggregator's own reads ends the run at the
/// next watch: that rank rethrows it, the others throw slice_aborted.
CcStats collective_compute_with_plan(mpi::Comm& comm, const ncio::Dataset& ds,
                                     const ObjectIO& obj,
                                     const romio::TwoPhasePlan& plan,
                                     CcOutput& out);

/// As above with explicit run options (staging and/or a mid-analysis
/// iteration window). The defaulted-options overload forwards here.
CcStats collective_compute_with_plan(mpi::Comm& comm, const ncio::Dataset& ds,
                                     const ObjectIO& obj,
                                     const romio::TwoPhasePlan& plan,
                                     CcOutput& out, const RunOptions& ropt);

namespace detail {
/// The element-aligned hints the CC runtime derives from an object.
romio::Hints cc_hints(const ObjectIO& obj, std::uint64_t esize);
}  // namespace detail

/// Serial ground truth: evaluates the reduction over a hyperslab directly
/// against the dataset's store, bypassing the runtime (tests/benches).
Accumulator serial_reduce(const ncio::Dataset& ds, const ObjectIO& obj);

}  // namespace colcom::core
