// Runtime: the simulated machine (nodes on a mesh + Lustre-like PFS) and the
// world of ranks running on it.
#pragma once

#include <functional>
#include <memory>

#include "des/engine.hpp"
#include "fault/chaos.hpp"
#include "mpi/comm.hpp"
#include "net/network.hpp"
#include "pfs/pfs.hpp"

namespace colcom::mpi {

/// Everything that describes the simulated cluster. Defaults approximate the
/// paper's testbed (Hopper: 24-core nodes, Gemini mesh, Lustre with 40 OSTs
/// at 4 MB stripes for these experiments).
struct MachineConfig {
  int cores_per_node = 24;
  bool torus = false;
  net::NetConfig net{};
  pfs::PfsConfig pfs{};
  double memcpy_bw = 4e9;  ///< rank-local copy rate (unpack charges)
  double pack_bw = 2.5e9;  ///< derived-datatype pack rate
  /// Messages above this size use the rendezvous protocol (RTS/CTS, payload
  /// only after the receive is matched) — MPICH-like behaviour that couples
  /// senders to receiver progress, a first-order effect in shuffle phases.
  std::uint64_t eager_threshold = 8ull << 10;
  std::size_t fiber_stack_bytes = des::kFiberStackBytes;
  /// Seeded fault injection (defaults to none). When chaos.any(), the
  /// Runtime expands it into a ChaosSchedule for this machine shape and
  /// installs an Injector across net/mpi/romio/core.
  fault::ChaosConfig chaos{};
};

/// Owns the DES engine, network, PFS and world state; runs a program on
/// every rank ("mpiexec -n nprocs").
class Runtime {
 public:
  Runtime(MachineConfig cfg, int nprocs);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Spawns `nprocs` ranks each executing `body` and runs the simulation to
  /// completion. May be called once per Runtime.
  void run(std::function<void(Comm&)> body);

  des::Engine& engine() { return *engine_; }
  net::Network& network() { return *network_; }
  pfs::Pfs& fs() { return *pfs_; }
  const MachineConfig& config() const { return cfg_; }

  /// Installs an explicit chaos schedule (tests/benches that must fault a
  /// known subject), replacing any schedule built from cfg.chaos. Must be
  /// called before run().
  void install_chaos(fault::ChaosSchedule schedule);

  /// The fault injector, or nullptr for a fault-free machine. A null
  /// injector guarantees the bit-exact fault-free cost model.
  fault::Injector* chaos() { return chaos_.get(); }

  int nprocs() const { return nprocs_; }
  int n_nodes() const { return n_nodes_; }
  /// Block placement: rank r lives on node r / cores_per_node.
  int node_of(int rank) const;

  /// Virtual time when run() finished (the job's makespan).
  des::SimTime elapsed() const { return elapsed_; }

 private:
  MachineConfig cfg_;
  int nprocs_;
  int n_nodes_;
  std::unique_ptr<des::Engine> engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<pfs::Pfs> pfs_;
  std::unique_ptr<fault::Injector> chaos_;
  std::unique_ptr<World> world_;
  des::SimTime elapsed_ = 0;
  bool ran_ = false;
};

}  // namespace colcom::mpi
