// Lustre-like striped parallel file system in virtual time.
//
// Files are striped round-robin across OSTs (object storage targets). Each
// OST is a FIFO server with per-request overhead, a seek penalty for
// non-sequential access, and a streaming bandwidth; a shared storage-network
// pipe caps aggregate throughput (Hopper: 35 GB/s peak over 156 OSTs; the
// paper's experiments use 40). Real bytes move between the Store and caller
// buffers; the time cost is modeled.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "des/completion.hpp"
#include "des/engine.hpp"
#include "des/resource.hpp"
#include "pfs/extent.hpp"
#include "pfs/store.hpp"

namespace colcom::pfs {

struct PfsConfig {
  int n_osts = 40;
  std::uint64_t stripe_size = 4ull << 20;  ///< 4 MB, the paper's setting
  double ost_bw = 400e6;          ///< bytes/s streamed per OST
  double ost_seek = 3e-3;         ///< seconds, non-sequential reposition
  double ost_request_overhead = 0.25e-3;  ///< seconds, fixed per request
  double storage_net_bw = 16e9;   ///< shared client<->server pipe, bytes/s

  /// Transient OST faults: this fraction of OST requests times out and is
  /// retried after retry_delay_s (deterministic, seeded). 0 disables.
  /// A request still failing after max_retries retries throws fault::Error
  /// (Layer::pfs, Kind::retry_exhausted) so callers can degrade — e.g.
  /// romio::ChunkReader re-reads the extent independently.
  double transient_fail_prob = 0;
  double retry_delay_s = 0.25;
  int max_retries = 4;
  std::uint64_t fault_seed = 0x5eed;
};

/// Opaque file id.
struct FileId {
  int index = -1;
  bool valid() const { return index >= 0; }
};

/// Counters for reports and tests.
struct PfsStats {
  std::uint64_t read_bytes = 0;
  std::uint64_t written_bytes = 0;
  std::uint64_t requests = 0;
  std::uint64_t ost_requests = 0;
  std::uint64_t seeks = 0;
  std::uint64_t retries = 0;  ///< transient-fault retries served
  std::uint64_t retry_exhausted = 0;  ///< requests failed past max_retries
};

class Pfs {
 public:
  Pfs(des::Engine& engine, PfsConfig cfg);

  /// Registers a file; name must be unique.
  FileId create(std::string name, std::unique_ptr<Store> store);

  /// Looks up by name; contract violation if absent.
  FileId open(const std::string& name) const;

  Store& store(FileId id);
  const Store& store(FileId id) const;

  /// Replaces a file's store with wrap(old_store) — used to layer a
  /// decorator (an I/O log, a timing probe) under an already-built dataset.
  void wrap_store(FileId id,
                  const std::function<std::unique_ptr<Store>(
                      std::unique_ptr<Store>)>& wrap);
  std::uint64_t file_size(FileId id) const { return store(id).size(); }

  /// Reads one contiguous range: bytes land in `dst` immediately; the
  /// returned completion fires when the simulated transfer finishes.
  des::Completion read_async(FileId id, std::uint64_t offset,
                             std::span<std::byte> dst);
  void read(FileId id, std::uint64_t offset, std::span<std::byte> dst) {
    read_async(id, offset, dst).wait();
  }

  /// Reads a non-contiguous extent list into `dst` (packed in list order) —
  /// the access pattern of *independent* I/O. Every extent pays per-request
  /// OST costs, which is exactly why collective I/O exists.
  des::Completion read_extents_async(FileId id,
                                     const std::vector<ByteExtent>& extents,
                                     std::span<std::byte> dst);

  des::Completion write_async(FileId id, std::uint64_t offset,
                              std::span<const std::byte> src);
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> src) {
    write_async(id, offset, src).wait();
  }

  const PfsConfig& config() const { return cfg_; }
  const PfsStats& stats() const { return stats_; }

  /// Aggregate streaming bandwidth (n_osts * ost_bw, capped by the storage
  /// network) — used by benches to reason about expected I/O times.
  double peak_bandwidth() const;

 private:
  struct Ost {
    std::unique_ptr<des::FifoResource> server;
    std::uint64_t last_end = ~0ull;  ///< last byte served + 1, for seek model
  };
  struct File {
    std::string name;
    std::unique_ptr<Store> store;
  };

  /// Charges OST + network time for accessing [offset, offset+len); returns
  /// the finish time. Shared by read/write (symmetric cost model); `op` is
  /// "read" or "write" and only labels trace output.
  des::SimTime charge(std::uint64_t offset, std::uint64_t len, const char* op);

  des::Engine* engine_;
  PfsConfig cfg_;
  std::vector<Ost> osts_;
  des::FifoResource storage_net_;
  std::vector<File> files_;
  PfsStats stats_;
};

}  // namespace colcom::pfs
