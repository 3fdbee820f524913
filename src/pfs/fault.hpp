// Fault injection for the storage stack — the substrate behind the
// fault-tolerance investigation the paper lists as future work (Sec. VI).
//
// Two deterministic fault classes:
//  * transient OST faults: an injected fraction of OST requests time out and
//    are retried after a delay (costed in virtual time, data unharmed);
//  * silent corruption: a FaultyStore flips bytes of selected reads while
//    pristine() still holds the true data, so end-to-end verification
//    against integrity::store_checksum (as in Lustre T10-PI) can detect the
//    damage and trigger a re-read.
// All randomness is seeded; runs are bit-reproducible.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "pfs/store.hpp"
#include "util/prng.hpp"

namespace colcom::pfs {

/// Transient-fault model applied per OST request.
struct FaultModel {
  double transient_fail_prob = 0;  ///< chance an OST request must retry
  double retry_delay_s = 0.25;     ///< detection timeout before the retry
  int max_retries = 4;             ///< give up (contract error) after this
  std::uint64_t seed = 0x5eed;
};

/// Wraps a store; an injected fraction of reads returns corrupted bytes
/// (deterministic in offset and attempt count). Each location corrupts at
/// most `corrupt_attempts` times, so retries eventually see good data —
/// modelling transient in-flight corruption. With `write_corrupt_prob > 0`
/// a fraction of writes lands corrupted *in the store itself* (a torn
/// write), so verify-on-read paths above (checkpoint trailers, write-behind
/// re-reads) see persistent damage they must recover around; a rewrite of
/// the same offset is a fresh attempt and eventually lands clean.
class FaultyStore final : public Store {
 public:
  FaultyStore(std::unique_ptr<Store> base, double corrupt_prob,
              std::uint64_t seed = 0xbadc0de, int corrupt_attempts = 1,
              double write_corrupt_prob = 0);

  void read(std::uint64_t offset, std::span<std::byte> dst) const override;
  void write(std::uint64_t offset, std::span<const std::byte> src) override;
  std::uint64_t size() const override { return base_->size(); }

  /// Pristine content (for checksums / verification).
  const Store& pristine() const override { return *base_; }

  std::uint64_t corruptions_served() const { return corruptions_; }
  std::uint64_t write_corruptions() const { return write_corruptions_; }

  /// Offsets currently holding a live attempt counter (bounded by
  /// kMaxTrackedOffsets) — exposed so tests can assert the memory bound.
  std::size_t tracked_offsets() const { return attempts_.size(); }

  /// Memory bound on live attempt counters. Offsets that exhausted their
  /// corruption budget leave the map for a fixed-size filter; under pressure
  /// the oldest live counter is evicted (that offset would restart its
  /// budget if read again — a deterministic, conservative approximation).
  static constexpr std::size_t kMaxTrackedOffsets = 4096;

 private:
  /// Deterministic per-(key,attempt) decision; reads key by offset, writes
  /// by offset mixed with a salt so the two fault spaces roll independently.
  bool should_corrupt(std::uint64_t key, double prob) const;

  bool exhausted_contains(std::uint64_t offset) const;
  void exhausted_insert(std::uint64_t offset) const;

  std::unique_ptr<Store> base_;
  double corrupt_prob_;
  std::uint64_t seed_;
  int corrupt_attempts_;
  double write_corrupt_prob_;
  // Bounded attempt tracking; mutable: read() is logically const. Live
  // counters are FIFO-evicted at kMaxTrackedOffsets; exhausted offsets move
  // to a fixed-size two-probe bit filter (a false positive only makes a
  // corruptible offset read clean — benign and still deterministic).
  mutable std::unordered_map<std::uint64_t, int> attempts_;
  mutable std::deque<std::uint64_t> attempt_order_;
  mutable std::vector<std::uint64_t> exhausted_bits_;
  mutable std::uint64_t corruptions_ = 0;
  std::uint64_t write_corruptions_ = 0;
};

}  // namespace colcom::pfs
