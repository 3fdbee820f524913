#include "pfs/fault.hpp"

#include "util/assert.hpp"

namespace colcom::pfs {

FaultyStore::FaultyStore(std::unique_ptr<Store> base, double corrupt_prob,
                         std::uint64_t seed, int corrupt_attempts,
                         double write_corrupt_prob)
    : base_(std::move(base)),
      corrupt_prob_(corrupt_prob),
      seed_(seed),
      corrupt_attempts_(corrupt_attempts),
      write_corrupt_prob_(write_corrupt_prob) {
  COLCOM_EXPECT(base_ != nullptr);
  COLCOM_EXPECT(corrupt_prob >= 0.0 && corrupt_prob <= 1.0);
  COLCOM_EXPECT(write_corrupt_prob >= 0.0 && write_corrupt_prob <= 1.0);
  COLCOM_EXPECT(corrupt_attempts >= 1);
}

namespace {
// Fixed-size exhausted filter: 2^16 bits (8 KiB) with two probe positions.
constexpr std::size_t kExhaustedBits = 1ull << 16;

std::pair<std::size_t, std::size_t> exhausted_probes(std::uint64_t seed,
                                                     std::uint64_t offset) {
  SplitMix64 sm(seed ^ (offset * 0xbf58476d1ce4e5b9ull + 3));
  const std::size_t a = static_cast<std::size_t>(sm.next()) % kExhaustedBits;
  const std::size_t b = static_cast<std::size_t>(sm.next()) % kExhaustedBits;
  return {a, b};
}
}  // namespace

bool FaultyStore::exhausted_contains(std::uint64_t offset) const {
  if (exhausted_bits_.empty()) return false;
  const auto [a, b] = exhausted_probes(seed_, offset);
  return (exhausted_bits_[a / 64] >> (a % 64) & 1) != 0 &&
         (exhausted_bits_[b / 64] >> (b % 64) & 1) != 0;
}

void FaultyStore::exhausted_insert(std::uint64_t offset) const {
  if (exhausted_bits_.empty()) exhausted_bits_.resize(kExhaustedBits / 64, 0);
  const auto [a, b] = exhausted_probes(seed_, offset);
  exhausted_bits_[a / 64] |= 1ull << (a % 64);
  exhausted_bits_[b / 64] |= 1ull << (b % 64);
}

bool FaultyStore::should_corrupt(std::uint64_t key, double prob) const {
  if (prob <= 0.0) return false;
  // Hash the key with the seed into a uniform [0,1) decision so the
  // fault pattern is a pure function of location (reproducible), then cap
  // by attempt count so retries succeed.
  SplitMix64 sm(seed_ ^ (key * 0x9e3779b97f4a7c15ull + 1));
  const double roll =
      static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  if (roll >= prob) return false;
  // Past its budget the key reads clean forever; its counter is gone.
  if (exhausted_contains(key)) return false;
  auto [it, inserted] = attempts_.try_emplace(key, 0);
  if (inserted) {
    attempt_order_.push_back(key);
    // Drop deque entries whose counters already left the map (exhausted),
    // then enforce the live-counter bound FIFO.
    while (attempts_.size() > kMaxTrackedOffsets && !attempt_order_.empty()) {
      const std::uint64_t victim = attempt_order_.front();
      attempt_order_.pop_front();
      if (victim != key) attempts_.erase(victim);
    }
  }
  const int attempt = ++it->second;
  if (attempt >= corrupt_attempts_) {
    // Budget spent with this read: remember it compactly and free the
    // counter (the deque entry is dropped lazily on a later eviction scan).
    exhausted_insert(key);
    attempts_.erase(it);
  }
  return attempt <= corrupt_attempts_;
}

namespace {
// Keeps the write-path fault space disjoint from the read-path one while
// sharing the attempt-budget machinery (keys never collide in practice:
// the salt is a large odd constant far from any real offset delta).
constexpr std::uint64_t kWriteKeySalt = 0x517cc1b727220a95ull;
}  // namespace

void FaultyStore::read(std::uint64_t offset, std::span<std::byte> dst) const {
  base_->read(offset, dst);
  if (dst.empty() || !should_corrupt(offset, corrupt_prob_)) return;
  ++corruptions_;
  // Flip a deterministic byte pattern across the payload.
  SplitMix64 sm(seed_ ^ offset);
  for (std::size_t i = 0; i < dst.size(); i += 257) {
    dst[i] ^= std::byte{static_cast<std::uint8_t>(sm.next() | 1)};
  }
}

void FaultyStore::write(std::uint64_t offset, std::span<const std::byte> src) {
  if (src.empty() ||
      !should_corrupt(offset ^ kWriteKeySalt, write_corrupt_prob_)) {
    base_->write(offset, src);
    return;
  }
  ++write_corruptions_;
  // The damage is persistent: the corrupted bytes land in the base store,
  // so every later read sees them until the offset is rewritten.
  std::vector<std::byte> torn(src.begin(), src.end());
  SplitMix64 sm(seed_ ^ (offset * 0x94d049bb133111ebull + 5));
  for (std::size_t i = 0; i < torn.size(); i += 257) {
    torn[i] ^= std::byte{static_cast<std::uint8_t>(sm.next() | 1)};
  }
  base_->write(offset, torn);
}

}  // namespace colcom::pfs
