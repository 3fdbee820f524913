#include "integrity/integrity.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "trace/trace.hpp"
#include "util/prng.hpp"

namespace colcom::integrity {

const char* to_string(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::off: return "off";
    case VerifyMode::sampled: return "sampled";
    case VerifyMode::always: return "always";
  }
  return "?";
}

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::pfs_read: return "pfs.read";
    case Stage::cache: return "stage.cache";
    case Stage::write_behind: return "stage.write_behind";
    case Stage::stream_payload: return "stream.payload";
    case Stage::shuffle: return "mpi.shuffle";
    case Stage::checkpoint: return "core.checkpoint";
    case Stage::scrub: return "stage.scrub";
  }
  return "?";
}

namespace {

// The XXH64 construction, seed 0: four lanes each fold one 8-byte word of
// every 32-byte stripe; the lanes merge into one word that then absorbs the
// length and the sub-stripe tail, and a final avalanche spreads every input
// bit over the digest.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

// XXH64 reads little-endian words; the loads below use host byte order
// (hence the assert) and go through memcpy, so any alignment is defined.
static_assert(std::endian::native == std::endian::little,
              "integrity::checksum loads words in host byte order");

std::uint64_t load64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t load32(const std::byte* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

std::uint64_t merge_lane(std::uint64_t h, std::uint64_t lane) {
  return (h ^ lane_round(0, lane)) * kPrime1 + kPrime4;
}

/// Folds every whole stripe of [p, p+n) into `lanes`; returns the bytes
/// consumed. The lanes live in locals so the loop runs from registers.
std::size_t fold_stripes(std::array<std::uint64_t, 4>& lanes,
                         const std::byte* p, std::size_t n) {
  constexpr std::size_t kStripe = Hasher::kStripe;
  auto [v1, v2, v3, v4] = lanes;
  const std::size_t whole = n - n % kStripe;
  for (const std::byte* end = p + whole; p != end; p += kStripe) {
    v1 = lane_round(v1, load64(p));
    v2 = lane_round(v2, load64(p + 8));
    v3 = lane_round(v3, load64(p + 16));
    v4 = lane_round(v4, load64(p + 24));
  }
  lanes = {v1, v2, v3, v4};
  return whole;
}

}  // namespace

std::uint64_t checksum(std::span<const std::byte> bytes) {
  return Hasher{}.update(bytes).digest();
}

Hasher::Hasher() : lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

Hasher& Hasher::update(std::span<const std::byte> bytes) {
  if (bytes.empty()) return *this;  // an empty span may carry a null data()
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  total_ += n;
  if (pending_ > 0) {
    const std::size_t fill = std::min(kStripe - pending_, n);
    std::memcpy(stripe_.data() + pending_, p, fill);
    pending_ += fill;
    if (pending_ < kStripe) return *this;
    fold_stripes(lanes_, stripe_.data(), kStripe);
    pending_ = 0;
    p += fill;
    n -= fill;
  }
  const std::size_t done = fold_stripes(lanes_, p, n);
  pending_ = n - done;
  std::memcpy(stripe_.data(), p + done, pending_);
  return *this;
}

std::uint64_t Hasher::digest() const {
  std::uint64_t h = kPrime5;
  if (total_ >= kStripe) {
    h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
        std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (const std::uint64_t lane : lanes_) h = merge_lane(h, lane);
  }
  h += total_;
  const std::byte* p = stripe_.data();
  std::size_t n = pending_;
  for (; n >= 8; n -= 8, p += 8) {
    h = std::rotl(h ^ lane_round(0, load64(p)), 27) * kPrime1 + kPrime4;
  }
  if (n >= 4) {
    h = std::rotl(h ^ load32(p) * kPrime1, 23) * kPrime2 + kPrime3;
    n -= 4;
    p += 4;
  }
  for (; n > 0; --n, ++p) {
    h = std::rotl(h ^ std::to_integer<std::uint64_t>(*p) * kPrime5, 11) *
        kPrime1;
  }
  h = (h ^ (h >> 33)) * kPrime2;
  h = (h ^ (h >> 29)) * kPrime3;
  return h ^ (h >> 32);
}

std::uint64_t combine(std::uint64_t acc, std::uint64_t part,
                      std::uint64_t len) {
  // hash_combine-style fold: each input lands on the accumulator through a
  // position-dependent mix, so order and extent boundaries both matter.
  acc ^= part + 0x9e3779b97f4a7c15ull + (acc << 6) + (acc >> 2);
  acc ^= len + 0x9e3779b97f4a7c15ull + (acc << 6) + (acc >> 2);
  return acc;
}

bool should_verify(VerifyMode mode, std::uint64_t key) {
  switch (mode) {
    case VerifyMode::off: return false;
    case VerifyMode::always: return true;
    case VerifyMode::sampled: {
      // Deterministic 1-in-8 keyed by extent identity: the sampled subset
      // is the same every run, so sampled-mode runs stay bit-reproducible.
      SplitMix64 sm(key * 0x9e3779b97f4a7c15ull + 0x1d8e4e27c47d124full);
      return (sm.next() & 7u) == 0;
    }
  }
  return true;
}

namespace {

Stats g_stats;

void bump(const char* name, Stage stage, std::uint64_t n = 1) {
  trace::Tracer* tr = trace::Tracer::current();
  if (tr == nullptr) return;
  tr->metrics().counter(name).add(n);
  tr->metrics()
      .counter(std::string(name) + "." + to_string(stage))
      .add(n);
}

}  // namespace

Stats& stats() { return g_stats; }

void reset_stats() { g_stats = Stats{}; }

void note_verified(Stage stage) {
  ++g_stats.verified;
  bump("integrity.verified", stage);
}

void note_detected(Stage stage) {
  ++g_stats.detected;
  bump("integrity.detected", stage);
}

void note_recovered(Stage stage, std::uint64_t bytes) {
  ++g_stats.recovered;
  g_stats.recovered_bytes += bytes;
  bump("integrity.recovered", stage);
  if (trace::Tracer* tr = trace::Tracer::current()) {
    tr->metrics().counter("integrity.recovered_bytes").add(bytes);
  }
}

void note_scrub_pass(std::uint64_t extents, std::uint64_t repairs) {
  ++g_stats.scrub_passes;
  g_stats.scrub_extents += extents;
  g_stats.scrub_repairs += repairs;
  if (trace::Tracer* tr = trace::Tracer::current()) {
    tr->metrics().counter("integrity.scrub_passes").add(1);
    tr->metrics().counter("integrity.scrub_extents").add(extents);
    tr->metrics().counter("integrity.scrub_repairs").add(repairs);
  }
}

fault::Error make_corrupt_error(fault::Layer layer, Stage stage,
                                const std::string& detail) {
  ++g_stats.failed;
  bump("integrity.failed", stage);
  std::string what = to_string(stage);
  if (!detail.empty()) what += ": " + detail;
  return fault::Error(layer, fault::Kind::data_corrupt, what);
}

}  // namespace colcom::integrity
