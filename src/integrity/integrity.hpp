// colcom::integrity — end-to-end data integrity for every custody transfer.
//
// Every byte in the pipeline changes hands at least four times (PFS →
// aggregator → staging/stream buffer → shuffle → checkpoint), and staged or
// streamed copies bypass filesystem checksums entirely. This module is the
// one place checksums are computed, attached, and verified:
//
//   * `checksum()` / `Hasher` / `combine()` — the checksum primitive
//     (one-shot, incremental and extent-combinable variants). A PFS read's
//     guard is the `checksum()` of each extent as the store served it,
//     taken and verified by romio::ChunkReader; no verifier reads a
//     trustworthy copy of the store (`scripts/lint.py` oracle-read). The
//     checksum is the XXH64 construction with seed 0 over every byte,
//     hashing ~8 GiB/s on one core of a Xeon VM (`BM_Checksum` in
//     bench/micro_kernels). Any single-bit flip changes the digest: with
//     certainty in inputs under 32 bytes and in the last (length mod 32)
//     bytes, where every step from word to digest is a bijection, and
//     elsewhere unless the final four-lane merge collides (~2^-64). Its
//     round constants outside this module are a lint error
//     (`scripts/lint.py` raw-checksum), so new custody transfers cannot
//     silently bypass the layer with a private copy.
//   * `Stage` — the named custody stages. A corruption that survives its
//     recovery budget surfaces as `fault::Error{data_corrupt}` whose text
//     names the stage ("stage.cache", "core.checkpoint", ...), never as a
//     silently wrong answer.
//   * `Stats` + `integrity.*` trace metrics — detect/recover/fail counters
//     with the invariant `detected == recovered + failed` (every detection
//     is accounted for), plus scrubber progress counters.
//
// Verification policy is per-layer (`VerifyMode`): `always` checks every
// use, `sampled` checks a deterministic 1-in-8 subset keyed by extent
// identity (same extents every run), `off` trusts the bytes — the A/B/C for
// the overhead study in bench/ext_integrity.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "fault/fault.hpp"

namespace colcom::integrity {

/// Per-layer verification policy.
enum class VerifyMode {
  off,      ///< trust the bytes (baseline; corruption goes undetected)
  sampled,  ///< verify a deterministic 1-in-8 subset of uses
  always,   ///< verify every use (the default everywhere)
};

const char* to_string(VerifyMode mode);

/// Named custody stages — the vocabulary of detection and failure.
enum class Stage {
  pfs_read,        ///< chunk reads arriving from the PFS (ChunkReader)
  cache,           ///< resident stage::ChunkCache entries
  write_behind,    ///< dirty write-behind extents awaiting flush
  stream_payload,  ///< stream::Topic step-buffer contributions
  shuffle,         ///< MPI shuffle envelopes (CHK-SUM sampling)
  checkpoint,      ///< checkpoint generations on the store
  scrub,           ///< the background scrubber over resident extents
};

const char* to_string(Stage stage);

/// The end-to-end checksum (XXH64, seed 0) over the full byte range.
std::uint64_t checksum(std::span<const std::byte> bytes);

/// Incremental form of `checksum`: feed extents in order, read the digest at
/// any point. `Hasher{}.update(a).update(b).digest()` == `checksum(a ++ b)`
/// for every split; a partial stripe carries over between updates.
class Hasher {
 public:
  /// Bytes per stripe: one 8-byte word for each of the four lanes.
  static constexpr std::size_t kStripe = 32;

  Hasher();
  Hasher& update(std::span<const std::byte> bytes);
  std::uint64_t digest() const;

 private:
  std::array<std::uint64_t, 4> lanes_;       ///< one accumulator per lane
  std::uint64_t total_ = 0;                  ///< bytes fed so far
  std::array<std::byte, kStripe> stripe_{};  ///< partial stripe
  std::size_t pending_ = 0;                  ///< bytes held in stripe_
};

/// Folds one extent's digest (and length) into an accumulated chunk digest
/// without touching the bytes again. Order-dependent by design — a chunk's
/// combined sum is a digest over its *sequence* of per-extent digests, not
/// the digest of the concatenated bytes — so extent reordering, truncation,
/// and swapped equal-content extents all change the result. Start from
/// `kCombineSeed`. Lets aggregators keep per-extent sums and still verify a
/// whole multi-extent chunk in O(extents).
constexpr std::uint64_t kCombineSeed = 0xcbf29ce484222325ull;
std::uint64_t combine(std::uint64_t acc, std::uint64_t part, std::uint64_t len);

/// Deterministic sampling decision for `VerifyMode::sampled`, keyed by the
/// extent identity so the same extents verify every run.
bool should_verify(VerifyMode mode, std::uint64_t key);

/// Module-wide counters (the DES is single-threaded; plain fields are safe).
/// Mirrored into `integrity.*` trace metrics by the note_* helpers.
struct Stats {
  std::uint64_t verified = 0;       ///< verifications that ran
  std::uint64_t detected = 0;       ///< checksum mismatches found
  std::uint64_t recovered = 0;      ///< mismatches healed bit-identically
  std::uint64_t failed = 0;         ///< mismatches surfaced as data_corrupt
  std::uint64_t recovered_bytes = 0;  ///< bytes re-fetched/re-read to heal
  std::uint64_t scrub_passes = 0;   ///< scrubber sweeps completed
  std::uint64_t scrub_extents = 0;  ///< resident extents scrubbed
  std::uint64_t scrub_repairs = 0;  ///< rot found and healed by the scrubber
};

Stats& stats();
void reset_stats();

/// Each note_* bumps the stat and the matching `integrity.*` metric (global
/// and per-stage).
///
/// Accounting discipline: `note_detected` counts one corruption *episode* —
/// call it once when a mismatch first sends an extent into recovery, not on
/// every failed retry inside the recovery loop — and close every episode
/// with exactly one `note_recovered` or one `make_corrupt_error`. That is
/// what keeps the acceptance invariant `detected == recovered + failed`.
void note_verified(Stage stage);
void note_detected(Stage stage);
void note_recovered(Stage stage, std::uint64_t bytes);
void note_scrub_pass(std::uint64_t extents, std::uint64_t repairs);

/// Counts the failure and returns the structured error to throw: recovery
/// budget exhausted at `stage`, detected by `layer`. The error text names
/// the custody stage so callers and logs can triage without a debugger.
[[nodiscard]] fault::Error make_corrupt_error(fault::Layer layer, Stage stage,
                                              const std::string& detail);

}  // namespace colcom::integrity
