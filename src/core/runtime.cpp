#include "core/runtime.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <span>

#include "check/check.hpp"
#include "core/logical.hpp"
#include "fault/chaos.hpp"
#include "mpi/ft.hpp"
#include "mpi/runtime.hpp"
#include "romio/collective.hpp"
#include "romio/independent.hpp"
#include "stage/stage.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace colcom::core {

namespace {

constexpr int kPartialTag = -2300;
constexpr int kFinalTag = -2310;
// Partials of a dead aggregator's chunk, shuffled by the absorbing
// survivor: a distinct tag so own-chunk and absorbed-chunk streams from one
// survivor cannot cross-match.
constexpr int kAbsorbTag = -2320;
// Warm-partial recovery: a role-crashed aggregator ships the records it
// computed but never shuffled to the absorbing survivor (kWarmRepTag); the
// survivor re-serves the missed slot to the receivers under kRecoverTag
// (whether warm-forwarded or cold re-read), again distinct from its own
// streams.
constexpr int kWarmRepTag = -2340;
constexpr int kRecoverTag = -2350;

[[maybe_unused]] const bool kTagsRegistered = [] {
  check::register_tag(kPartialTag, "cc.partial");
  check::register_tag(kFinalTag, "cc.final");
  check::register_tag(kAbsorbTag, "cc.absorb");
  check::register_tag(kWarmRepTag, "cc.warm_partials");
  check::register_tag(kRecoverTag, "cc.recover");
  // Salted attempts (RunOptions::tag_salt != 0) shift every data-plane tag
  // by -(1e9 + salt * 64); name the whole family for diagnostics.
  check::register_tag_range(-2'000'000'000, -1'000'000'000, "cc.salted");
  return true;
}();

// Fault-seeding switches for the schedule explorer's regression tests
// (tests/test_explore.cpp): each re-introduces a bug a previous PR fixed so
// check::Explorer can prove it rediscovers them. Never set outside tests.
//   COLCOM_TEST_WARMSHIP_BUG   a role-dead aggregator with no wreck skips
//                              its death note — the absorbing survivor's
//                              warm receive then polls forever (the PR 7
//                              warm-ship livelock).
//   COLCOM_TEST_SHUFFLE_REUSE_BUG  the shuffle sends straight from the
//                              reused `batch` buffer instead of parking it
//                              (the PR 3 CHK-BUF send-buffer mutation).
bool test_bug(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && *v != '0';
}

// Logical-map construction costs (CPU sys time), per reconstructed run and
// per byte-range piece. These are the "additional works... summed up as
// local reduction overhead" the paper measures in Fig. 11.
constexpr double kConstructPerRun = 150e-9;
constexpr double kConstructPerPiece = 80e-9;

// Simulated-computation calibration: the paper defines the computation:I/O
// ratio against the *overall* I/O cost of the traditional run (read plus its
// exposed shuffle share, ~10% once the read is pipelined), while the CC map
// is anchored per chunk to the chunk's read service time. This factor maps
// between the two definitions so that a 1:1 object really does as much
// compute work as the traditional run it is compared with.
constexpr double kRatioIoCalibration = 1.1;

/// Wire format of one intermediate partial result (the shuffle payload).
struct PartialRecord {
  std::int32_t origin = -1;
  std::uint8_t has_value = 0;
  std::uint8_t pad[3] = {};
  unsigned char value[8] = {};
  std::uint64_t elements = 0;
  std::uint64_t runs = 0;
};
static_assert(sizeof(PartialRecord) == 32);

/// 9-byte (flag, value) record used by the final cross-rank reduce.
struct FinalRecord {
  std::uint8_t has_value = 0;
  unsigned char value[8] = {};
};

// --- mid-analysis state wire helpers (little-endian u64 stream) ---

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_u64(std::span<const std::byte> bytes, std::size_t& pos) {
  COLCOM_EXPECT(pos + 8 <= bytes.size());
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos += 8;
  return v;
}

std::uint64_t acc_bits(const Accumulator& acc) {
  std::uint64_t bits = 0;
  if (!acc.empty()) {
    std::memcpy(&bits, acc.value(), mpi::prim_size(acc.prim()));
  }
  return bits;
}

/// Serializes the per-chunk accumulator state a partial run parks: this
/// rank's own-subset accumulator plus (root, all_to_one only) the per-rank
/// reconstruction arrays.
std::vector<std::byte> encode_mid(const Accumulator& my_acc,
                                  const std::vector<Accumulator>& per_rank,
                                  const std::vector<std::uint64_t>& elems) {
  std::vector<std::byte> out;
  put_u64(out, my_acc.empty() ? 0 : 1);
  put_u64(out, acc_bits(my_acc));
  put_u64(out, per_rank.size());
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    put_u64(out, per_rank[r].empty() ? 0 : 1);
    put_u64(out, acc_bits(per_rank[r]));
    put_u64(out, elems[r]);
  }
  return out;
}

/// Inverse of encode_mid onto freshly seeded accumulators (combine_value,
/// the same restore idiom IterativeComputer uses for its running value).
void decode_mid(std::span<const std::byte> bytes, Accumulator& my_acc,
                std::vector<Accumulator>& per_rank,
                std::vector<std::uint64_t>& elems) {
  std::size_t pos = 0;
  const bool has_mine = get_u64(bytes, pos) != 0;
  const std::uint64_t mine_bits = get_u64(bytes, pos);
  if (has_mine) {
    unsigned char value[8];
    std::memcpy(value, &mine_bits, 8);
    my_acc.combine_value(value);
  }
  const std::uint64_t nper = get_u64(bytes, pos);
  COLCOM_EXPECT_MSG(nper == per_rank.size(),
                    "mid-analysis state shape does not match this run");
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    const bool has = get_u64(bytes, pos) != 0;
    const std::uint64_t bits = get_u64(bytes, pos);
    elems[r] = get_u64(bytes, pos);
    if (has) {
      unsigned char value[8];
      std::memcpy(value, &bits, 8);
      per_rank[r].combine_value(value);
    }
  }
  COLCOM_EXPECT_MSG(pos == bytes.size(), "trailing bytes in mid-state");
}

void fold_final(mpi::Comm& comm, const ObjectIO& obj, mpi::Prim prim,
                const Accumulator& mine, CcOutput& out, CcStats& stats,
                int kFoldTag = kFinalTag) {
  // "The results of each process are sent to one node to perform a final
  // reduce": a binomial combine of (flag, value) records toward the root —
  // the flag handles ranks with empty subsets, so user ops without an
  // identity still reduce correctly.
  const double t0 = comm.wtime();
  TRACE_SPAN(comm.engine(), "cc", "reduce");
  FinalRecord rec;
  rec.has_value = mine.empty() ? 0 : 1;
  if (!mine.empty()) {
    std::memcpy(rec.value, mine.value(), mpi::prim_size(prim));
  }
  const int n = comm.size();
  const int relrank = (comm.rank() - obj.root + n) % n;
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((relrank & mask) == 0) {
      const int rel_src = relrank | mask;
      if (rel_src < n) {
        const int src = (rel_src + obj.root) % n;
        FinalRecord other;
        comm.recv(src, kFoldTag,
                  std::as_writable_bytes(std::span<FinalRecord>(&other, 1)));
        if (other.has_value != 0) {
          if (rec.has_value != 0) {
            // The record's value sits at byte 1, and a user op may read
            // its operands as the element type: combine aligned copies.
            alignas(8) unsigned char in[8];
            alignas(8) unsigned char inout[8];
            std::memcpy(in, other.value, sizeof(in));
            std::memcpy(inout, rec.value, sizeof(inout));
            obj.op.apply(in, inout, 1, prim);
            std::memcpy(rec.value, inout, sizeof(inout));
          } else {
            rec = other;
          }
        }
      }
    } else {
      const int dst = ((relrank & ~mask) + obj.root) % n;
      comm.send(dst, kFoldTag,
                std::as_bytes(std::span<const FinalRecord>(&rec, 1)));
      break;
    }
  }
  if (comm.rank() == obj.root) {
    out.has_global = rec.has_value != 0;
    if (out.has_global) {
      std::memcpy(out.global, rec.value, mpi::prim_size(prim));
    }
  }
  if (obj.broadcast_result) {
    std::uint8_t flag = out.has_global ? 1 : 0;
    comm.bcast(std::as_writable_bytes(std::span<std::uint8_t>(&flag, 1)),
               obj.root);
    comm.bcast(std::span<std::byte>(reinterpret_cast<std::byte*>(out.global),
                                    8),
               obj.root);
    out.has_global = flag != 0;
  }
  stats.reduce_s += comm.wtime() - t0;
}

}  // namespace

namespace detail {
romio::Hints cc_hints(const ObjectIO& obj, std::uint64_t esize) {
  romio::Hints h = obj.hints;
  h.fd_alignment = esize;
  if (h.cb_buffer_size % esize != 0) {
    h.cb_buffer_size += esize - h.cb_buffer_size % esize;
  }
  return h;
}
}  // namespace detail

CcStats collective_compute(mpi::Comm& comm, const ncio::Dataset& ds,
                           const ObjectIO& obj, CcOutput& out) {
  COLCOM_EXPECT(obj.op.valid());
  if (obj.blocking || !obj.collective) {
    // io.block = true (or independent mode): the traditional path.
    return traditional_compute(comm, ds, obj, out);
  }
  const double t0 = comm.wtime();
  const auto mine_req = ds.slab_request(obj.var, obj.start, obj.count);
  const romio::Hints hints =
      detail::cc_hints(obj, mpi::prim_size(ds.info(obj.var).prim));
  const romio::TwoPhasePlan plan = romio::build_plan(comm, mine_req, hints);
  const double plan_s = comm.wtime() - t0;
  CcStats stats = collective_compute_with_plan(comm, ds, obj, plan, out);
  stats.plan_s += plan_s;
  stats.total_s += plan_s;
  return stats;
}

CcStats collective_compute_with_plan(mpi::Comm& comm, const ncio::Dataset& ds,
                                     const ObjectIO& obj,
                                     const romio::TwoPhasePlan& plan,
                                     CcOutput& out) {
  return collective_compute_with_plan(comm, ds, obj, plan, out, RunOptions{});
}

CcStats collective_compute_with_plan(mpi::Comm& comm, const ncio::Dataset& ds,
                                     const ObjectIO& obj,
                                     const romio::TwoPhasePlan& plan,
                                     CcOutput& out, const RunOptions& ropt) {
  COLCOM_EXPECT(obj.op.valid());
  COLCOM_EXPECT_MSG(!obj.blocking && obj.collective,
                    "plan-based execution is the collective-computing path");
  const int begin_iter = ropt.begin_iter;
  const int end_iter =
      ropt.end_iter < 0 ? plan.n_iters : std::min(ropt.end_iter, plan.n_iters);
  COLCOM_EXPECT(begin_iter >= 0 && begin_iter <= end_iter);
  // A partial run ends before the plan does: it parks the per-chunk
  // accumulator state in ropt.mid instead of reducing.
  const bool partial = end_iter < plan.n_iters;
  COLCOM_EXPECT_MSG(!(partial || begin_iter > 0) || ropt.mid != nullptr,
                    "a mid-analysis window needs a RunOptions::mid buffer");
  CcStats stats;
  const double t_begin = comm.wtime();
  const ncio::VarInfo& var = ds.info(obj.var);
  const mpi::Prim prim = var.prim;
  const std::uint64_t esize = mpi::prim_size(prim);
  out = CcOutput{};
  out.prim = prim;

  const auto mine_req = ds.slab_request(obj.var, obj.start, obj.count);
  stats.elements = mine_req.total_bytes() / esize;
  const romio::Hints hints = detail::cc_hints(obj, esize);

  const LogicalMap lmap(var);
  const int my_agg = plan.aggregator_index(comm.rank());
  const bool a2one = obj.reduce_mode == ReduceMode::all_to_one;
  const bool i_am_root = comm.rank() == obj.root;
  auto& fs = comm.runtime().fs();

  Accumulator my_acc(obj.op, prim);            // all_to_all: my partials
  std::vector<Accumulator> per_rank_acc;       // all_to_one: at root
  if (a2one && i_am_root) {
    per_rank_acc.assign(static_cast<std::size_t>(comm.size()),
                        Accumulator(obj.op, prim));
    // Identity-seeded accumulators start non-empty; track emptiness
    // per rank explicitly via element counts instead.
  }
  std::vector<std::uint64_t> per_rank_elems(
      a2one && i_am_root ? static_cast<std::size_t>(comm.size()) : 0, 0);

  // Resuming mid-analysis: re-seed the accumulators from the parked state so
  // iterations [begin_iter, ...) continue bit-identically.
  if (begin_iter > 0) {
    decode_mid(*ropt.mid, my_acc, per_rank_acc, per_rank_elems);
  }

  // ---- fault machinery: aggregator-crash detection and absorption ----
  fault::Injector* const fi = comm.runtime().chaos();
  // The crash watch runs whenever the schedule can kill an aggregator role
  // or a process. It always agrees over mpi::ft::agree (an allreduce would
  // hang on a dead member), so a run the runtime cannot heal ends in the
  // same structured fault::Error on every alive rank. Replans of role
  // deaths exchange the dead domain's requests (replan_exchange); under
  // crash points the metadata was replicated at plan time and replans are
  // the message-free replan_local.
  const bool watch = fi != nullptr && fi->watch_aggregators();
  // Per-attempt data-plane tags: per-pair FIFO would happily match a stale
  // in-flight message of a failed attempt to a resubmitted slice's receive,
  // so every attempt salts its tags into a disjoint block far below the
  // agreement (-3e6) and group (-4e6) tag ranges.
  const int tag_off =
      ropt.tag_salt == 0 ? 0 : 1'000'000'000 + ropt.tag_salt * 64;
  const int partial_tag = kPartialTag - tag_off;
  const int final_tag = kFinalTag - tag_off;
  const int absorb_tag = kAbsorbTag - tag_off;
  const int warm_rep_tag = kWarmRepTag - tag_off;
  const int recover_tag = kRecoverTag - tag_off;
  // A rank that cannot finish this attempt (its make-up absorber died, one
  // of its own reads failed) turns zombie: it keeps joining the crash
  // watches but serves and receives nothing — every slot it still owes
  // gets a death note instead — and raises the abort word so the next
  // agreement converts the local failure into a replicated throw on every
  // alive rank. The scheduler above rolls the job back to its parked mid
  // and resubmits with fresh tags and epochs.
  bool aborting = false;
  // The fault::Error that turned this rank zombie, if a local one did. The
  // abort rethrows it on this rank and throws slice_aborted on the others,
  // so a scheduler's outcome agreement still classifies the attempt by its
  // cause (a data_corrupt is never resubmitted).
  std::exception_ptr cause;
  // Runs `fn`, which reads on this rank's behalf. A fault::Error it raises
  // is local to this rank; under a watch the rank turns zombie (returning
  // false) instead of unwinding alone, which would strand its receivers.
  auto or_zombie = [&](auto&& fn) {
    try {
      fn();
      return true;
    } catch (const fault::Error&) {
      if (!watch) throw;
      aborting = true;
      if (!cause) cause = std::current_exception();
      return false;
    }
  };
  auto raise_abort = [&] {
    if (cause) std::rethrow_exception(cause);
    throw fault::Error(fault::Layer::core, fault::Kind::slice_aborted,
                       "a rank abandoned this slice attempt");
  };
  const int naggs = plan.aggregator_count();
  // Crash reports travel as a bitset of 63-bit words, so any aggregator
  // count works.
  constexpr int kCrashBitsPerWord = 63;
  const int crash_words =
      std::max(1, (naggs + kCrashBitsPerWord - 1) / kCrashBitsPerWord);
  std::vector<char> agg_dead(static_cast<std::size_t>(naggs), 0);
  // Process deaths (fiber gone, by world rank) as agreed by the watch
  // verdicts — a superset distinction from agg_dead, whose role deaths
  // leave the process alive and participating.
  std::vector<char> proc_dead(static_cast<std::size_t>(comm.size()), 0);
  // Iteration whose slot aggregator d never shipped (-1: none), as agreed
  // at the latest watch; the make-up protocol re-serves exactly that slot.
  std::vector<int> miss_iter(static_cast<std::size_t>(naggs), -1);
  // Per dead aggregator index: every rank's request clipped to the dead
  // file domain (populated on surviving aggregators by replan_exchange).
  std::vector<std::vector<romio::FlatRequest>> absorbed(
      static_cast<std::size_t>(naggs));
  // The survivor serving chunk (d, k) of a dead aggregator: rotate over the
  // alive aggregators so absorbed load spreads instead of piling on one.
  // Some aggregator is always alive here: a watch that leaves none throws.
  auto serving_index = [&](int d, int k) {
    std::vector<int> alive;
    for (int b = 0; b < naggs; ++b) {
      if (agg_dead[static_cast<std::size_t>(b)] == 0) alive.push_back(b);
    }
    return alive[static_cast<std::size_t>(
        (d + k) % static_cast<int>(alive.size()))];
  };
  // A role crash that interrupts an iteration this aggregator already
  // mapped parks the computed records here; once the next watch announces
  // the death they ship to the absorbing survivor (warm-partial recovery)
  // instead of the survivor re-reading the chunk from the PFS.
  struct Wreck {
    int k = -1;
    std::vector<PartialRecord> batch;
  };
  std::optional<Wreck> wreck;
  // Receiver-side shuffle log: once an expected slot goes missing (1-byte
  // death notice or a detected process death), that slot and every later
  // one of the iteration are deferred so the make-up records can be folded
  // in the exact fault-free (iteration, aggregator) order — preserving the
  // FP combine order is what keeps recovered results bit-identical.
  struct SlotEntry {
    int a = -1;
    int k = -1;
    bool miss = false;
    std::vector<PartialRecord> recs;
  };
  std::vector<SlotEntry> slot_log;
  bool deferring = false;
  // Stable 1-byte death-notice payload (real shuffle batches are multiples
  // of 32 bytes, and fault-free empty batches are 0 bytes); must outlive
  // the iteration's wait_all.
  const std::byte death_note{};

  // Structural impossibilities, derived purely from agreed verdicts, so
  // every alive rank throws the same error at the same agreement:
  // structured failures a scheduler can classify, never diverging aborts
  // that would hang the survivors at the next agreement.
  auto check_viable = [&] {
    if (std::all_of(agg_dead.begin(), agg_dead.end(),
                    [](char c) { return c != 0; })) {
      throw fault::Error(fault::Layer::core, fault::Kind::unrecoverable,
                         "every aggregator of this plan crashed");
    }
    if (a2one && proc_dead[static_cast<std::size_t>(obj.root)] != 0) {
      throw fault::Error(fault::Layer::core, fault::Kind::root_failed,
                         obj.root, "the reduction root process died");
    }
    if (!a2one && std::any_of(proc_dead.begin(), proc_dead.end(),
                              [](char c) { return c != 0; })) {
      throw fault::Error(
          fault::Layer::core, fault::Kind::unrecoverable,
          "all_to_all reduction cannot survive a process death");
    }
  };

  // One crash watch: agree on role deaths (self-reported), process deaths
  // (the agreement verdict's registry snapshot), missed slots and the
  // abort word, then replan every newly dead aggregator's file domain.
  // Watch `k` announces misses from iteration k-1. All ranks leave with
  // identical agg_dead / proc_dead / miss_iter — every recovery decision
  // below derives from them, never from local timing.
  auto do_watch = [&](int k, int epoch) {
    mpi::ft::crash_point(comm, fault::Phase::crash_watch);
    // Mask layout: words [0, crash_words) carry role-death bits, words
    // [crash_words, 2*crash_words) carry miss bits, and the last word is
    // the abort word. The agreement ORs the masks, so receivers report
    // process-death misses too.
    const std::size_t words = 2 * static_cast<std::size_t>(crash_words) + 1;
    std::vector<std::uint64_t> my_bits(words, 0);
    if (aborting) my_bits[words - 1] |= 1;
    if (my_agg >= 0 && agg_dead[static_cast<std::size_t>(my_agg)] == 0 &&
        fi->schedule().aggregator_crashed(comm.rank(), comm.wtime())) {
      my_bits[static_cast<std::size_t>(my_agg / kCrashBitsPerWord)] |=
          1ull << (my_agg % kCrashBitsPerWord);
      if (wreck.has_value()) {
        my_bits[static_cast<std::size_t>(crash_words +
                                         my_agg / kCrashBitsPerWord)] |=
            1ull << (my_agg % kCrashBitsPerWord);
      }
    }
    for (const SlotEntry& e : slot_log) {
      if (!e.miss) continue;
      my_bits[static_cast<std::size_t>(crash_words +
                                       e.a / kCrashBitsPerWord)] |=
          1ull << (e.a % kCrashBitsPerWord);
    }
    const mpi::ft::Verdict v = mpi::ft::agree(comm, my_bits, epoch);
    const std::vector<std::uint64_t>& bits = v.mask;
    for (int r = 0; r < comm.size(); ++r) {
      if (v.dead_bit(r)) proc_dead[static_cast<std::size_t>(r)] = 1;
    }
    if ((bits[words - 1] & 1) != 0) {
      // Some rank abandoned this attempt: the failure is now replicated, so
      // every alive rank throws a structured error and a scheduler retries
      // from the parked mid on the shrunken world.
      raise_abort();
    }
    // Agreed miss bits first: the invalidation below narrows by them. A
    // miss may name an aggregator already dead in an earlier watch (its
    // absorber died mid-serve).
    for (int d = 0; d < naggs; ++d) miss_iter[static_cast<std::size_t>(d)] = -1;
    for (int d = 0; d < naggs; ++d) {
      if ((bits[static_cast<std::size_t>(crash_words +
                                         d / kCrashBitsPerWord)] >>
               (d % kCrashBitsPerWord) &
           1) != 0) {
        miss_iter[static_cast<std::size_t>(d)] = k - 1;
      }
    }
    for (int d = 0; d < naggs; ++d) {
      const bool role_bit =
          (bits[static_cast<std::size_t>(d / kCrashBitsPerWord)] >>
               (d % kCrashBitsPerWord) &
           1) != 0;
      const bool process_bit =
          proc_dead[static_cast<std::size_t>(
              plan.aggregators[static_cast<std::size_t>(d)])] != 0;
      if ((!role_bit && !process_bit) ||
          agg_dead[static_cast<std::size_t>(d)] != 0) {
        continue;
      }
      agg_dead[static_cast<std::size_t>(d)] = 1;
      if (!plan.all_requests.empty()) {
        absorbed[static_cast<std::size_t>(d)] =
            romio::replan_local(comm, plan, d);
        if (check::Checker* ck = check::Checker::current(); ck != nullptr) {
          // CHK-REP: replan_local runs on replicated metadata — every rank
          // must absorb the identical request list for the dead domain.
          std::uint64_t h = 0;
          std::uint64_t nbytes = 0;
          for (const romio::FlatRequest& fr :
               absorbed[static_cast<std::size_t>(d)]) {
            const std::vector<std::byte> wire = fr.serialize();
            h = h * 1099511628211ull + check::checksum(wire);
            nbytes += fr.total_bytes();
          }
          ck->on_decision(
              comm.rank(), "core.replan", h + static_cast<std::uint64_t>(d),
              "domain=" + std::to_string(d) + " nreq=" +
                  std::to_string(
                      absorbed[static_cast<std::size_t>(d)].size()) +
                  " bytes=" + std::to_string(nbytes));
        }
      } else {
        std::vector<int> survivors;
        for (int b = 0; b < naggs; ++b) {
          if (agg_dead[static_cast<std::size_t>(b)] == 0) {
            survivors.push_back(plan.aggregators[static_cast<std::size_t>(b)]);
          }
        }
        if (survivors.empty()) break;  // check_viable throws below
        absorbed[static_cast<std::size_t>(d)] =
            romio::replan_exchange(comm, plan, d, survivors, mine_req, hints);
      }
      if (ropt.staging != nullptr) {
        // Replan-aware invalidation, narrowed to the truly lost extents:
        // chunks the dead aggregator already shipped stay warm wherever
        // they are cached; only [first unserved chunk, domain end) may
        // hold bytes whose shuffle never happened.
        const int first_unserved =
            miss_iter[static_cast<std::size_t>(d)] >= 0
                ? miss_iter[static_cast<std::size_t>(d)]
                : k;
        const std::uint64_t lo =
            plan.fd_begin[static_cast<std::size_t>(d)] +
            static_cast<std::uint64_t>(std::max(first_unserved, 0)) * plan.cb;
        if (lo < plan.fd_end[static_cast<std::size_t>(d)]) {
          ropt.staging->invalidate(ds.file(), lo,
                                   plan.fd_end[static_cast<std::size_t>(d)]);
        }
      }
      ++stats.replans;
      if (comm.rank() == 0) fi->note_replan();
      if (trace::Tracer* tr = trace::Tracer::current(); tr != nullptr) {
        tr->instant(trace::Track::ranks, comm.rank(), "fault",
                    "agg_crash_detected", comm.wtime());
      }
    }
    check_viable();
  };

  // ---- aggregator-side pipelined I/O state (Fig. 7: the I/O thread) ----
  // One chunk source serves every aggregator read of this run, picked once:
  // an explicit ropt.source (the streaming data plane), else a StagedReader
  // over the attached staging area (warm chunks skip the PFS, prefetch
  // failures degrade to demand reads), else the double-buffered PfsReader.
  // Cold make-ups read around the staging cache: the watch that announced
  // the miss has just invalidated that window, and a cache insert there
  // would shift later evictions.
  stage::PfsReader pfs_reader(comm, fs, ds.file(), hints.sieve_gap, fi);
  std::optional<stage::StagedReader> sreader;
  stage::ChunkSource* makeup_src = &pfs_reader;
  if (ropt.source != nullptr) {
    makeup_src = ropt.source;
  } else if (ropt.staging != nullptr && my_agg >= 0) {
    sreader.emplace(*ropt.staging, fs, ds.file(), hints.sieve_gap, fi);
  }
  stage::ChunkSource& csrc = sreader ? *sreader : *makeup_src;
  auto issue_read = [&](int k, bool speculative) {
    return csrc.begin(plan.chunk(my_agg, k), plan.domain_requests,
                      speculative);
  };
  // The staging config can veto the speculative overlap (the benches' worst
  // case) even when the hints ask for pipelining.
  const bool pipelined =
      hints.pipelined && (!sreader || ropt.staging->config().prefetch);
  // Readahead depth: how many chunks beyond the one in service may be in
  // flight. Only the staging pipeline can queue more than one (the
  // PfsReader double-buffers, a stream source paces itself through the
  // topic window), and depths > 1 are additionally subject to the area's
  // readahead budget — a denied speculative issue leaves `next_issue` in
  // place and the chunk is demand-read when its turn comes.
  const int depth =
      sreader.has_value()
          ? std::max(1, ropt.staging->config().prefetch_depth)
          : 1;
  // A streaming source gets the run's consumed byte span up front:
  // prepare() blocks until the producer has published it (or throws its
  // structured failure), and it does so on EVERY rank — aggregator or not
  // — so a dead producer surfaces before the first collective exchange,
  // never as a hang inside one.
  std::uint64_t src_lo = 0;
  std::uint64_t src_hi = 0;
  if (ropt.source != nullptr) {
    src_lo = std::numeric_limits<std::uint64_t>::max();
    for (int a = 0; a < plan.aggregator_count(); ++a) {
      for (int k = begin_iter; k < end_iter; ++k) {
        const pfs::ByteExtent c = plan.chunk(a, k);
        if (c.length == 0) continue;
        src_lo = std::min(src_lo, c.offset);
        src_hi = std::max(src_hi, c.offset + c.length);
      }
    }
    if (src_lo >= src_hi) {
      src_lo = 0;
      src_hi = 0;
    }
    ropt.source->prepare(src_lo, src_hi);
  }
  int next_issue = begin_iter;
  if (my_agg >= 0 && begin_iter < end_iter) {
    or_zombie([&] { issue_read(begin_iter, false); });
    next_issue = begin_iter + 1;
  }

  std::vector<PartialRecord> batch;        // a2one shuffle payload
  // This iteration's isends, and the batches they send from. An iteration
  // can run process_chunk twice (its own chunk plus an absorbed dead domain
  // during crash recovery); reusing `batch` for the second call would
  // mutate the first call's pending send buffers (CHK-BUF), so each shuffle
  // parks its payload here until the iteration's wait_all. A pending send
  // lends its buffer, so `shipped` is declared first and outlives `sends`.
  std::vector<std::vector<PartialRecord>> shipped;
  std::vector<mpi::Request> sends;
  auto settle_sends = [&] {
    mpi::wait_all(sends);
    sends.clear();
    shipped.clear();
  };
  // Sends the 1-byte death note (unmistakable next to 32-byte record
  // batches) under `tag` to every receiver of chunk `c`, whose records
  // `dreqs` would build: the root (all_to_one), or each rank the chunk
  // holds bytes of (all_to_all). Each logs the slot as missed.
  auto note_receivers = [&](const pfs::ByteExtent& c,
                            const std::vector<romio::FlatRequest>& dreqs,
                            int tag) {
    const std::span<const std::byte> note(&death_note, 1);
    if (a2one) {
      sends.push_back(comm.isend(obj.root, tag, note));
      return;
    }
    for (int r = 0; r < comm.size(); ++r) {
      if (dreqs[static_cast<std::size_t>(r)].bytes_in(
              c.offset, c.offset + c.length) > 0) {
        sends.push_back(comm.isend(r, tag, note));
      }
    }
  };
  // Receive buffers: a whole slot batch (all_to_one root, warm make-up), or
  // this rank's single record of a slot (all_to_all), on the stack.
  std::vector<PartialRecord> recv_buf;
  PartialRecord recv_one;
  auto batch_buf = [&] {
    recv_buf.resize(static_cast<std::size_t>(comm.size()));
    return std::span<PartialRecord>(recv_buf);
  };
  auto slot_buf = [&] {
    return a2one ? batch_buf() : std::span<PartialRecord>(&recv_one, 1);
  };

  // Ships one slot's partial records under `tag`: the whole batch to the
  // root (all_to_one) or each record to its origin rank (all_to_all).
  // `recs` must stay unchanged until the iteration's wait_all.
  auto ship_records = [&](std::span<const PartialRecord> recs, int tag) {
    if (a2one) {
      const auto wire = std::as_bytes(recs);
      stats.shuffle_bytes += wire.size();
      TRACE_COUNT(comm.engine(), ::colcom::trace::Track::ranks,
                  "cc.shuffle_bytes", wire.size());
      sends.push_back(comm.isend(obj.root, tag, wire));
      return;
    }
    for (const PartialRecord& rec : recs) {
      stats.shuffle_bytes += sizeof(PartialRecord);
      TRACE_COUNT(comm.engine(), ::colcom::trace::Track::ranks,
                  "cc.shuffle_bytes", sizeof(PartialRecord));
      sends.push_back(comm.isend(
          rec.origin, tag,
          std::as_bytes(std::span<const PartialRecord>(&rec, 1))));
    }
  };

  // Receives one slot from `src` under `tag` into `dst` and returns the
  // records that arrived, or nullopt on a miss: a 1-byte death note, or —
  // under a crash watch — the sender's process death.
  auto recv_slot = [&](int src, int tag, std::span<PartialRecord> dst)
      -> std::optional<std::span<const PartialRecord>> {
    const std::span<std::byte> wire = std::as_writable_bytes(dst);
    std::uint64_t nbytes = 0;
    if (!watch) {
      nbytes = comm.recv(src, tag, wire).bytes;
    } else {
      try {
        nbytes = comm.recv_ft(src, tag, wire).bytes;
      } catch (const fault::Error& e) {
        if (e.kind() != fault::Kind::rank_failed) throw;
        return std::nullopt;
      }
      // Real batches are multiples of 32 bytes, empty ones 0 bytes.
      if (nbytes == 1) return std::nullopt;
    }
    return dst.first(nbytes / sizeof(PartialRecord));
  };

  // Construction + map + shuffle of one aggregated chunk described by
  // `dreqs` — the plan's own domain requests under kPartialTag, an
  // absorbed dead domain under kAbsorbTag, or a make-up re-serve under
  // kRecoverTag. Identical arithmetic either way, so recovery preserves
  // the fault-free reduction order bit for bit. `ship = false` computes
  // the records but leaves them in `batch` (the role-crash interrupt
  // parks them as a wreck instead of shuffling).
  auto process_chunk = [&](const pfs::ByteExtent& c,
                           std::span<const std::byte> chunk,
                           const std::vector<romio::FlatRequest>& dreqs,
                           double read_service, int tag, bool ship) {
    batch.clear();
    double construct_charge = 0;
    std::uint64_t mapped_bytes = 0;
    if (c.length > 0) {
      for (int r = 0; r < comm.size(); ++r) {
        const auto pieces = dreqs[static_cast<std::size_t>(r)].intersect(
            c.offset, c.offset + c.length);
        if (pieces.empty()) continue;
        LogicalSubset subset;
        subset.origin_rank = r;
        Accumulator part(obj.op, prim);
        bool any = false;
        for (const auto& p : pieces) {
          lmap.construct(p.file_off, p.len, subset.runs);
          subset.elements += p.len / esize;
          part.combine(chunk.data() + (p.file_off - c.offset), p.len / esize);
          mapped_bytes += p.len;
          any = true;
        }
        construct_charge +=
            kConstructPerPiece * static_cast<double>(pieces.size()) +
            kConstructPerRun * static_cast<double>(subset.runs.size());
        stats.logical_runs += subset.runs.size();
        stats.metadata_bytes +=
            LogicalMap::metadata_bytes(subset, lmap.ndims());
        ++stats.partial_count;

        PartialRecord rec;
        rec.origin = r;
        rec.has_value = (any && !part.empty()) ? 1 : 0;
        if (rec.has_value) {
          std::memcpy(rec.value, part.value(), esize);
        }
        rec.elements = subset.elements;
        rec.runs = subset.runs.size();
        batch.push_back(rec);
      }
    }
    // Charge construction (sys) and map (user) time. In ratio mode the
    // map of a chunk costs ratio * the chunk's I/O service time,
    // reproducing the paper's simulated-computation benchmark.
    const double c0 = comm.wtime();
    {
      TRACE_SPAN(comm.engine(), "cc", "construct");
      comm.overhead(construct_charge);
    }
    stats.construct_s += comm.wtime() - c0;
    const double m0 = comm.wtime();
    {
      TRACE_SPAN(comm.engine(), "cc", "map");
      if (obj.compute.ratio_of_io > 0) {
        comm.compute(obj.compute.ratio_of_io * read_service *
                     kRatioIoCalibration);
      } else if (obj.compute.seconds_per_byte > 0) {
        comm.compute(obj.compute.seconds_per_byte *
                     static_cast<double>(mapped_bytes));
      } else if (mapped_bytes > 0) {
        // No explicit model: the map is the reduction itself, a streaming
        // scan at memory bandwidth.
        comm.compute(static_cast<double>(mapped_bytes) /
                     comm.runtime().config().memcpy_bw);
      }
    }
    stats.map_s += comm.wtime() - m0;

    // ---- shuffle phase: ship partial results, not raw data ----
    const double s0 = comm.wtime();
    if (ship) {
      TRACE_SPAN(comm.engine(), "cc", "shuffle");
      if (c.length > 0) {
        if (test_bug("COLCOM_TEST_SHUFFLE_REUSE_BUG")) {
          // Seeded bug: ship from the live `batch`, which the next
          // process_chunk call this iteration clears and refills while the
          // isends are still pending (CHK-BUF).
          ship_records(batch, tag);
        } else {
          shipped.push_back(std::move(batch));
          ship_records(shipped.back(), tag);
        }
      }
    }
    stats.shuffle_s += comm.wtime() - s0;
  };

  // Folds one slot's records in record order: into the per-rank
  // accumulators at an all_to_one root, into this rank's own otherwise.
  auto fold_records = [&](std::span<const PartialRecord> recs) {
    for (const PartialRecord& rec : recs) {
      if (rec.has_value == 0) continue;
      if (!a2one) {
        my_acc.combine_value(rec.value);
        continue;
      }
      per_rank_acc[static_cast<std::size_t>(rec.origin)].combine_value(
          rec.value);
      per_rank_elems[static_cast<std::size_t>(rec.origin)] += rec.elements;
    }
  };

  // Re-reads chunk `c` of dead domain `d` through a fresh auxiliary reader
  // of `src`, so the primary pipeline's order stays untouched, then maps
  // and ships it under `tag`: an absorbed chunk under kAbsorbTag ("absorb"
  // phase) or a cold make-up re-serve under kRecoverTag ("makeup" phase).
  auto serve_dead_chunk = [&](stage::ChunkSource& src,
                              const pfs::ByteExtent& c, int d,
                              const char* phase, int tag) {
    const auto& dreqs = absorbed[static_cast<std::size_t>(d)];
    const std::unique_ptr<stage::ChunkSource> ar = src.aux();
    ar->begin(c, dreqs, false);
    const double w0 = comm.wtime();
    stage::SourceChunk sc;
    {
      TRACE_SPAN(comm.engine(), "cc", phase);
      sc = ar->take();
    }
    stats.io_s += comm.wtime() - w0;
    stats.bytes_read += sc.bytes_read;
    stats.io_fallbacks += sc.fallbacks;
    ++stats.absorbed_chunks;
    fi->note_absorbed_chunk();
    process_chunk(c, sc.data, dreqs, sc.service_s, tag, true);
    ar->release();
  };

  // Post-watch recovery, sender side. Two symmetric roles, both derived
  // from the agreed miss_iter state: a role-dead aggregator ships its
  // parked wreck to the absorbing survivor; that survivor re-serves the
  // missed slot to the receivers under kRecoverTag — warm (forwarding the
  // wreck records, no PFS traffic) when the dead rank's process is alive
  // and warm_partials allows it, cold (re-reading the chunk) otherwise.
  auto post_watch = [&] {
    if (my_agg >= 0 && agg_dead[static_cast<std::size_t>(my_agg)] != 0) {
      const int mk = miss_iter[static_cast<std::size_t>(my_agg)];
      if (wreck.has_value()) {
        if (fi->schedule().config().warm_partials) {
          const int dst = plan.aggregators[static_cast<std::size_t>(
              serving_index(my_agg, wreck->k))];
          shipped.push_back(std::move(wreck->batch));
          const std::vector<PartialRecord>& b = shipped.back();
          sends.push_back(comm.isend(
              dst, warm_rep_tag,
              std::as_bytes(std::span<const PartialRecord>(b))));
        }
        wreck.reset();
      } else if (fi->schedule().config().warm_partials && mk >= 0 &&
                 plan.chunk(my_agg, mk).length > 0 &&
                 !test_bug("COLCOM_TEST_WARMSHIP_BUG")) {
        // (With the seeded PR 7 bug the death note is skipped and the
        // absorber's warm receive below polls forever.)
        // A miss on this domain was announced, but this role-dead rank has
        // no wreck to forward — its role died in an earlier slice (or
        // before serving anything of this one) and the miss really came
        // from the absorber's process death. The absorber still expects a
        // warm ship because this process is alive, so send the 1-byte
        // death note under the same tag: it falls through to the cold
        // re-read instead of waiting forever.
        const int dst = plan.aggregators[static_cast<std::size_t>(
            serving_index(my_agg, mk))];
        sends.push_back(comm.isend(
            dst, warm_rep_tag, std::span<const std::byte>(&death_note, 1)));
      }
    }
    if (my_agg < 0 || agg_dead[static_cast<std::size_t>(my_agg)] != 0) return;
    for (int d = 0; d < naggs; ++d) {
      if (agg_dead[static_cast<std::size_t>(d)] == 0 ||
          miss_iter[static_cast<std::size_t>(d)] < 0) {
        continue;
      }
      const int mk = miss_iter[static_cast<std::size_t>(d)];
      if (serving_index(d, mk) != my_agg) continue;
      const pfs::ByteExtent c = plan.chunk(d, mk);
      if (c.length == 0) continue;
      const bool warm =
          proc_dead[static_cast<std::size_t>(
              plan.aggregators[static_cast<std::size_t>(d)])] == 0 &&
          fi->schedule().config().warm_partials;
      const bool served = or_zombie([&] {
        if (warm) {
          // Warm-partial make-up: the records the dead role already
          // computed, forwarded in their original order. The PFS never sees
          // the chunk again — account the read it would have cost as saved
          // bytes. The role-dead rank's *process* may still die between the
          // watch's verdict and its wreck shipping; fall through to the
          // cold re-read then (warm and cold build identical records).
          // A 1-byte payload is the role-dead rank's "no wreck" death note.
          if (const auto recs = recv_slot(
                  plan.aggregators[static_cast<std::size_t>(d)], warm_rep_tag,
                  batch_buf())) {
            std::uint64_t saved = 0;
            for (const auto& e : romio::chunk_read_extents(
                     absorbed[static_cast<std::size_t>(d)], c,
                     hints.sieve_gap)) {
              saved += e.length;
            }
            ++stats.warm_chunks;
            fi->note_warm_chunk(recs->size(), saved);
            shipped.emplace_back(recs->begin(), recs->end());
            ship_records(shipped.back(), recover_tag);
            return;
          }
        }
        // Cold make-up: re-read the lost chunk and rebuild its records —
        // the arithmetic and record order match the fault-free serve.
        serve_dead_chunk(*makeup_src, c, d, "makeup", recover_tag);
      });
      if (!served) {
        // This absorber cannot re-serve the slot: note every waiting
        // receiver. The receivers zombie too, and the next agreement
        // aborts the attempt for everyone.
        note_receivers(c, absorbed[static_cast<std::size_t>(d)], recover_tag);
      }
    }
  };

  // Post-watch recovery, receiver side: replay the deferred slot log in its
  // original order — a missed slot folds the make-up records arriving under
  // kRecoverTag from the agreed absorbing survivor, a deferred slot folds
  // its stored records — so the FP combine sequence is exactly the
  // fault-free one.
  auto recover_slots = [&](int wk) {
    if (aborting || slot_log.empty()) {
      slot_log.clear();
      deferring = false;
      return;
    }
    for (SlotEntry& e : slot_log) {
      if (!e.miss) {
        fold_records(e.recs);
        continue;
      }
      // A miss older than iteration wk - 1 means its absorbing survivor
      // died before re-serving it (make-up recovery is single-level by
      // design); a miss on the make-up receive means the absorber died, or
      // failed to re-serve and noted us. Either way this rank cannot
      // finish the attempt, and throwing here would hang the others deep in
      // their own receive sequences. Turn zombie instead: drop the log, stop
      // folding, and let the abort word of the next agreement replicate the
      // failure to everyone.
      const auto recs =
          e.k == wk - 1
              ? recv_slot(plan.aggregators[static_cast<std::size_t>(
                              serving_index(e.a, e.k))],
                          recover_tag, slot_buf())
              : std::nullopt;
      if (!recs) {
        aborting = true;
        break;
      }
      fold_records(*recs);
    }
    slot_log.clear();
    deferring = false;
  };

  for (int k = begin_iter; k < end_iter; ++k) {
    if (watch) {
      // Crash watch: role deaths are self-reported, process deaths come
      // from the agreement verdict. A role-crashed rank stays a
      // communicator member — only its I/O-server role dies (the paper's
      // aggregators are an I/O-path service). Even watch epochs belong to
      // the in-loop watches, odd to the final watch, so adjacent
      // agreements never share a tag block. A scheduler resubmitting
      // slices shifts the whole block by RunOptions::epoch_base so no two
      // attempts ever share an agreement epoch.
      do_watch(k, ropt.epoch_base + 2 * k);
      post_watch();
    }
    // A zombie still owes each slot of this iteration a death note: its
    // own, and every absorbed one.
    const bool serving_own =
        my_agg >= 0 &&
        agg_dead[static_cast<std::size_t>(std::max(my_agg, 0))] == 0;

    if (serving_own) {
      const pfs::ByteExtent c = plan.chunk(my_agg, k);
      bool owed = c.length > 0;  // receivers still wait on this slot
      if (!aborting) or_zombie([&] {
        TRACE_COUNT(comm.engine(), ::colcom::trace::Track::ranks,
                    "cc.aggregation_rounds", 1);
        const double wait0 = comm.wtime();
        // A readahead-budget denial earlier left this chunk unissued: fetch
        // it on demand now (never denied), keeping the take() order intact.
        if (next_issue <= k) {
          issue_read(k, false);
          next_issue = k + 1;
        }
        stage::SourceChunk sc;
        {
          TRACE_SPAN(comm.engine(), "cc", "io");
          sc = csrc.take();
        }
        stats.io_s += comm.wtime() - wait0;  // stall only; overlap is free
        stats.bytes_read += sc.bytes_read;
        stats.io_fallbacks += sc.fallbacks;
        // Mid-map process death: after the chunk read, before any of its
        // records ship — the canonical "late in the iteration" crash. Placed
        // before the k+1 prefetch so the dying fiber unwinds with no I/O in
        // flight.
        mpi::ft::crash_point(comm, fault::Phase::mid_map);
        // A timed role crash landing inside the iteration (not at a watch
        // boundary) interrupts after the map: the records exist but never
        // ship. Receivers get a 1-byte death notice and log the miss; the
        // next watch announces it and the make-up protocol re-serves the
        // slot — warm from the parked wreck, or cold from the PFS.
        const bool interrupted =
            watch &&
            fi->schedule().aggregator_crashed(comm.rank(), comm.wtime());
        if (!interrupted && pipelined) {
          while (next_issue < end_iter && next_issue <= k + depth &&
                 issue_read(next_issue, true)) {
            ++next_issue;
          }
        }
        process_chunk(c, sc.data, plan.domain_requests, sc.service_s,
                      partial_tag, !interrupted);
        if (interrupted && c.length > 0) {
          wreck = Wreck{k, std::move(batch)};
          note_receivers(c, plan.domain_requests, partial_tag);
        }
        owed = false;
        csrc.release();
        // Blocking two-phase: only start the next read after this chunk is
        // fully processed.
        if (!interrupted && !pipelined && next_issue == k + 1 &&
            next_issue < end_iter) {
          issue_read(next_issue, false);
          ++next_issue;
        }
      });
      if (owed) note_receivers(c, plan.domain_requests, partial_tag);
    }

    // Serve this iteration's chunks of every dead aggregator assigned to
    // this survivor: re-read the dead-domain chunk (the dead aggregator's
    // in-flight data is gone) and re-shuffle its partials under kAbsorbTag.
    // Under staging the re-read enters this survivor's cache keyed by the
    // dead domain's window with the absorbed request union — the extent
    // re-validation keeps it from ever serving a key collision.
    if (serving_own && watch) {
      for (int d = 0; d < naggs; ++d) {
        if (agg_dead[static_cast<std::size_t>(d)] == 0 ||
            absorbed[static_cast<std::size_t>(d)].empty()) {
          continue;
        }
        if (serving_index(d, k) != my_agg) continue;
        const pfs::ByteExtent c = plan.chunk(d, k);
        if (c.length == 0) continue;
        if (!aborting && or_zombie([&] {
              serve_dead_chunk(csrc, c, d, "absorb", absorb_tag);
            })) {
          continue;
        }
        note_receivers(c, absorbed[static_cast<std::size_t>(d)], absorb_tag);
      }
    }

    // ---- receiver side of the shuffle ----
    const double r0 = comm.wtime();
    trace::ScopedSpan recv_shuffle_span(comm.engine(), "cc", "shuffle");
    // Under crash recovery the partials of a dead aggregator's chunk come
    // from its absorbing survivor, tagged kAbsorbTag; every rank derives
    // the same (survivor, tag) from the agreed agg_dead state.
    auto shuffle_source = [&](int a, int iter) {
      if (watch && agg_dead[static_cast<std::size_t>(a)] != 0) {
        return std::pair<int, int>(
            plan.aggregators[static_cast<std::size_t>(
                serving_index(a, iter))],
            absorb_tag);
      }
      return std::pair<int, int>(
          plan.aggregators[static_cast<std::size_t>(a)], partial_tag);
    };
    // Before this iteration's slots, settle the previous one: replay the
    // deferred log so any missed slot folds its make-up records first. A
    // zombie rank (aborting) receives nothing more: its accumulators are
    // doomed anyway, and the next watch aborts the attempt for everyone —
    // unread messages stay queued under this attempt's tags, which no
    // resubmit ever reuses.
    if (watch) recover_slots(k);
    // The all_to_one root receives every slot's batch; an all_to_all rank
    // receives its own record of every slot its request touches.
    if (!aborting && (!a2one || i_am_root)) {
      for (int a = 0; a < plan.aggregator_count(); ++a) {
        const pfs::ByteExtent c = plan.chunk(a, k);
        if (c.length == 0) continue;
        if (!a2one && mine_req.bytes_in(c.offset, c.offset + c.length) == 0) {
          continue;
        }
        const auto [src, tag] = shuffle_source(a, k);
        const auto recs = recv_slot(src, tag, slot_buf());
        if (!recs) {
          slot_log.push_back(SlotEntry{a, k, true, {}});
          deferring = true;
        } else if (deferring) {
          slot_log.push_back(SlotEntry{
              a, k, false,
              std::vector<PartialRecord>(recs->begin(), recs->end())});
        } else {
          fold_records(*recs);
        }
      }
    }
    if (my_agg < 0) stats.shuffle_s += comm.wtime() - r0;
    settle_sends();
  }

  // Final watch: a death (or interrupted slot) in the last iteration has no
  // following in-loop watch to announce it, so every rank settles here —
  // the same agree/replan/make-up/replay sequence, at the odd epoch. This
  // runs before a partial window parks its mid-state: the parked
  // accumulators must already contain every recovered slot.
  if (watch) {
    do_watch(end_iter, ropt.epoch_base + 2 * end_iter + 1);
    post_watch();
    recover_slots(end_iter);
    settle_sends();
    if (!partial) {
      // Settle: a rank that turned zombie *during* the final watch's
      // recovery (its absorber died re-serving the last slot) has no later
      // watch to replicate the abort — without this agreement the others
      // would hang on it in the final reduce. One word-wide agree decides
      // the attempt, and who is alive for the reduce, for everyone.
      std::vector<std::uint64_t> settle(1, aborting ? 1 : 0);
      const mpi::ft::Verdict v =
          mpi::ft::agree(comm, settle, ropt.epoch_base + 2 * end_iter + 2);
      for (int r = 0; r < comm.size(); ++r) {
        if (v.dead_bit(r)) proc_dead[static_cast<std::size_t>(r)] = 1;
      }
      if ((v.mask[0] & 1) != 0) raise_abort();
      check_viable();
    } else if (aborting) {
      // A partial window runs no further collective: the zombie throws
      // locally (its accumulators are incomplete and must not be parked)
      // and the scheduler's outcome agreement replicates the failure.
      raise_abort();
    }
  }

  if (partial) {
    // Mid-analysis checkpoint window: park the per-chunk accumulator state
    // for the resuming run and skip the final reduce (out stays empty — no
    // rank has a meaningful result yet).
    *ropt.mid = encode_mid(my_acc, per_rank_acc, per_rank_elems);
    stats.total_s = comm.wtime() - t_begin;
    return stats;
  }

  // ---- final reduce ----
  // The settle's check_viable guarantees an alive root here, and no death
  // at all under all_to_all.
  if (a2one) {
    const double t0 = comm.wtime();
    if (i_am_root) {
      Accumulator g(obj.op, prim);
      for (std::size_t r = 0; r < per_rank_acc.size(); ++r) {
        if (per_rank_elems[r] > 0) g.merge(per_rank_acc[r]);
      }
      out.has_global = !g.empty() &&
                       std::any_of(per_rank_elems.begin(),
                                   per_rank_elems.end(),
                                   [](std::uint64_t n) { return n > 0; });
      if (out.has_global) {
        std::memcpy(out.global, g.value(), esize);
      }
      if (per_rank_elems[static_cast<std::size_t>(obj.root)] > 0) {
        out.has_mine = true;
        std::memcpy(out.mine,
                    per_rank_acc[static_cast<std::size_t>(obj.root)].value(),
                    esize);
      }
      out.per_rank = std::move(per_rank_acc);
    }
    if (obj.broadcast_result) {
      std::uint8_t flag = out.has_global ? 1 : 0;
      if (std::any_of(proc_dead.begin(), proc_dead.end(),
                      [](char c) { return c != 0; })) {
        // A world bcast would hang on the dead members: broadcast over the
        // verdict-derived survivor group instead (every alive rank holds
        // the same proc_dead registry, so the groups match).
        std::vector<int> members;
        for (int r = 0; r < comm.size(); ++r) {
          if (proc_dead[static_cast<std::size_t>(r)] == 0) members.push_back(r);
        }
        mpi::ft::Group g(comm, std::move(members), ropt.epoch_base + end_iter);
        int root_index = 0;
        for (std::size_t i = 0; i < g.members().size(); ++i) {
          if (g.members()[i] == obj.root) root_index = static_cast<int>(i);
        }
        g.bcast(std::as_writable_bytes(std::span<std::uint8_t>(&flag, 1)),
                root_index);
        g.bcast(
            std::span<std::byte>(reinterpret_cast<std::byte*>(out.global), 8),
            root_index);
      } else {
        comm.bcast(std::as_writable_bytes(std::span<std::uint8_t>(&flag, 1)),
                   obj.root);
        comm.bcast(
            std::span<std::byte>(reinterpret_cast<std::byte*>(out.global), 8),
            obj.root);
      }
      out.has_global = flag != 0;
    }
    stats.reduce_s += comm.wtime() - t0;
  } else {
    if (!my_acc.empty() && stats.elements > 0) {
      out.has_mine = true;
      std::memcpy(out.mine, my_acc.value(), esize);
    }
    Accumulator contribution(obj.op, prim);
    if (stats.elements > 0) contribution.merge(my_acc);
    fold_final(comm, obj, prim, contribution, out, stats, final_tag);
  }

  // The run's consumed span is done on every rank: a streaming source may
  // now retire the steps it covers and release the staged bytes.
  if (ropt.source != nullptr) ropt.source->retire(src_lo, src_hi);

  stats.total_s = comm.wtime() - t_begin;
  return stats;
}

CcStats traditional_compute(mpi::Comm& comm, const ncio::Dataset& ds,
                            const ObjectIO& obj, CcOutput& out) {
  COLCOM_EXPECT(obj.op.valid());
  CcStats stats;
  const double t_begin = comm.wtime();
  const ncio::VarInfo& var = ds.info(obj.var);
  const mpi::Prim prim = var.prim;
  const std::uint64_t esize = mpi::prim_size(prim);
  out = CcOutput{};
  out.prim = prim;

  const auto mine_req = ds.slab_request(obj.var, obj.start, obj.count);
  stats.elements = mine_req.total_bytes() / esize;
  // Left uninitialized: the read fills every byte.
  const auto storage =
      std::make_unique_for_overwrite<std::byte[]>(mine_req.total_bytes());
  const std::span<std::byte> buffer(storage.get(), mine_req.total_bytes());

  // Phase 1: the whole read completes before any analysis (blocking).
  const double io0 = comm.wtime();
  {
    TRACE_SPAN(comm.engine(), "cc", "io");
    if (obj.collective) {
      romio::CollectiveIo cio(detail::cc_hints(obj, esize));
      const auto st = cio.read_all(comm, ds.file(), mine_req, buffer);
      stats.plan_s = st.plan_s;
      for (const auto& it : st.iters) stats.bytes_read += it.read_bytes;
      stats.shuffle_bytes = st.bytes_moved;
    } else {
      const auto st = romio::read_indep(comm, ds.file(), mine_req, buffer);
      stats.bytes_read = st.bytes_accessed;
    }
  }
  stats.io_s = comm.wtime() - io0;

  // Phase 2: compute (lines 5-7 of the paper's Fig. 5).
  const double m0 = comm.wtime();
  Accumulator my_acc(obj.op, prim);
  {
    TRACE_SPAN(comm.engine(), "cc", "map");
    if (obj.compute.ratio_of_io > 0) {
      comm.compute(obj.compute.ratio_of_io * stats.io_s);
    } else if (obj.compute.seconds_per_byte > 0) {
      comm.compute(obj.compute.seconds_per_byte *
                   static_cast<double>(buffer.size()));
    } else if (!buffer.empty()) {
      comm.compute(static_cast<double>(buffer.size()) /
                   comm.runtime().config().memcpy_bw);
    }
    my_acc.combine(buffer.data(), stats.elements);
  }
  stats.map_s = comm.wtime() - m0;

  if (stats.elements > 0 && !my_acc.empty()) {
    out.has_mine = true;
    std::memcpy(out.mine, my_acc.value(), esize);
  }

  // Phase 3: MPI_Reduce of the sub-results (line 8 of Fig. 5).
  Accumulator contribution(obj.op, prim);
  if (stats.elements > 0) contribution.merge(my_acc);
  fold_final(comm, obj, prim, contribution, out, stats);

  stats.total_s = comm.wtime() - t_begin;
  return stats;
}

Accumulator serial_reduce(const ncio::Dataset& ds, const ObjectIO& obj) {
  COLCOM_EXPECT(obj.op.valid());
  const ncio::VarInfo& var = ds.info(obj.var);
  Accumulator acc(obj.op, var.prim);
  const auto req = ds.slab_request(obj.var, obj.start, obj.count);
  const auto& store = ds.fs().store(ds.file());
  std::vector<std::byte> buf;
  for (const auto& e : req.extents()) {
    buf.resize(e.length);
    store.read(e.offset, buf);
    acc.combine(buf.data(), e.length / mpi::prim_size(var.prim));
  }
  return acc;
}

}  // namespace colcom::core
