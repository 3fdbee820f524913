#include "romio/plan.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "check/check.hpp"
#include "fault/chaos.hpp"
#include "mpi/ft.hpp"
#include "mpi/world.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace colcom::romio {

namespace {
constexpr int kPlanTag = -2000;
constexpr int kReplanTag = -2400;
constexpr int kReplicaTag = -2500;
// Context ids shift internal tags by blocks of 16 so concurrent collectives
// (distinct contexts) cannot cross-match.
int plan_tag(const Hints& hints) { return kPlanTag - hints.context * 16; }
int replan_tag(const Hints& hints) { return kReplanTag - hints.context * 16; }
int replica_tag(const Hints& hints) { return kReplicaTag - hints.context * 16; }

[[maybe_unused]] const bool kTagsRegistered = [] {
  for (int ctx = 0; ctx < 8; ++ctx) {
    const std::string suffix = "(ctx " + std::to_string(ctx) + ")";
    check::register_tag(kPlanTag - ctx * 16, "romio.plan" + suffix);
    check::register_tag(kReplanTag - ctx * 16, "romio.replan" + suffix);
    check::register_tag(kReplicaTag - ctx * 16, "romio.replica" + suffix);
  }
  return true;
}();

// FNV-1a over every hint field the two-phase plan consumes; the CHK-HINT
// open signature. Hints that diverge across ranks of one collective open
// hash differently and trip the checker.
std::uint64_t hint_signature(const Hints& h) {
  std::uint64_t s = 1469598103934665603ull;
  auto mix = [&s](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      s ^= (v >> (8 * i)) & 0xff;
      s *= 1099511628211ull;
    }
  };
  mix(h.cb_buffer_size);
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(h.cb_nodes)));
  mix(h.pipelined ? 1 : 0);
  mix(h.stripe_aligned_fd ? 1 : 0);
  mix(h.stripe_size);
  mix(h.fd_alignment);
  mix(h.sieve_gap);
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(h.context)));
  mix(h.staging_aware_placement ? 1 : 0);
  return s;
}

std::string hint_describe(const Hints& h) {
  return "cb_buffer_size=" + std::to_string(h.cb_buffer_size) +
         " cb_nodes=" + std::to_string(h.cb_nodes) +
         " pipelined=" + std::to_string(h.pipelined ? 1 : 0) +
         " stripe_aligned_fd=" + std::to_string(h.stripe_aligned_fd ? 1 : 0) +
         " stripe_size=" + std::to_string(h.stripe_size) +
         " fd_alignment=" + std::to_string(h.fd_alignment) +
         " sieve_gap=" + std::to_string(h.sieve_gap) +
         " context=" + std::to_string(h.context) +
         " staging_aware_placement=" +
         std::to_string(h.staging_aware_placement ? 1 : 0);
}

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

// Receive scratch for peers' offset lists. A list's size is unknown a priori
// and recv() enforces fit, so the scratch holds any realistic list (256k
// extents). It is left uninitialized: each receive reads back only the bytes
// it was sent, and pages no list reaches are never committed.
struct ListScratch {
  static constexpr std::size_t kBytes = 4 << 20;
  std::unique_ptr<std::byte[]> mem =
      std::make_unique_for_overwrite<std::byte[]>(kBytes);
  std::span<std::byte> bytes() const { return {mem.get(), kBytes}; }
};

// The pieces of `req` inside [lo, hi), as a request of their own.
FlatRequest clip(const FlatRequest& req, std::uint64_t lo, std::uint64_t hi) {
  std::vector<pfs::ByteExtent> clipped;
  for (const auto& p : req.intersect(lo, hi)) {
    clipped.push_back(pfs::ByteExtent{p.file_off, p.len});
  }
  return FlatRequest(std::move(clipped));
}

// Staging-aware placement over the residency `scores` (indexed by rank):
// warm ranks (score > 0) first, highest score first, rank id breaking ties
// — deterministic, so every rank derives the identical list. A warm pool
// larger than the `spaced` default grows the set instead of truncating it:
// dropping a warm rank would re-read its resident chunks cold. An explicit
// cb_nodes still caps the growth (the hint is authoritative), as does the
// alive pool. Cold slots fall back to the spaced default, then to the pool
// front where the two collide; an all-cold exchange reproduces the spaced
// default exactly.
std::vector<int> warm_first(std::span<const std::uint64_t> scores,
                            const std::vector<int>& pool,
                            const std::vector<int>& spaced,
                            const Hints& hints) {
  std::vector<int> aggs;
  for (int r : pool) {
    if (scores[static_cast<std::size_t>(r)] > 0) aggs.push_back(r);
  }
  std::stable_sort(aggs.begin(), aggs.end(), [&scores](int a, int b) {
    return scores[static_cast<std::size_t>(a)] >
           scores[static_cast<std::size_t>(b)];
  });
  std::size_t naggs = spaced.size();
  if (aggs.size() > naggs) {
    const std::size_t cap =
        hints.cb_nodes > 0
            ? std::min(static_cast<std::size_t>(hints.cb_nodes), pool.size())
            : pool.size();
    naggs = std::min(aggs.size(), cap);
    aggs.resize(naggs);
  }
  for (const std::vector<int>* fill : {&spaced, &pool}) {
    for (int r : *fill) {
      if (aggs.size() >= naggs) break;
      if (std::find(aggs.begin(), aggs.end(), r) == aggs.end()) {
        aggs.push_back(r);
      }
    }
  }
  return aggs;
}

// The plan math build_plan and build_plan_local share, over the agreed
// access range [gmin, gmax) and the alive aggregator candidates `pool`
// (ascending ranks). Sets the chunk size; rounds the range outward to
// fd_alignment; selects cb_nodes aggregators (default `n_nodes`: the first
// rank of each compute node, ROMIO's one-aggregator-per-node default)
// spaced evenly over the pool, or places them warm-first when residency
// `scores` are given; and partitions the range into even file domains, one
// per aggregator. Returns false, leaving the plan empty, when nobody
// accesses anything.
bool lay_out(TwoPhasePlan& plan, std::int64_t gmin, std::int64_t gmax,
             const std::vector<int>& pool, int n_nodes, const Hints& hints,
             std::span<const std::uint64_t> scores) {
  plan.cb = hints.cb_buffer_size;
  if (gmin >= gmax) return false;
  plan.gmin = static_cast<std::uint64_t>(gmin);
  plan.gmax = static_cast<std::uint64_t>(gmax);
  if (hints.fd_alignment > 1) {
    // Round the range outward so domain boundaries land on element borders.
    plan.gmin -= plan.gmin % hints.fd_alignment;
    plan.gmax += (hints.fd_alignment - plan.gmax % hints.fd_alignment) %
                 hints.fd_alignment;
    COLCOM_EXPECT_MSG(hints.cb_buffer_size % hints.fd_alignment == 0,
                      "cb_buffer_size must be a multiple of fd_alignment");
  }

  COLCOM_EXPECT_MSG(!pool.empty(), "no alive aggregator candidate");
  const int npool = static_cast<int>(pool.size());
  const int naggs =
      std::max(1, std::min(hints.cb_nodes > 0 ? hints.cb_nodes : n_nodes,
                           npool));
  const int spacing = std::max(1, npool / naggs);
  for (int a = 0; a < naggs; ++a) {
    plan.aggregators.push_back(
        pool[static_cast<std::size_t>(std::min(a * spacing, npool - 1))]);
  }
  if (!scores.empty()) {
    plan.aggregators = warm_first(scores, pool, plan.aggregators, hints);
  }

  // Even file-domain partitioning (optionally stripe-aligned).
  const auto n = static_cast<std::uint64_t>(plan.aggregators.size());
  std::uint64_t per = (plan.gmax - plan.gmin + n - 1) / n;
  if (hints.stripe_aligned_fd && hints.stripe_size > 0) {
    per = ((per + hints.stripe_size - 1) / hints.stripe_size) *
          hints.stripe_size;
  }
  if (hints.fd_alignment > 1) {
    per = ((per + hints.fd_alignment - 1) / hints.fd_alignment) *
          hints.fd_alignment;
  }
  per = std::max<std::uint64_t>(per, 1);
  std::uint64_t max_domain = 0;
  for (std::uint64_t a = 0; a < n; ++a) {
    const std::uint64_t b = std::min(plan.gmax, plan.gmin + a * per);
    const std::uint64_t e = std::min(plan.gmax, b + per);
    plan.fd_begin.push_back(b);
    plan.fd_end.push_back(e);
    max_domain = std::max(max_domain, e - b);
  }
  plan.n_iters = static_cast<int>((max_domain + plan.cb - 1) / plan.cb);
  return true;
}
}

std::vector<pfs::ByteExtent> chunk_read_extents(
    const std::vector<FlatRequest>& domain_requests, pfs::ByteExtent chunk,
    std::uint64_t sieve_gap) {
  std::vector<pfs::ByteExtent> needed;
  for (const auto& req : domain_requests) {
    for (const auto& p : req.intersect(chunk.offset, chunk.end())) {
      needed.push_back(pfs::ByteExtent{p.file_off, p.len});
    }
  }
  if (needed.empty()) return needed;
  std::sort(needed.begin(), needed.end(),
            [](const pfs::ByteExtent& a, const pfs::ByteExtent& b) {
              return a.offset != b.offset ? a.offset < b.offset
                                          : a.length < b.length;
            });
  // Merge overlaps and sieve small holes.
  std::size_t out = 0;
  for (std::size_t i = 1; i < needed.size(); ++i) {
    if (needed[i].offset <= needed[out].end() + sieve_gap) {
      needed[out].length =
          std::max(needed[out].end(), needed[i].end()) - needed[out].offset;
    } else {
      needed[++out] = needed[i];
    }
  }
  needed.resize(out + 1);
  return needed;
}

int TwoPhasePlan::aggregator_index(int rank) const {
  for (std::size_t i = 0; i < aggregators.size(); ++i) {
    if (aggregators[i] == rank) return static_cast<int>(i);
  }
  return -1;
}

TwoPhasePlan TwoPhasePlan::shifted(std::int64_t delta) const {
  TwoPhasePlan p = *this;
  auto move = [delta](std::uint64_t v) {
    COLCOM_EXPECT_MSG(delta >= 0 || v >= static_cast<std::uint64_t>(-delta),
                      "plan shift would move offsets before 0");
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v) + delta);
  };
  p.gmin = move(p.gmin);
  p.gmax = move(p.gmax);
  for (auto& b : p.fd_begin) b = move(b);
  for (auto& e : p.fd_end) e = move(e);
  for (auto& req : p.domain_requests) req = req.shifted(delta);
  for (auto& req : p.all_requests) req = req.shifted(delta);
  return p;
}

std::vector<std::byte> TwoPhasePlan::serialize() const {
  std::vector<std::byte> out;
  put_u64(out, gmin);
  put_u64(out, gmax);
  put_u64(out, static_cast<std::uint64_t>(n_iters));
  put_u64(out, cb);
  put_u64(out, aggregators.size());
  for (const int a : aggregators) {
    put_u64(out, static_cast<std::uint64_t>(a));
  }
  for (const std::uint64_t b : fd_begin) put_u64(out, b);
  for (const std::uint64_t e : fd_end) put_u64(out, e);
  put_u64(out, domain_requests.size());
  for (const FlatRequest& req : domain_requests) {
    const std::vector<std::byte> wire = req.serialize();
    put_u64(out, wire.size());
    out.insert(out.end(), wire.begin(), wire.end());
  }
  put_u64(out, all_requests.size());
  for (const FlatRequest& req : all_requests) {
    const std::vector<std::byte> wire = req.serialize();
    put_u64(out, wire.size());
    out.insert(out.end(), wire.begin(), wire.end());
  }
  return out;
}

TwoPhasePlan TwoPhasePlan::deserialize(std::span<const std::byte> bytes) {
  TwoPhasePlan p;
  std::size_t pos = 0;
  p.gmin = get_u64(bytes, pos);
  p.gmax = get_u64(bytes, pos);
  p.n_iters = static_cast<int>(get_u64(bytes, pos));
  p.cb = get_u64(bytes, pos);
  const std::uint64_t naggs = get_u64(bytes, pos);
  p.aggregators.reserve(naggs);
  for (std::uint64_t i = 0; i < naggs; ++i) {
    p.aggregators.push_back(static_cast<int>(get_u64(bytes, pos)));
  }
  for (std::uint64_t i = 0; i < naggs; ++i) {
    p.fd_begin.push_back(get_u64(bytes, pos));
  }
  for (std::uint64_t i = 0; i < naggs; ++i) {
    p.fd_end.push_back(get_u64(bytes, pos));
  }
  const std::uint64_t nreqs = get_u64(bytes, pos);
  p.domain_requests.reserve(nreqs);
  for (std::uint64_t i = 0; i < nreqs; ++i) {
    const std::uint64_t n = get_u64(bytes, pos);
    COLCOM_EXPECT(pos + n <= bytes.size());
    p.domain_requests.push_back(
        FlatRequest::deserialize(bytes.subspan(pos, n)));
    pos += n;
  }
  const std::uint64_t nall = get_u64(bytes, pos);
  p.all_requests.reserve(nall);
  for (std::uint64_t i = 0; i < nall; ++i) {
    const std::uint64_t n = get_u64(bytes, pos);
    COLCOM_EXPECT(pos + n <= bytes.size());
    p.all_requests.push_back(FlatRequest::deserialize(bytes.subspan(pos, n)));
    pos += n;
  }
  COLCOM_EXPECT_MSG(pos == bytes.size(), "trailing bytes in plan image");
  return p;
}

pfs::ByteExtent TwoPhasePlan::chunk(int a, int k) const {
  const auto ia = static_cast<std::size_t>(a);
  COLCOM_EXPECT(ia < fd_begin.size() && k >= 0);
  const std::uint64_t begin =
      fd_begin[ia] + static_cast<std::uint64_t>(k) * cb;
  if (begin >= fd_end[ia]) return pfs::ByteExtent{0, 0};
  const std::uint64_t end = std::min(begin + cb, fd_end[ia]);
  return pfs::ByteExtent{begin, end - begin};
}

TwoPhasePlan build_plan(mpi::Comm& comm, const FlatRequest& mine,
                        const Hints& hints, std::uint64_t my_residency) {
  COLCOM_EXPECT(hints.cb_buffer_size >= 1);
  TRACE_SPAN(comm.engine(), "romio", "plan");
  if (check::Checker* ck = check::Checker::current()) {
    ck->on_collective_open(comm.rank(), hint_signature(hints),
                           hint_describe(hints));
  }
  TwoPhasePlan plan;

  // Agree on the global access range: one max over {-min, max}.
  constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
  const std::int64_t my_range[2] = {
      mine.empty() ? -kNone : -static_cast<std::int64_t>(mine.min_offset()),
      mine.empty() ? 0 : static_cast<std::int64_t>(mine.max_offset())};
  std::int64_t range[2] = {0, 0};
  comm.allreduce(my_range, range, 2, mpi::Prim::i64, mpi::Op::max());
  const std::int64_t gmin = -range[0], gmax = range[1];

  // Under an installed chaos schedule, ranks already crashed at t=0 are
  // excluded from the aggregator candidate pool.
  const int nprocs = comm.size();
  std::vector<int> pool;
  pool.reserve(static_cast<std::size_t>(nprocs));
  {
    fault::Injector* fi = comm.runtime().chaos();
    const bool watch = fi != nullptr && fi->watch_aggregators();
    for (int r = 0; r < nprocs; ++r) {
      if (watch && fi->schedule().aggregator_crashed(r, 0.0)) continue;
      pool.push_back(r);
    }
  }
  // Staging-aware placement: every rank shares its burst-buffer residency
  // score for the target file.
  std::vector<std::uint64_t> scores;
  if (hints.staging_aware_placement && gmin < gmax) {
    scores.resize(static_cast<std::size_t>(nprocs));
    const std::vector<std::uint64_t> counts(static_cast<std::size_t>(nprocs),
                                            sizeof(std::uint64_t));
    comm.allgatherv(std::as_bytes(std::span(&my_residency, 1)), counts,
                    std::as_writable_bytes(std::span(scores)));
  }
  if (!lay_out(plan, gmin, gmax, pool, comm.runtime().n_nodes(), hints,
               scores)) {
    return plan;
  }

  // Exchange access information: every rank ships the part of its offset
  // list that falls in an aggregator's file domain to that aggregator, and
  // only when that part is non-empty. Who sends travels in one allreduce of
  // an nprocs × aggregators bitmap; each rank sets only its own bits, so the
  // i64 sum is their OR, and each aggregator then receives from exactly the
  // flagged ranks. The lists leave only after the allreduce: posted before
  // it, they contend with its tree steps (perfbench's paper_scale ran 10%
  // longer in virtual time that way).
  TRACE_SPAN(comm.engine(), "romio", "exchange");
  const std::size_t naggs = plan.aggregators.size();
  const auto bit = [naggs](int r, std::size_t a) {
    return static_cast<std::size_t>(r) * naggs + a;
  };
  const std::size_t nbits = static_cast<std::size_t>(nprocs) * naggs;
  std::vector<std::uint64_t> my_bits((nbits + 63) / 64, 0);
  std::vector<std::vector<std::byte>> wires(naggs);
  for (std::size_t a = 0; a < naggs; ++a) {
    const FlatRequest clipped = clip(mine, plan.fd_begin[a], plan.fd_end[a]);
    if (clipped.empty()) continue;
    const std::size_t b = bit(comm.rank(), a);
    my_bits[b / 64] |= std::uint64_t{1} << (b % 64);
    wires[a] = clipped.serialize();
  }
  std::vector<std::uint64_t> senders(my_bits.size(), 0);
  comm.allreduce(my_bits.data(), senders.data(), senders.size(),
                 mpi::Prim::i64, mpi::Op::sum());
  std::vector<mpi::Request> sends;
  for (std::size_t a = 0; a < naggs; ++a) {
    if (wires[a].empty()) continue;
    sends.push_back(comm.isend(plan.aggregators[a], plan_tag(hints), wires[a]));
  }

  const int my_agg = plan.aggregator_index(comm.rank());
  if (my_agg >= 0) {
    plan.domain_requests.resize(static_cast<std::size_t>(nprocs));
    // Receive every flagged rank's clipped list (deterministic rank order).
    // recv_ft degrades to recv() without an injector and turns a
    // mid-exchange peer death into a structured fault instead of a hang.
    const ListScratch scratch;
    for (int r = 0; r < nprocs; ++r) {
      const std::size_t b = bit(r, static_cast<std::size_t>(my_agg));
      if (((senders[b / 64] >> (b % 64)) & 1) == 0) continue;
      const auto info = comm.recv_ft(r, plan_tag(hints), scratch.bytes());
      plan.domain_requests[static_cast<std::size_t>(r)] =
          FlatRequest::deserialize(scratch.bytes().first(info.bytes));
    }
  }
  mpi::wait_all(sends);

  // Under a chaos schedule with control-plane crash points, replicate every
  // rank's full offset list to every rank. The O(P^2) wire cost buys a
  // crucial property: once build_plan returns, recovering any aggregator's
  // file domain (replan_local) needs no further messages, so recovery
  // survives cascading deaths during the recovery itself. The plan-exchange
  // crash point deliberately fires only after replication — a rank dying
  // here has already contributed its metadata (and data) everywhere.
  {
    fault::Injector* fi = comm.runtime().chaos();
    if (fi != nullptr && fi->schedule().has_crash_points()) {
      const std::vector<std::byte> wire = mine.serialize();
      std::vector<mpi::Request> rsends;
      rsends.reserve(static_cast<std::size_t>(nprocs));
      for (int r = 0; r < nprocs; ++r) {
        if (r == comm.rank()) continue;
        rsends.push_back(comm.isend(r, replica_tag(hints), wire));
      }
      plan.all_requests.resize(static_cast<std::size_t>(nprocs));
      const ListScratch scratch;
      for (int r = 0; r < nprocs; ++r) {
        if (r == comm.rank()) {
          plan.all_requests[static_cast<std::size_t>(r)] = mine;
          continue;
        }
        const auto info = comm.recv_ft(r, replica_tag(hints), scratch.bytes());
        plan.all_requests[static_cast<std::size_t>(r)] =
            FlatRequest::deserialize(scratch.bytes().first(info.bytes));
      }
      mpi::wait_all(rsends);
      mpi::ft::crash_point(comm, fault::Phase::plan_exchange);
    }
  }
  return plan;
}

TwoPhasePlan build_plan_local(const std::vector<FlatRequest>& all_requests,
                              const std::vector<int>& survivors, int rank,
                              int n_nodes, const Hints& hints) {
  COLCOM_EXPECT(hints.cb_buffer_size >= 1);
  COLCOM_EXPECT(!survivors.empty());
  TwoPhasePlan plan;

  // The global access range over the survivors' requests (a dead rank's
  // share of the hyperslab is simply not part of the shrunken-world job).
  std::int64_t gmin = std::numeric_limits<std::int64_t>::max();
  std::int64_t gmax = 0;
  for (int r : survivors) {
    const FlatRequest& req = all_requests[static_cast<std::size_t>(r)];
    if (req.empty()) continue;
    gmin = std::min(gmin, static_cast<std::int64_t>(req.min_offset()));
    gmax = std::max(gmax, static_cast<std::int64_t>(req.max_offset()));
  }
  // Spaced placement over the survivor pool; staging-aware placement is
  // never consulted (its residency allgather is a collective).
  if (!lay_out(plan, gmin, gmax, survivors, n_nodes, hints, {})) return plan;

  // Replicated metadata: survivors' full requests everywhere (dead ranks
  // stay empty), so later aggregator deaths still recover via replan_local.
  const int nprocs = static_cast<int>(all_requests.size());
  plan.all_requests.resize(static_cast<std::size_t>(nprocs));
  for (int r : survivors) {
    plan.all_requests[static_cast<std::size_t>(r)] =
        all_requests[static_cast<std::size_t>(r)];
  }

  // Local clipping instead of the offset-list exchange: with every
  // survivor's request in hand, an aggregator's domain_requests is a pure
  // function of the plan (the replan_local property).
  const int my_agg = plan.aggregator_index(rank);
  if (my_agg >= 0) {
    const auto ia = static_cast<std::size_t>(my_agg);
    for (const FlatRequest& req : plan.all_requests) {
      plan.domain_requests.push_back(
          clip(req, plan.fd_begin[ia], plan.fd_end[ia]));
    }
  }
  return plan;
}

std::vector<FlatRequest> replan_exchange(mpi::Comm& comm,
                                         const TwoPhasePlan& plan,
                                         int dead_agg,
                                         const std::vector<int>& survivors,
                                         const FlatRequest& mine,
                                         const Hints& hints) {
  const auto id = static_cast<std::size_t>(dead_agg);
  COLCOM_EXPECT(id < plan.fd_begin.size());
  TRACE_SPAN(comm.engine(), "romio", "replan");
  // Ship my offset list clipped to the dead domain to every survivor, so
  // any of them can serve its chunks.
  const std::vector<std::byte> wire =
      clip(mine, plan.fd_begin[id], plan.fd_end[id]).serialize();
  std::vector<mpi::Request> sends;
  sends.reserve(survivors.size());
  for (const int s : survivors) {
    sends.push_back(comm.isend(s, replan_tag(hints), wire));
  }

  std::vector<FlatRequest> absorbed;
  if (std::find(survivors.begin(), survivors.end(), comm.rank()) !=
      survivors.end()) {
    const int nprocs = comm.size();
    absorbed.resize(static_cast<std::size_t>(nprocs));
    const ListScratch scratch;
    for (int r = 0; r < nprocs; ++r) {
      const auto info = comm.recv(r, replan_tag(hints), scratch.bytes());
      absorbed[static_cast<std::size_t>(r)] =
          FlatRequest::deserialize(scratch.bytes().first(info.bytes));
    }
  }
  mpi::wait_all(sends);
  return absorbed;
}

std::vector<FlatRequest> replan_local(mpi::Comm& comm,
                                      const TwoPhasePlan& plan,
                                      int dead_agg) {
  mpi::ft::crash_point(comm, fault::Phase::replan);
  const auto id = static_cast<std::size_t>(dead_agg);
  COLCOM_EXPECT(id < plan.fd_begin.size());
  COLCOM_EXPECT_MSG(!plan.all_requests.empty(),
                    "replan_local needs the access metadata replicated at "
                    "plan time (chaos crash points installed before "
                    "build_plan)");
  TRACE_SPAN(comm.engine(), "romio", "replan_local");
  std::vector<FlatRequest> absorbed;
  absorbed.reserve(plan.all_requests.size());
  for (const FlatRequest& req : plan.all_requests) {
    absorbed.push_back(clip(req, plan.fd_begin[id], plan.fd_end[id]));
  }
  return absorbed;
}

}  // namespace colcom::romio
