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
         " context=" + std::to_string(h.context);
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
  plan.cb = hints.cb_buffer_size;

  // Agree on the global access range.
  const std::int64_t my_min =
      mine.empty() ? std::numeric_limits<std::int64_t>::max()
                   : static_cast<std::int64_t>(mine.min_offset());
  const std::int64_t my_max =
      mine.empty() ? 0 : static_cast<std::int64_t>(mine.max_offset());
  std::int64_t gmin = 0, gmax = 0;
  comm.allreduce(&my_min, &gmin, 1, mpi::Prim::i64, mpi::Op::min());
  comm.allreduce(&my_max, &gmax, 1, mpi::Prim::i64, mpi::Op::max());
  if (gmin >= gmax) {  // nobody accesses anything
    plan.gmin = plan.gmax = 0;
    return plan;
  }
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

  // Aggregator selection: cb_nodes ranks spread evenly (default: the first
  // rank of each compute node, ROMIO's one-aggregator-per-node default).
  // Under an installed chaos schedule, ranks already crashed at t=0 are
  // excluded from the candidate pool.
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
  COLCOM_EXPECT_MSG(!pool.empty(), "every rank crashed before t=0");
  const int npool = static_cast<int>(pool.size());
  int naggs = hints.cb_nodes > 0 ? std::min(hints.cb_nodes, npool)
                                 : std::min(comm.runtime().n_nodes(), npool);
  naggs = std::max(1, naggs);
  const int spacing = std::max(1, npool / naggs);
  std::vector<int> spaced;
  spaced.reserve(static_cast<std::size_t>(naggs));
  for (int a = 0; a < naggs; ++a) {
    spaced.push_back(
        pool[static_cast<std::size_t>(std::min(a * spacing, npool - 1))]);
  }
  if (hints.staging_aware_placement) {
    // Staging-aware placement: every rank shares its burst-buffer residency
    // score for the target file; warm ranks (score > 0) are selected first,
    // highest score wins, rank id breaks ties — deterministic, so every
    // rank derives the identical aggregator list. Cold slots fall back to
    // the spaced default, and an all-cold exchange reproduces it exactly.
    std::vector<std::uint64_t> scores(static_cast<std::size_t>(nprocs), 0);
    {
      const std::vector<std::uint64_t> counts(
          static_cast<std::size_t>(nprocs), sizeof(std::uint64_t));
      comm.allgatherv(
          std::span<const std::byte>(
              reinterpret_cast<const std::byte*>(&my_residency),
              sizeof(my_residency)),
          counts,
          std::span<std::byte>(reinterpret_cast<std::byte*>(scores.data()),
                               scores.size() * sizeof(std::uint64_t)));
    }
    std::vector<int> warm;
    for (int r : pool) {
      if (scores[static_cast<std::size_t>(r)] > 0) warm.push_back(r);
    }
    std::stable_sort(warm.begin(), warm.end(), [&scores](int a, int b) {
      return scores[static_cast<std::size_t>(a)] >
             scores[static_cast<std::size_t>(b)];
    });
    if (static_cast<int>(warm.size()) > naggs) {
      // A warm pool larger than the default aggregator count grows the
      // set instead of truncating it: dropping a warm rank would re-read
      // its resident chunks cold. An explicit cb_nodes still caps the
      // growth (the hint is authoritative), as does the alive pool.
      const int cap =
          hints.cb_nodes > 0 ? std::min(hints.cb_nodes, npool) : npool;
      naggs = std::min(static_cast<int>(warm.size()), cap);
      if (static_cast<int>(warm.size()) > naggs) {
        warm.resize(static_cast<std::size_t>(naggs));
      }
    }
    plan.aggregators = warm;
    for (int r : spaced) {
      if (static_cast<int>(plan.aggregators.size()) >= naggs) break;
      if (std::find(plan.aggregators.begin(), plan.aggregators.end(), r) ==
          plan.aggregators.end()) {
        plan.aggregators.push_back(r);
      }
    }
    // Backstop when the spaced defaults collide with warm picks: fill from
    // the pool front.
    for (int r : pool) {
      if (static_cast<int>(plan.aggregators.size()) >= naggs) break;
      if (std::find(plan.aggregators.begin(), plan.aggregators.end(), r) ==
          plan.aggregators.end()) {
        plan.aggregators.push_back(r);
      }
    }
  } else {
    plan.aggregators = std::move(spaced);
  }

  // Even file-domain partitioning (optionally stripe-aligned).
  const std::uint64_t len = plan.gmax - plan.gmin;
  std::uint64_t per = (len + static_cast<std::uint64_t>(naggs) - 1) /
                      static_cast<std::uint64_t>(naggs);
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
  for (int a = 0; a < naggs; ++a) {
    const std::uint64_t b =
        std::min(plan.gmax, plan.gmin + static_cast<std::uint64_t>(a) * per);
    const std::uint64_t e = std::min(plan.gmax, b + per);
    plan.fd_begin.push_back(b);
    plan.fd_end.push_back(e);
    max_domain = std::max(max_domain, e - b);
  }
  plan.n_iters =
      static_cast<int>((max_domain + plan.cb - 1) / plan.cb);

  // Exchange access information: every rank ships the part of its offset
  // list that falls in each aggregator's file domain to that aggregator.
  TRACE_SPAN(comm.engine(), "romio", "exchange");
  std::vector<mpi::Request> sends;
  std::vector<std::vector<std::byte>> wires(plan.aggregators.size());
  for (int a = 0; a < naggs; ++a) {
    const auto ia = static_cast<std::size_t>(a);
    std::vector<pfs::ByteExtent> clipped;
    for (const auto& p : mine.intersect(plan.fd_begin[ia], plan.fd_end[ia])) {
      clipped.push_back(pfs::ByteExtent{p.file_off, p.len});
    }
    wires[ia] = FlatRequest(std::move(clipped)).serialize();
    sends.push_back(comm.isend(plan.aggregators[ia], plan_tag(hints), wires[ia]));
  }

  if (plan.is_aggregator(comm.rank())) {
    plan.domain_requests.resize(static_cast<std::size_t>(nprocs));
    // Receive every rank's clipped list (deterministic rank order).
    // recv_ft degrades to recv() without an injector and turns a
    // mid-exchange peer death into a structured fault instead of a hang.
    const ListScratch scratch;
    for (int r = 0; r < nprocs; ++r) {
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
  plan.cb = hints.cb_buffer_size;

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
  if (gmin >= gmax) {  // nobody accesses anything
    plan.gmin = plan.gmax = 0;
    return plan;
  }
  plan.gmin = static_cast<std::uint64_t>(gmin);
  plan.gmax = static_cast<std::uint64_t>(gmax);
  if (hints.fd_alignment > 1) {
    plan.gmin -= plan.gmin % hints.fd_alignment;
    plan.gmax += (hints.fd_alignment - plan.gmax % hints.fd_alignment) %
                 hints.fd_alignment;
    COLCOM_EXPECT_MSG(hints.cb_buffer_size % hints.fd_alignment == 0,
                      "cb_buffer_size must be a multiple of fd_alignment");
  }

  // Spaced aggregator selection over the survivor pool — the same math as
  // build_plan's default placement with `survivors` as the alive pool.
  const std::vector<int>& pool = survivors;
  const int npool = static_cast<int>(pool.size());
  int naggs = hints.cb_nodes > 0 ? std::min(hints.cb_nodes, npool)
                                 : std::min(n_nodes, npool);
  naggs = std::max(1, naggs);
  const int spacing = std::max(1, npool / naggs);
  for (int a = 0; a < naggs; ++a) {
    plan.aggregators.push_back(
        pool[static_cast<std::size_t>(std::min(a * spacing, npool - 1))]);
  }

  // Even file-domain partitioning (same math as build_plan).
  const std::uint64_t len = plan.gmax - plan.gmin;
  std::uint64_t per = (len + static_cast<std::uint64_t>(naggs) - 1) /
                      static_cast<std::uint64_t>(naggs);
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
  for (int a = 0; a < naggs; ++a) {
    const std::uint64_t b =
        std::min(plan.gmax, plan.gmin + static_cast<std::uint64_t>(a) * per);
    const std::uint64_t e = std::min(plan.gmax, b + per);
    plan.fd_begin.push_back(b);
    plan.fd_end.push_back(e);
    max_domain = std::max(max_domain, e - b);
  }
  plan.n_iters = static_cast<int>((max_domain + plan.cb - 1) / plan.cb);

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
    plan.domain_requests.resize(static_cast<std::size_t>(nprocs));
    for (int r = 0; r < nprocs; ++r) {
      std::vector<pfs::ByteExtent> clipped;
      for (const auto& p : plan.all_requests[static_cast<std::size_t>(r)]
                               .intersect(plan.fd_begin[ia],
                                          plan.fd_end[ia])) {
        clipped.push_back(pfs::ByteExtent{p.file_off, p.len});
      }
      plan.domain_requests[static_cast<std::size_t>(r)] =
          FlatRequest(std::move(clipped));
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
  std::vector<pfs::ByteExtent> clipped;
  for (const auto& p : mine.intersect(plan.fd_begin[id], plan.fd_end[id])) {
    clipped.push_back(pfs::ByteExtent{p.file_off, p.len});
  }
  const std::vector<std::byte> wire =
      FlatRequest(std::move(clipped)).serialize();
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
    std::vector<pfs::ByteExtent> clipped;
    for (const auto& p : req.intersect(plan.fd_begin[id], plan.fd_end[id])) {
      clipped.push_back(pfs::ByteExtent{p.file_off, p.len});
    }
    absorbed.push_back(FlatRequest(std::move(clipped)));
  }
  return absorbed;
}

}  // namespace colcom::romio
