// Tests for the two-phase collective I/O engine, the planning layer, and
// independent I/O with data sieving.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>

#include "mpi/runtime.hpp"
#include "pfs/store.hpp"
#include "romio/collective.hpp"
#include "romio/independent.hpp"
#include "romio/plan.hpp"
#include "romio/request.hpp"
#include "util/prng.hpp"

namespace colcom::romio {
namespace {

mpi::MachineConfig small_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  cfg.pfs.n_osts = 4;
  cfg.pfs.stripe_size = 4096;
  cfg.pfs.ost_bw = 50e6;
  return cfg;
}

/// Ground-truth byte at file offset i for generator files used below.
std::uint8_t truth_byte(std::uint64_t i) {
  return static_cast<std::uint8_t>((i * 131 + 7) & 0xff);
}

pfs::FileId make_truth_file(pfs::Pfs& fs, std::uint64_t size,
                            const std::string& name = "truth") {
  return fs.create(name, std::make_unique<pfs::GeneratorStore>(
                             size, [](std::uint64_t off,
                                      std::span<std::byte> dst) {
                               for (std::size_t i = 0; i < dst.size(); ++i) {
                                 dst[i] = std::byte{truth_byte(off + i)};
                               }
                             }));
}

TEST(FlatRequest, BuildsDisplacements) {
  FlatRequest r({{10, 5}, {30, 3}, {100, 2}});
  EXPECT_EQ(r.total_bytes(), 10u);
  EXPECT_EQ(r.min_offset(), 10u);
  EXPECT_EQ(r.max_offset(), 102u);
  const auto pieces = r.intersect(0, 1000);
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[1], (Piece{30, 3, 5}));
  EXPECT_EQ(pieces[2], (Piece{100, 2, 8}));
}

TEST(FlatRequest, IntersectClipsPartially) {
  FlatRequest r({{10, 10}});
  const auto pieces = r.intersect(15, 18);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], (Piece{15, 3, 5}));
  EXPECT_TRUE(r.intersect(0, 10).empty());
  EXPECT_TRUE(r.intersect(20, 30).empty());
  EXPECT_EQ(r.bytes_in(12, 100), 8u);
}

TEST(FlatRequest, RejectsUnsortedExtents) {
  EXPECT_THROW(FlatRequest({{30, 3}, {10, 5}}), ContractViolation);
  EXPECT_THROW(FlatRequest({{10, 5}, {12, 5}}), ContractViolation);
  EXPECT_THROW(FlatRequest({{10, 0}}), ContractViolation);
}

TEST(FlatRequest, SerializeRoundTrip) {
  FlatRequest r({{0, 1}, {7, 9}, {1000000000ull, 42}});
  const auto wire = r.serialize();
  const auto back = FlatRequest::deserialize(wire);
  EXPECT_EQ(back.extents(), r.extents());
}

TEST(FlatRequest, FromDatatypeAnchorsAtBase) {
  const std::array<std::uint64_t, 2> sizes{4, 8}, sub{2, 3}, start{1, 2};
  auto t = mpi::Datatype::subarray(sizes, sub, start, mpi::Datatype::f32());
  auto r = FlatRequest::from_datatype(1000, t);
  ASSERT_EQ(r.extents().size(), 2u);
  EXPECT_EQ(r.extents()[0].offset, 1000 + (1 * 8 + 2) * 4);
}

TEST(Plan, DomainsPartitionGlobalRange) {
  mpi::Runtime rt(small_machine(), 8);
  TwoPhasePlan plan;
  rt.run([&](mpi::Comm& c) {
    // Rank r accesses [r*1000, r*1000+500).
    FlatRequest mine({{static_cast<std::uint64_t>(c.rank()) * 1000, 500}});
    Hints h;
    h.cb_buffer_size = 512;
    auto p = build_plan(c, mine, h);
    if (c.rank() == 0) plan = p;
  });
  EXPECT_EQ(plan.gmin, 0u);
  EXPECT_EQ(plan.gmax, 7500u);
  ASSERT_EQ(plan.aggregator_count(), 2);  // 8 ranks / 4 per node = 2 nodes
  EXPECT_EQ(plan.aggregators[0], 0);
  EXPECT_EQ(plan.aggregators[1], 4);
  EXPECT_EQ(plan.fd_begin[0], 0u);
  EXPECT_EQ(plan.fd_end[1], 7500u);
  EXPECT_EQ(plan.fd_end[0], plan.fd_begin[1]);
  // Largest domain 3750 bytes / 512 cb => 8 iterations.
  EXPECT_EQ(plan.n_iters, 8);
}

TEST(Plan, StagingAwarePlacementPicksWarmRanksFirst) {
  mpi::Runtime rt(small_machine(), 8);
  TwoPhasePlan warm_plan, cold_plan;
  rt.run([&](mpi::Comm& c) {
    FlatRequest mine({{static_cast<std::uint64_t>(c.rank()) * 1000, 500}});
    Hints h;
    h.cb_buffer_size = 512;
    h.staging_aware_placement = true;
    // Ranks 6 and 2 hold staged bytes of the target file; everyone else is
    // cold. The warm ranks must be picked over the spaced default {0, 4},
    // highest residency first.
    std::uint64_t residency = 0;
    if (c.rank() == 6) residency = 64 << 10;
    if (c.rank() == 2) residency = 16 << 10;
    auto p = build_plan(c, mine, h, residency);
    if (c.rank() == 0) warm_plan = p;
    // An all-cold exchange must reproduce the default spaced placement —
    // same aggregators, same domains, same iteration count.
    auto q = build_plan(c, mine, h, 0);
    if (c.rank() == 0) cold_plan = q;
  });
  ASSERT_EQ(warm_plan.aggregator_count(), 2);
  EXPECT_EQ(warm_plan.aggregators[0], 6);
  EXPECT_EQ(warm_plan.aggregators[1], 2);
  ASSERT_EQ(cold_plan.aggregator_count(), 2);
  EXPECT_EQ(cold_plan.aggregators[0], 0);
  EXPECT_EQ(cold_plan.aggregators[1], 4);
  // Placement moves the serving ranks, never the work: the domain partition
  // and the chunking are those of the default plan.
  EXPECT_EQ(warm_plan.gmin, cold_plan.gmin);
  EXPECT_EQ(warm_plan.gmax, cold_plan.gmax);
  EXPECT_EQ(warm_plan.n_iters, cold_plan.n_iters);
  EXPECT_EQ(warm_plan.fd_begin, cold_plan.fd_begin);
  EXPECT_EQ(warm_plan.fd_end, cold_plan.fd_end);
}

TEST(Plan, WarmPoolLargerThanNodeCountGrowsAggregatorSet) {
  mpi::Runtime rt(small_machine(), 8);
  TwoPhasePlan grown, capped, wide;
  rt.run([&](mpi::Comm& c) {
    FlatRequest mine({{static_cast<std::uint64_t>(c.rank()) * 1000, 500}});
    Hints h;
    h.cb_buffer_size = 512;
    h.staging_aware_placement = true;
    // Three warm ranks on a two-node world: the one-per-node default would
    // truncate the pool; growth keeps every warm rank serving, score first.
    std::uint64_t residency = 0;
    if (c.rank() == 6) residency = 64 << 10;
    if (c.rank() == 2) residency = 16 << 10;
    if (c.rank() == 5) residency = 8 << 10;
    auto p = build_plan(c, mine, h, residency);
    if (c.rank() == 0) grown = p;
    // An explicit cb_nodes stays an upper bound: the pool truncates back to
    // the highest-residency ranks.
    Hints h2 = h;
    h2.cb_nodes = 2;
    auto q = build_plan(c, mine, h2, residency);
    if (c.rank() == 0) capped = q;
    // cb_nodes beyond the node count is honored: warm ranks first, then the
    // spaced fill tops the set up to the requested width.
    Hints h3 = h;
    h3.cb_nodes = 4;
    auto w = build_plan(c, mine, h3, residency);
    if (c.rank() == 0) wide = w;
  });
  ASSERT_EQ(grown.aggregator_count(), 3);
  EXPECT_EQ(grown.aggregators[0], 6);
  EXPECT_EQ(grown.aggregators[1], 2);
  EXPECT_EQ(grown.aggregators[2], 5);
  // The grown set still partitions the full byte range.
  EXPECT_EQ(grown.fd_begin.front(), grown.gmin);
  EXPECT_EQ(grown.fd_end.back(), grown.gmax);
  ASSERT_EQ(capped.aggregator_count(), 2);
  EXPECT_EQ(capped.aggregators[0], 6);
  EXPECT_EQ(capped.aggregators[1], 2);
  ASSERT_EQ(wide.aggregator_count(), 4);
  EXPECT_EQ(wide.aggregators[0], 6);
  EXPECT_EQ(wide.aggregators[1], 2);
  EXPECT_EQ(wide.aggregators[2], 5);
}

TEST(Plan, StripeAlignedDomains) {
  mpi::Runtime rt(small_machine(), 8);
  std::uint64_t boundary = 0;
  rt.run([&](mpi::Comm& c) {
    FlatRequest mine({{static_cast<std::uint64_t>(c.rank()) * 1000, 1000}});
    Hints h;
    h.stripe_aligned_fd = true;
    h.stripe_size = 4096;
    auto p = build_plan(c, mine, h);
    if (c.rank() == 0) boundary = p.fd_end[0];
  });
  EXPECT_EQ(boundary % 4096, 0u);
}

TEST(Plan, AggregatorsHoldPeerRequests) {
  mpi::Runtime rt(small_machine(), 8);
  std::vector<std::size_t> counts;
  rt.run([&](mpi::Comm& c) {
    FlatRequest mine({{static_cast<std::uint64_t>(c.rank()) * 100, 50}});
    auto p = build_plan(c, mine, Hints{});
    if (p.is_aggregator(c.rank())) {
      std::size_t n = 0;
      for (const auto& r : p.domain_requests) n += r.extents().size();
      counts.push_back(n);
    }
  });
  // Every rank's 1 extent lands in exactly one aggregator's domain.
  std::size_t total = 0;
  for (auto n : counts) total += n;
  EXPECT_EQ(total, 8u);
}

TEST(Plan, EmptyWorldRequest) {
  mpi::Runtime rt(small_machine(), 4);
  int iters = -1;
  rt.run([&](mpi::Comm& c) {
    auto p = build_plan(c, FlatRequest{}, Hints{});
    if (c.rank() == 0) iters = p.n_iters;
  });
  EXPECT_EQ(iters, 0);
}

// Builds the plan collectively over `request(r)` on every rank r, then
// checks it against the message-free reference: build_plan_local over
// every rank's request must agree on the layout, and every aggregator's
// domain_requests must match rank by rank, as extents and as wire bytes.
// Returns the messages the collective build put on the network.
std::uint64_t expect_plan_matches_local(
    int nprocs, const std::function<FlatRequest(int)>& request) {
  Hints h;
  h.cb_buffer_size = 512;
  mpi::Runtime rt(small_machine(), nprocs);
  std::vector<TwoPhasePlan> plans(static_cast<std::size_t>(nprocs));
  rt.run([&](mpi::Comm& c) {
    plans[static_cast<std::size_t>(c.rank())] =
        build_plan(c, request(c.rank()), h);
  });
  std::vector<FlatRequest> all;
  std::vector<int> everyone;
  for (int r = 0; r < nprocs; ++r) {
    all.push_back(request(r));
    everyone.push_back(r);
  }
  for (int r = 0; r < nprocs; ++r) {
    const TwoPhasePlan want =
        build_plan_local(all, everyone, r, rt.n_nodes(), h);
    const TwoPhasePlan& got = plans[static_cast<std::size_t>(r)];
    EXPECT_EQ(got.gmin, want.gmin);
    EXPECT_EQ(got.gmax, want.gmax);
    EXPECT_EQ(got.aggregators, want.aggregators);
    EXPECT_EQ(got.fd_begin, want.fd_begin);
    EXPECT_EQ(got.fd_end, want.fd_end);
    EXPECT_EQ(got.n_iters, want.n_iters);
    EXPECT_EQ(got.domain_requests.size(), want.domain_requests.size())
        << "rank " << r;
    const std::size_t n =
        std::min(got.domain_requests.size(), want.domain_requests.size());
    for (std::size_t q = 0; q < n; ++q) {
      EXPECT_EQ(got.domain_requests[q].extents(),
                want.domain_requests[q].extents())
          << "aggregator " << r << ", peer " << q;
      EXPECT_EQ(got.domain_requests[q].serialize(),
                want.domain_requests[q].serialize())
          << "aggregator " << r << ", peer " << q;
    }
  }
  return rt.network().stats().messages;
}

TEST(Plan, SparseExchangeMatchesLocalBuildOnSlabs) {
  // A contiguous slab per rank over 8 nodes: each slab falls in one file
  // domain, so 32 of the 256 (rank, aggregator) lists are non-empty, and
  // only those travel.
  constexpr int kProcs = 32;
  const std::uint64_t messages = expect_plan_matches_local(kProcs, [](int r) {
    return FlatRequest({{static_cast<std::uint64_t>(r) * 1000, 1000}});
  });
  EXPECT_LT(messages, std::uint64_t{kProcs} * 8);
}

TEST(Plan, SparseExchangeMatchesLocalBuildWhenInterleaved) {
  // 50-byte blocks dealt round-robin: every rank has two blocks in each of
  // the 8 file domains, so every (rank, aggregator) list travels.
  constexpr int kProcs = 32;
  const std::uint64_t messages = expect_plan_matches_local(kProcs, [](int r) {
    std::vector<pfs::ByteExtent> blocks;
    for (std::uint64_t k = 0; k < 16; ++k) {
      blocks.push_back({(k * kProcs + static_cast<std::uint64_t>(r)) * 50, 50});
    }
    return FlatRequest(std::move(blocks));
  });
  EXPECT_GE(messages, std::uint64_t{kProcs} * 8);
}

// Shared harness: N ranks collectively read interleaved blocks and verify
// against ground truth.
void run_collective_read(int nprocs, std::uint64_t block, std::uint64_t stride,
                         std::uint64_t blocks_per_rank, Hints hints,
                         mpi::MachineConfig cfg = small_machine()) {
  mpi::Runtime rt(cfg, nprocs);
  const std::uint64_t file_size =
      stride * blocks_per_rank * static_cast<std::uint64_t>(nprocs) + 4096;
  auto file = make_truth_file(rt.fs(), file_size);
  std::vector<int> failures(static_cast<std::size_t>(nprocs), 0);
  rt.run([&](mpi::Comm& c) {
    // Rank r takes block b at offset (b*nprocs + r)*stride.
    std::vector<pfs::ByteExtent> ext;
    for (std::uint64_t b = 0; b < blocks_per_rank; ++b) {
      ext.push_back(
          {(b * static_cast<std::uint64_t>(nprocs) +
            static_cast<std::uint64_t>(c.rank())) *
               stride,
           block});
    }
    FlatRequest mine(std::move(ext));
    std::vector<std::byte> dst(mine.total_bytes());
    CollectiveIo cio(hints);
    const auto st = cio.read_all(c, file, mine, dst);
    EXPECT_EQ(st.bytes_moved, mine.total_bytes());
    // Verify every byte.
    std::uint64_t pos = 0;
    int bad = 0;
    for (const auto& e : mine.extents()) {
      for (std::uint64_t i = 0; i < e.length; ++i) {
        if (std::to_integer<std::uint8_t>(dst[pos + i]) !=
            truth_byte(e.offset + i)) {
          ++bad;
        }
      }
      pos += e.length;
    }
    failures[static_cast<std::size_t>(c.rank())] = bad;
  });
  for (int r = 0; r < nprocs; ++r) {
    EXPECT_EQ(failures[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
}

TEST(CollectiveRead, InterleavedBlocksPipelined) {
  Hints h;
  h.cb_buffer_size = 8192;
  run_collective_read(8, 256, 1024, 20, h);
}

TEST(CollectiveRead, InterleavedBlocksBlocking) {
  Hints h;
  h.cb_buffer_size = 8192;
  h.pipelined = false;
  run_collective_read(8, 256, 1024, 20, h);
}

TEST(CollectiveRead, SingleAggregator) {
  Hints h;
  h.cb_nodes = 1;
  h.cb_buffer_size = 4096;
  run_collective_read(6, 128, 512, 10, h);
}

TEST(CollectiveRead, ManyAggregators) {
  Hints h;
  h.cb_nodes = 8;  // every rank aggregates
  h.cb_buffer_size = 2048;
  run_collective_read(8, 128, 512, 10, h);
}

TEST(CollectiveRead, TinyCollectiveBufferManyIterations) {
  Hints h;
  h.cb_buffer_size = 600;  // forces many lockstep iterations
  run_collective_read(4, 100, 400, 8, h);
}

TEST(CollectiveRead, SingleRankWorld) {
  Hints h;
  run_collective_read(1, 512, 2048, 16, h);
}

TEST(Plan, OffsetListsBeyondFourMiB) {
  // Two ranks on one node, so one aggregator, and 300,000 interleaved 4-byte
  // extents each: every offset list is 8 + 16 * 300,000 bytes, more than
  // the 4 MiB a fixed-size list receive once held. The lists land in
  // receives sized by the message.
  run_collective_read(2, 4, 8, 300000, Hints{});
}

TEST(CollectiveRead, SomeRanksEmpty) {
  mpi::Runtime rt(small_machine(), 4);
  auto file = make_truth_file(rt.fs(), 1 << 20);
  std::vector<int> bad(4, 0);
  rt.run([&](mpi::Comm& c) {
    FlatRequest mine;  // ranks 1 and 3 read nothing
    if (c.rank() % 2 == 0) {
      mine = FlatRequest(
          {{static_cast<std::uint64_t>(c.rank()) * 5000 + 100, 3000}});
    }
    std::vector<std::byte> dst(mine.total_bytes());
    CollectiveIo cio{Hints{.cb_buffer_size = 1024}};
    cio.read_all(c, file, mine, dst);
    for (std::uint64_t i = 0; i < mine.total_bytes(); ++i) {
      const auto off = mine.extents()[0].offset + i;
      if (std::to_integer<std::uint8_t>(dst[i]) != truth_byte(off)) {
        ++bad[static_cast<std::size_t>(c.rank())];
      }
    }
  });
  for (int b : bad) EXPECT_EQ(b, 0);
}

TEST(CollectiveRead, OverlappingRequestsBothServed) {
  mpi::Runtime rt(small_machine(), 2);
  auto file = make_truth_file(rt.fs(), 65536);
  std::vector<int> bad(2, 0);
  rt.run([&](mpi::Comm& c) {
    // Both ranks read the same range (read sharing is legal).
    FlatRequest mine({{1000, 5000}});
    std::vector<std::byte> dst(5000);
    CollectiveIo cio{Hints{.cb_buffer_size = 2048}};
    cio.read_all(c, file, mine, dst);
    for (std::uint64_t i = 0; i < 5000; ++i) {
      if (std::to_integer<std::uint8_t>(dst[i]) != truth_byte(1000 + i)) {
        ++bad[static_cast<std::size_t>(c.rank())];
      }
    }
  });
  EXPECT_EQ(bad[0] + bad[1], 0);
}

TEST(CollectiveRead, AggregatorStatsPopulated) {
  mpi::Runtime rt(small_machine(), 8);
  auto file = make_truth_file(rt.fs(), 1 << 20);
  std::vector<IterStat> agg_iters;
  rt.run([&](mpi::Comm& c) {
    FlatRequest mine({{static_cast<std::uint64_t>(c.rank()) * 65536, 32768}});
    std::vector<std::byte> dst(32768);
    CollectiveIo cio{Hints{.cb_buffer_size = 65536}};
    auto st = cio.read_all(c, file, mine, dst);
    if (c.rank() == 0) agg_iters = st.iters;
  });
  ASSERT_FALSE(agg_iters.empty());
  double read_total = 0, shuffle_total = 0;
  for (const auto& it : agg_iters) {
    read_total += it.read_s;
    shuffle_total += it.shuffle_s;
  }
  EXPECT_GT(read_total, 0.0);
  EXPECT_GT(shuffle_total, 0.0);
}

TEST(CollectiveRead, PipelineOverlapsReadWithShuffle) {
  // With pipelining the aggregate stall time must be lower than the blocking
  // variant on the same workload.
  auto run = [](bool pipelined) {
    mpi::Runtime rt(small_machine(), 8);
    auto file = make_truth_file(rt.fs(), 8 << 20);
    double makespan = 0;
    rt.run([&](mpi::Comm& c) {
      std::vector<pfs::ByteExtent> ext;
      for (std::uint64_t b = 0; b < 32; ++b) {
        ext.push_back({(b * 8 + static_cast<std::uint64_t>(c.rank())) * 16384,
                       8192});
      }
      FlatRequest mine(std::move(ext));
      std::vector<std::byte> dst(mine.total_bytes());
      Hints h;
      h.cb_buffer_size = 65536;
      h.pipelined = pipelined;
      CollectiveIo cio(h);
      cio.read_all(c, file, mine, dst);
    });
    makespan = rt.elapsed();
    return makespan;
  };
  const double t_pipe = run(true);
  const double t_block = run(false);
  EXPECT_LT(t_pipe, t_block);
}

TEST(CollectiveWrite, RoundTripThroughCollectiveRead) {
  mpi::Runtime rt(small_machine(), 8);
  auto file = rt.fs().create("out", std::make_unique<pfs::MemStore>(1 << 20));
  std::vector<int> bad(8, 0);
  rt.run([&](mpi::Comm& c) {
    // Rank r writes pattern r into interleaved blocks, then all read back.
    std::vector<pfs::ByteExtent> ext;
    for (std::uint64_t b = 0; b < 16; ++b) {
      ext.push_back({(b * 8 + static_cast<std::uint64_t>(c.rank())) * 512, 256});
    }
    FlatRequest mine(std::move(ext));
    std::vector<std::byte> src(mine.total_bytes(),
                               std::byte{static_cast<std::uint8_t>(c.rank())});
    CollectiveIo cio{Hints{.cb_buffer_size = 4096}};
    cio.write_all(c, file, mine, src);
    c.barrier();
    std::vector<std::byte> back(mine.total_bytes());
    cio.read_all(c, file, mine, back);
    for (const auto& byte : back) {
      if (std::to_integer<std::uint8_t>(byte) != c.rank()) {
        ++bad[static_cast<std::size_t>(c.rank())];
      }
    }
  });
  for (int b : bad) EXPECT_EQ(b, 0);
}

// Rank r's extents for the guard tests: one block of 1 to 150 bytes in
// each of its 300-byte slots (slots interleave round-robin over ranks), and
// in every third slot a second block touching the first. So a chunk holds
// one run of a rank's pieces, several runs, or a run of touching extents.
FlatRequest guard_layout(int rank, int nprocs) {
  std::vector<pfs::ByteExtent> ext;
  const auto r = static_cast<std::uint64_t>(rank);
  for (std::uint64_t b = 0; b < 24; ++b) {
    const std::uint64_t slot =
        (b * static_cast<std::uint64_t>(nprocs) + r) * 300;
    const std::uint64_t len = 1 + (b * 53 + r) % 150;
    ext.push_back({slot, len});
    if (b % 3 == 0) ext.push_back({slot + len, 150});
  }
  return FlatRequest(std::move(ext));
}

constexpr std::size_t kGuard = 64;
constexpr std::byte kSentinel{0xa5};

TEST(CollectiveRead, ReceivesLandInsideDstOnly) {
  constexpr int kProcs = 6;
  mpi::Runtime rt(small_machine(), kProcs);
  auto file = make_truth_file(rt.fs(), 1 << 20);
  std::vector<int> bad(kProcs, 0);
  rt.run([&](mpi::Comm& c) {
    const FlatRequest mine = guard_layout(c.rank(), kProcs);
    // dst is carved from a larger buffer with sentinels on both sides.
    std::vector<std::byte> whole(kGuard + mine.total_bytes() + kGuard,
                                 kSentinel);
    const auto dst = std::span<std::byte>(whole).subspan(kGuard,
                                                         mine.total_bytes());
    CollectiveIo cio{Hints{.cb_buffer_size = 4096, .cb_nodes = 3}};
    cio.read_all(c, file, mine, dst);
    int& b = bad[static_cast<std::size_t>(c.rank())];
    for (std::size_t i = 0; i < kGuard; ++i) {
      if (whole[i] != kSentinel || whole[whole.size() - 1 - i] != kSentinel) {
        ++b;
      }
    }
    std::uint64_t pos = 0;
    for (const auto& e : mine.extents()) {
      for (std::uint64_t i = 0; i < e.length; ++i, ++pos) {
        if (std::to_integer<std::uint8_t>(dst[pos]) !=
            truth_byte(e.offset + i)) {
          ++b;
        }
      }
    }
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(bad[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
}

TEST(CollectiveWrite, SourceBufferIsLeftUntouched) {
  constexpr int kProcs = 6;
  constexpr std::uint64_t kFile = 1 << 18;
  mpi::Runtime rt(small_machine(), kProcs);
  auto file =
      rt.fs().create("out", std::make_unique<pfs::MemStore>(kFile));
  std::vector<int> bad(kProcs, 0);
  rt.run([&](mpi::Comm& c) {
    const FlatRequest mine = guard_layout(c.rank(), kProcs);
    std::vector<std::byte> whole(kGuard + mine.total_bytes() + kGuard,
                                 kSentinel);
    for (std::size_t i = kGuard; i < kGuard + mine.total_bytes(); ++i) {
      whole[i] = std::byte{static_cast<std::uint8_t>(i * 31 + 1)};
    }
    const std::vector<std::byte> before = whole;
    CollectiveIo cio{Hints{.cb_buffer_size = 4096, .cb_nodes = 3}};
    cio.write_all(c, file, mine,
                  std::span<const std::byte>(whole).subspan(
                      kGuard, mine.total_bytes()));
    if (whole != before) ++bad[static_cast<std::size_t>(c.rank())];
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(bad[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
  // Every rank's bytes reached the file.
  std::vector<std::byte> got(kFile);
  rt.fs().store(file).read(0, got);
  for (int r = 0; r < kProcs; ++r) {
    const FlatRequest mine = guard_layout(r, kProcs);
    std::uint64_t pos = 0;
    for (const auto& e : mine.extents()) {
      for (std::uint64_t i = 0; i < e.length; ++i, ++pos) {
        ASSERT_EQ(std::to_integer<std::uint8_t>(got[e.offset + i]),
                  static_cast<std::uint8_t>((kGuard + pos) * 31 + 1))
            << "rank " << r << " offset " << e.offset + i;
      }
    }
  }
}

TEST(IndependentRead, MatchesGroundTruth) {
  mpi::Runtime rt(small_machine(), 4);
  auto file = make_truth_file(rt.fs(), 1 << 20);
  std::vector<int> bad(4, 0);
  rt.run([&](mpi::Comm& c) {
    std::vector<pfs::ByteExtent> ext;
    for (std::uint64_t b = 0; b < 10; ++b) {
      ext.push_back({(b * 4 + static_cast<std::uint64_t>(c.rank())) * 4096 + 17,
                     1000});
    }
    FlatRequest mine(std::move(ext));
    std::vector<std::byte> dst(mine.total_bytes());
    read_indep(c, file, mine, dst);
    std::uint64_t pos = 0;
    for (const auto& e : mine.extents()) {
      for (std::uint64_t i = 0; i < e.length; ++i) {
        if (std::to_integer<std::uint8_t>(dst[pos + i]) !=
            truth_byte(e.offset + i)) {
          ++bad[static_cast<std::size_t>(c.rank())];
        }
      }
      pos += e.length;
    }
  });
  for (int b : bad) EXPECT_EQ(b, 0);
}

TEST(IndependentRead, SievingReadsFewerRequestsMoreBytes) {
  mpi::Runtime rt(small_machine(), 1);
  auto file = make_truth_file(rt.fs(), 4 << 20);
  IndependentStats direct, sieved;
  std::vector<std::byte> a, b;
  rt.run([&](mpi::Comm& c) {
    std::vector<pfs::ByteExtent> ext;
    for (std::uint64_t i = 0; i < 200; ++i) ext.push_back({i * 8192, 512});
    FlatRequest mine(std::move(ext));
    a.resize(mine.total_bytes());
    b.resize(mine.total_bytes());
    direct = read_indep(c, file, mine, a);
    SievingConfig sc;
    sc.enabled = true;
    sc.buffer_size = 1 << 20;
    sieved = read_indep(c, file, mine, b, sc);
  });
  EXPECT_EQ(a, b);
  EXPECT_LT(sieved.pfs_requests, direct.pfs_requests);
  EXPECT_GT(sieved.bytes_accessed, direct.bytes_accessed);
  EXPECT_LT(sieved.total_s, direct.total_s);  // holes are cheap vs seeks
}

TEST(IndependentWrite, RoundTrip) {
  mpi::Runtime rt(small_machine(), 2);
  auto file = rt.fs().create("w", std::make_unique<pfs::MemStore>(65536));
  std::vector<int> bad(2, 0);
  rt.run([&](mpi::Comm& c) {
    FlatRequest mine({{static_cast<std::uint64_t>(c.rank()) * 8192, 4096},
                      {32768 + static_cast<std::uint64_t>(c.rank()) * 8192,
                       2048}});
    std::vector<std::byte> src(mine.total_bytes(),
                               std::byte{static_cast<std::uint8_t>(42 + c.rank())});
    write_indep(c, file, mine, src);
    std::vector<std::byte> back(mine.total_bytes());
    read_indep(c, file, mine, back);
    if (back != src) ++bad[static_cast<std::size_t>(c.rank())];
  });
  EXPECT_EQ(bad[0] + bad[1], 0);
}

TEST(CollectiveVsIndependent, CollectiveWinsOnNonContiguous) {
  // The paper's core premise: many small interleaved requests are far faster
  // through two-phase collective I/O than independently.
  auto cfg = small_machine();
  const int nprocs = 8;
  auto workload = [](mpi::Comm& c) {
    std::vector<pfs::ByteExtent> ext;
    for (std::uint64_t b = 0; b < 64; ++b) {
      ext.push_back({(b * 8 + static_cast<std::uint64_t>(c.rank())) * 1024, 512});
    }
    return FlatRequest(std::move(ext));
  };
  double t_coll = 0, t_ind = 0;
  {
    mpi::Runtime rt(cfg, nprocs);
    auto file = make_truth_file(rt.fs(), 1 << 20);
    rt.run([&](mpi::Comm& c) {
      auto mine = workload(c);
      std::vector<std::byte> dst(mine.total_bytes());
      CollectiveIo cio{Hints{.cb_buffer_size = 65536}};
      cio.read_all(c, file, mine, dst);
    });
    t_coll = rt.elapsed();
  }
  {
    mpi::Runtime rt(cfg, nprocs);
    auto file = make_truth_file(rt.fs(), 1 << 20);
    rt.run([&](mpi::Comm& c) {
      auto mine = workload(c);
      std::vector<std::byte> dst(mine.total_bytes());
      read_indep(c, file, mine, dst);
    });
    t_ind = rt.elapsed();
  }
  EXPECT_LT(t_coll, t_ind);
}

// Property sweep: random interleavings, rank counts, and buffer sizes all
// deliver exact bytes.
class CollectiveReadProperty : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveReadProperty, RandomWorkloads) {
  Prng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int nprocs = static_cast<int>(1 + rng.next_below(12));
  const std::uint64_t file_size = 1 << 20;
  mpi::Runtime rt(small_machine(), nprocs);
  auto file = make_truth_file(rt.fs(), file_size);

  // Pre-generate each rank's random sorted extents.
  std::vector<std::vector<pfs::ByteExtent>> all(static_cast<std::size_t>(nprocs));
  for (auto& ext : all) {
    const std::uint64_t n = 1 + rng.next_below(30);
    std::uint64_t pos = rng.next_below(4096);
    for (std::uint64_t i = 0; i < n && pos + 2048 < file_size; ++i) {
      const std::uint64_t len = 1 + rng.next_below(1500);
      ext.push_back({pos, len});
      pos += len + 1 + rng.next_below(8192);
    }
    if (ext.empty()) ext.push_back({0, 17});
  }
  Hints h;
  h.cb_buffer_size = 1u << (9 + rng.next_below(8));  // 512 B .. 64 KB
  h.pipelined = rng.next_below(2) == 0;
  h.cb_nodes = static_cast<int>(1 + rng.next_below(
                   static_cast<std::uint64_t>(nprocs)));

  std::vector<int> bad(static_cast<std::size_t>(nprocs), 0);
  rt.run([&](mpi::Comm& c) {
    FlatRequest mine(all[static_cast<std::size_t>(c.rank())]);
    std::vector<std::byte> dst(mine.total_bytes());
    CollectiveIo cio(h);
    cio.read_all(c, file, mine, dst);
    std::uint64_t pos = 0;
    for (const auto& e : mine.extents()) {
      for (std::uint64_t i = 0; i < e.length; ++i) {
        if (std::to_integer<std::uint8_t>(dst[pos + i]) !=
            truth_byte(e.offset + i)) {
          ++bad[static_cast<std::size_t>(c.rank())];
        }
      }
      pos += e.length;
    }
  });
  for (int r = 0; r < nprocs; ++r) {
    EXPECT_EQ(bad[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, CollectiveReadProperty,
                         ::testing::Range(0, 20));

// The write-side sweep: random layouts put one run of a rank's pieces in a
// chunk, several runs, or a run of touching extents; holes force the
// read-modify-write pre-read; and ranks overlap, where the later rank's
// bytes must win. The file must equal every rank's writes applied in rank
// order over its original bytes.
class CollectiveWriteProperty : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveWriteProperty, RandomWorkloads) {
  Prng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  const int nprocs = static_cast<int>(1 + rng.next_below(12));
  constexpr std::uint64_t kFile = 1 << 18;
  std::vector<std::byte> ref(kFile);
  for (std::uint64_t i = 0; i < kFile; ++i) ref[i] = std::byte{truth_byte(i)};
  auto store = std::make_unique<pfs::MemStore>(kFile);
  store->write(0, ref);
  mpi::Runtime rt(small_machine(), nprocs);
  auto file = rt.fs().create("out", std::move(store));

  std::vector<std::vector<pfs::ByteExtent>> all(
      static_cast<std::size_t>(nprocs));
  for (auto& ext : all) {
    const std::uint64_t n = 1 + rng.next_below(30);
    std::uint64_t pos = rng.next_below(16384);
    for (std::uint64_t i = 0; i < n && pos + 2048 < kFile; ++i) {
      const std::uint64_t len = 1 + rng.next_below(1500);
      ext.push_back({pos, len});
      // Touch the next extent, or leave a small or a large hole.
      switch (rng.next_below(3)) {
        case 0: pos += len; break;
        case 1: pos += len + 1 + rng.next_below(64); break;
        default: pos += len + 1 + rng.next_below(8192); break;
      }
    }
  }
  const auto value = [](int rank, std::uint64_t buf_pos) {
    return std::byte{static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(rank) * 71 + buf_pos * 13 + 200)};
  };
  Hints h;
  h.cb_buffer_size = 1u << (9 + rng.next_below(8));  // 512 B .. 64 KB
  h.cb_nodes = static_cast<int>(1 + rng.next_below(
                   static_cast<std::uint64_t>(nprocs)));

  rt.run([&](mpi::Comm& c) {
    const FlatRequest mine(all[static_cast<std::size_t>(c.rank())]);
    std::vector<std::byte> src(mine.total_bytes());
    for (std::uint64_t i = 0; i < src.size(); ++i) src[i] = value(c.rank(), i);
    CollectiveIo cio(h);
    const auto st = cio.write_all(c, file, mine, src);
    EXPECT_EQ(st.bytes_moved, mine.total_bytes());
  });
  EXPECT_GT(rt.fs().stats().read_bytes, 0u) << "no chunk was pre-read";

  for (int r = 0; r < nprocs; ++r) {
    std::uint64_t pos = 0;
    for (const auto& e : all[static_cast<std::size_t>(r)]) {
      for (std::uint64_t i = 0; i < e.length; ++i) {
        ref[e.offset + i] = value(r, pos++);
      }
    }
  }
  std::vector<std::byte> got(kFile);
  rt.fs().store(file).read(0, got);
  const auto diff = std::mismatch(got.begin(), got.end(), ref.begin());
  EXPECT_TRUE(diff.first == got.end())
      << nprocs << " ranks, cb " << h.cb_buffer_size << ", cb_nodes "
      << h.cb_nodes << ": first wrong byte at offset "
      << (diff.first - got.begin());
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, CollectiveWriteProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace colcom::romio
