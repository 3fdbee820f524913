// Micro-kernels (google-benchmark): host-side costs of the hot runtime
// paths — datatype flattening, pack/unpack, logical-map construction,
// accumulator folding, extent intersection, custody checksums, a simulated
// rank's fiber lifecycle, an eager message. These complement the
// virtual-time figure benches: they show the reproduction's own constant
// factors.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "core/logical.hpp"
#include "core/reduce.hpp"
#include "des/engine.hpp"
#include "integrity/integrity.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "mpi/runtime.hpp"
#include "romio/request.hpp"

using namespace colcom;

namespace {

void BM_SubarrayFlatten4D(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::vector<std::uint64_t> sizes{n, 16, 64, 64};
  const std::vector<std::uint64_t> sub{n / 2, 8, 32, 32};
  const std::vector<std::uint64_t> start{1, 2, 3, 4};
  for (auto _ : state) {
    auto t = mpi::Datatype::subarray(sizes, sub, start, mpi::Datatype::f32());
    benchmark::DoNotOptimize(t.flatten());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n / 2 * 8 * 32));
}
BENCHMARK(BM_SubarrayFlatten4D)->Arg(8)->Arg(32);

void BM_PackSubarray(benchmark::State& state) {
  const std::vector<std::uint64_t> sizes{64, 256};
  const std::vector<std::uint64_t> sub{48, 128};
  const std::vector<std::uint64_t> start{8, 64};
  auto t = mpi::Datatype::subarray(sizes, sub, start, mpi::Datatype::f32());
  std::vector<float> field(64 * 256);
  std::iota(field.begin(), field.end(), 0.f);
  std::vector<float> packed(48 * 128);
  for (auto _ : state) {
    t.pack(std::as_bytes(std::span<const float>(field)),
           std::as_writable_bytes(std::span<float>(packed)));
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_PackSubarray);

void BM_LogicalConstruct(benchmark::State& state) {
  ncio::VarInfo var;
  var.name = "v";
  var.prim = mpi::Prim::f32;
  var.dims = {256, 128, 512};
  var.file_offset = 4096;
  core::LogicalMap lmap(var);
  std::vector<core::CoordRun> runs;
  const std::uint64_t span_elems =
      static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    runs.clear();
    lmap.construct(4096 + 123 * 512 * 4, span_elems * 4, runs);
    benchmark::DoNotOptimize(runs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(span_elems));
}
BENCHMARK(BM_LogicalConstruct)->Arg(512)->Arg(65536);

void BM_AccumulatorBuiltinSum(benchmark::State& state) {
  std::vector<double> v(static_cast<std::size_t>(state.range(0)));
  std::iota(v.begin(), v.end(), 0.0);
  const auto op = mpi::Op::sum();
  for (auto _ : state) {
    core::Accumulator acc(op, mpi::Prim::f64);
    acc.combine(v.data(), v.size());
    benchmark::DoNotOptimize(acc.as<double>());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(v.size() * 8));
}
BENCHMARK(BM_AccumulatorBuiltinSum)->Arg(1 << 10)->Arg(1 << 18);

void BM_AccumulatorUserOpFold(benchmark::State& state) {
  std::vector<double> v(static_cast<std::size_t>(state.range(0)));
  std::iota(v.begin(), v.end(), 0.0);
  const auto op = mpi::Op::create(
      [](const void* in, void* inout, std::size_t n, mpi::Prim) {
        const double* a = static_cast<const double*>(in);
        double* b = static_cast<double*>(inout);
        for (std::size_t i = 0; i < n; ++i) b[i] += a[i];
      });
  for (auto _ : state) {
    core::Accumulator acc(op, mpi::Prim::f64);
    acc.combine(v.data(), v.size());
    benchmark::DoNotOptimize(acc.as<double>());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(v.size() * 8));
}
BENCHMARK(BM_AccumulatorUserOpFold)->Arg(1 << 10)->Arg(1 << 18);

void BM_FlatRequestIntersect(benchmark::State& state) {
  std::vector<pfs::ByteExtent> ext;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    ext.push_back({i * 8192, 2048});
  }
  romio::FlatRequest req(std::move(ext));
  std::uint64_t lo = 0;
  for (auto _ : state) {
    auto pieces = req.intersect(lo, lo + (4ull << 20));
    benchmark::DoNotOptimize(pieces.data());
    lo = (lo + (1ull << 20)) % (4096ull * 8192);
  }
}
BENCHMARK(BM_FlatRequestIntersect);

// Host bandwidth of the custody checksum every staged chunk is verified
// with: 4 KiB is a small park/write-behind extent, 512 KiB a staged chunk.
void BM_Checksum(benchmark::State& state) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(integrity::checksum(buf));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Checksum)->Arg(4 << 10)->Arg(512 << 10);

// One job's worth of simulated ranks: an engine spawns N actors on
// default-size stacks, each advances once, the engine runs and is destroyed.
// Items are fibers, so the rate is the host cost of one rank's fiber from
// creation to teardown (256 is a small job, 2048 perfbench's many_ranks).
void BM_FiberLifecycle(benchmark::State& state) {
  const auto fibers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    des::Engine eng;
    for (int i = 0; i < fibers; ++i) {
      eng.spawn("rank", 0, [&eng] { eng.advance(1e-6); });
    }
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * fibers);
}
BENCHMARK(BM_FiberLifecycle)->Arg(256)->Arg(2048);

// Eager messages between two ranks on two nodes: rank 0 sends N 4 KiB
// messages, all from one buffer, into receives rank 1 posted up front, so
// every message matches on arrival. Items are messages: the rate is the
// host cost of one eager message from isend to hand-off (its payload
// handling, the network hop and the match), plus a share of one 2-rank
// runtime's set-up.
void BM_EagerMessages(benchmark::State& state) {
  constexpr std::size_t kBytes = 4 << 10;
  const auto n = static_cast<std::size_t>(state.range(0));
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 1;
  std::vector<std::byte> out(kBytes, std::byte{7});
  std::vector<std::byte> in(n * kBytes);
  for (auto _ : state) {
    mpi::Runtime rt(cfg, 2);
    rt.run([&](mpi::Comm& c) {
      std::vector<mpi::Request> reqs;
      reqs.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        reqs.push_back(c.rank() == 0
                           ? c.isend(1, 0, out)
                           : c.irecv(0, 0, std::span(in).subspan(i * kBytes,
                                                                 kBytes)));
      }
      mpi::wait_all(reqs);
    });
    benchmark::DoNotOptimize(in.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EagerMessages)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
