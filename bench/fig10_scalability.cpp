// Fig. 10 — Scalability of collective computing.
//
// Paper setup: weak scaling from 24 to 1024 processes at a fixed 1:5
// computation:I/O ratio, per-process request size fixed, aggregators one
// per node. Reported: execution time grows with the (weak-scaled) workload;
// the CC speedup *widens* with scale — 1.42x at 120 procs to 1.7x at 1024 —
// because the shuffle share of two-phase I/O grows with aggregator count
// and network contention.
//
// One machine-readable "RESULT {json}" line per scale follows the table
// (procs, aggregators, both times, the speedup and the paper's speedup where
// Fig. 10 gives one, else null); BENCH_fig10.json is their checked-in
// trajectory, compared by scripts/bench_diff.py.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

using namespace colcom;

namespace {

double run_once(int nprocs, bool use_cc) {
  auto machine = bench::paper_machine();
  mpi::Runtime rt(machine, nprocs);
  // Weak scaling: the y dimension grows with nprocs so each rank always
  // owns 2 finely interleaved rows (fixed per-process request size).
  auto ds = bench::make_climate_dataset(
      rt.fs(), {256, static_cast<std::uint64_t>(2 * nprocs), 512});
  rt.run([&](mpi::Comm& comm) {
    core::ObjectIO io;
    io.var = ds.var("temperature");
    const auto r = static_cast<std::uint64_t>(comm.rank());
    io.start = {0, 2 * r, 0};
    io.count = {256, 2, 512};
    io.op = mpi::Op::sum();
    io.blocking = !use_cc;
    io.compute.ratio_of_io = 0.2;  // the paper's 1:5 setting
    io.hints.cb_buffer_size = 4ull << 20;
    io.hints.pipelined = use_cc;  // blocking collective read baseline
    core::CcOutput out;
    core::collective_compute(comm, ds, io, out);
  });
  return rt.elapsed();
}

}  // namespace

int main(int argc, char** argv) {
  bench::TraceSession trace_session(argc, argv);
  bench::print_header(
      "Fig. 10", "weak scaling at computation:I/O = 1:5, 24..1024 processes",
      "speedup grows with scale: 1.42x @120 procs -> 1.7x @1024");

  const std::vector<int> scales{24, 48, 120, 240, 480, 1024};
  TablePrinter t;
  t.set_header({"procs", "nodes/aggs", "MPI (s)", "CC (s)", "speedup"});
  std::vector<std::string> labels;
  std::vector<int> aggregators;
  std::vector<double> mpi_times, cc_times, speedups;
  for (int n : scales) {
    const double t_mpi = run_once(n, false);
    const double t_cc = run_once(n, true);
    const int nodes = (n + 23) / 24;
    t.add_row({std::to_string(n), std::to_string(nodes),
               format_fixed(t_mpi, 3), format_fixed(t_cc, 3),
               format_fixed(t_mpi / t_cc, 2) + "x"});
    labels.push_back(std::to_string(n));
    aggregators.push_back(nodes);
    mpi_times.push_back(t_mpi);
    cc_times.push_back(t_cc);
    speedups.push_back(t_mpi / t_cc);
  }
  t.print(std::cout);
  std::printf("\nexecution time (s):\n");
  print_grouped_bars(std::cout, labels, {"CC ", "MPI"}, {cc_times, mpi_times},
                     40, 3);

  std::printf("\nspeedup at 120 procs : %.2fx (paper: 1.42x)\n", speedups[2]);
  std::printf("speedup at 1024 procs: %.2fx (paper: 1.70x)\n\n",
              speedups.back());
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const int n = scales[i];
    const char* paper = n == 120 ? "1.42" : n == 1024 ? "1.70" : "null";
    std::printf(
        "RESULT {\"bench\":\"fig10_scalability\",\"procs\":%d,"
        "\"aggregators\":%d,\"mpi_s\":%.9f,\"cc_s\":%.9f,\"speedup\":%.4f,"
        "\"paper_speedup\":%s}\n",
        n, aggregators[i], mpi_times[i], cc_times[i], speedups[i], paper);
  }
  std::printf("\n");

  bench::shape_check(speedups.back() > speedups[2],
                     "CC speedup widens from 120 to 1024 processes");
  bench::shape_check(mpi_times.back() > mpi_times[2],
                     "weak-scaled execution time grows with process count");
  for (double sp : speedups) {
    if (sp <= 1.0) {
      bench::shape_check(false, "CC wins at every scale");
      return 0;
    }
  }
  bench::shape_check(true, "CC wins at every scale");
  return 0;
}
