// Fig. 3 — Total CPU profiling of independent I/O.
//
// Same access pattern as Fig. 2, but every process issues its own
// non-contiguous requests directly: wait% saturates near 100% because the
// OSTs thrash on seeks. The contrast with Fig. 2 motivates collective I/O;
// the remaining waste in Fig. 2 motivates collective computing.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "prof/cpu_profile.hpp"
#include "romio/independent.hpp"

using namespace colcom;

int main(int argc, char** argv) {
  bench::TraceSession trace_session(argc, argv);
  bench::print_header("Fig. 3", "CPU profile during independent I/O",
                      "wait%% saturates; independent non-contiguous I/O "
                      "starves the CPUs");

  const int nprocs = 72;
  auto machine = bench::paper_machine();
  machine.cores_per_node = 12;

  mpi::Runtime rt(machine, nprocs);
  prof::CpuProfile profile(0.05);
  rt.engine().add_trace_sink(&profile);
  auto ds = bench::make_climate_dataset(rt.fs(), bench::fig1_dims());

  rt.run([&](mpi::Comm& comm) {
    const auto req = bench::fig1_request(ds, comm.rank());
    std::vector<std::byte> dst(req.total_bytes());
    romio::read_indep(comm, ds.file(), req, dst);
  });

  TablePrinter t;
  t.set_header({"t (s)", "user%", "sys%", "wait%"});
  const auto rows = profile.rows();
  const std::size_t stride = std::max<std::size_t>(1, rows.size() / 24);
  for (std::size_t i = 0; i < rows.size(); i += stride) {
    t.add_row({format_fixed(rows[i].t, 2), format_fixed(rows[i].user_pct, 1),
               format_fixed(rows[i].sys_pct, 1),
               format_fixed(rows[i].wait_pct, 1)});
  }
  t.print(std::cout);

  const auto total = profile.total();
  std::printf("\noverall: user %.1f%%  sys %.1f%%  wait %.1f%%\n",
              total.user_pct, total.sys_pct, total.wait_pct);
  std::printf("independent-read makespan: %.3f s (virtual)\n\n", rt.elapsed());
  bench::shape_check(total.wait_pct > 90,
                     "independent non-contiguous I/O leaves CPUs ~fully "
                     "waiting (paper Fig. 3)");
  return 0;
}
