// Fig. 2 — Total CPU profiling of two-phase collective I/O.
//
// The paper samples user%/sys%/wait% while the Fig. 1 collective read runs:
// collective I/O keeps wait% moderate because aggregated large reads stream
// from the OSTs, but CPUs still spend most of the I/O window waiting — the
// motivation for inserting computation into the two phases.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "prof/cpu_profile.hpp"
#include "romio/collective.hpp"

using namespace colcom;

int main(int argc, char** argv) {
  bench::TraceSession trace_session(argc, argv);
  bench::print_header("Fig. 2", "CPU profile during two-phase collective I/O",
                      "wait%% dominates; user%% is near zero during the I/O");

  const int nprocs = 72;
  auto machine = bench::paper_machine();
  machine.cores_per_node = 12;

  mpi::Runtime rt(machine, nprocs);
  prof::CpuProfile profile(0.05);
  rt.engine().add_trace_sink(&profile);
  auto ds = bench::make_climate_dataset(rt.fs(), bench::fig1_dims());

  romio::Hints hints;
  hints.cb_buffer_size = 4ull << 20;
  hints.cb_nodes = 6;

  rt.run([&](mpi::Comm& comm) {
    const auto req = bench::fig1_request(ds, comm.rank());
    std::vector<std::byte> dst(req.total_bytes());
    romio::CollectiveIo cio(hints);
    cio.read_all(comm, ds.file(), req, dst);
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
  std::printf("\noverall: user %.1f%%  sys %.1f%%  wait %.1f%%\n\n",
              total.user_pct, total.sys_pct, total.wait_pct);
  bench::shape_check(total.wait_pct > 50,
                     "CPUs mostly wait during a pure collective read");
  bench::shape_check(total.sys_pct > total.user_pct,
                     "pack/unpack (sys) outweighs user compute — no analysis "
                     "is running yet");
  return 0;
}
