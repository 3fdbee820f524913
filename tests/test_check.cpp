// colcom::check detection tests: each seeded-bug mini program must be
// flagged with the expected rule id, and the clean / causally-ordered
// variants must stay silent (no false positives, including under chaos
// retransmissions). The full regular suite doubles as the large-scale
// no-false-positive corpus via COLCOM_CHECK=1 in CI.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "check/check.hpp"
#include "core/object_io.hpp"
#include "core/runtime.hpp"
#include "fault/chaos.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "mpi/op.hpp"
#include "mpi/runtime.hpp"
#include "ncio/dataset.hpp"
#include "pfs/store.hpp"
#include "romio/plan.hpp"
#include "stage/stage.hpp"
#include "util/assert.hpp"

namespace colcom {
namespace {

mpi::MachineConfig small_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  return cfg;
}

template <typename T>
std::span<const std::byte> bytes_of(const std::vector<T>& v) {
  return std::as_bytes(std::span<const T>(v));
}
template <typename T>
std::span<std::byte> mut_bytes_of(std::vector<T>& v) {
  return std::as_writable_bytes(std::span<T>(v));
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

// ---------------- CHK-RACE ----------------

TEST(CheckRace, WildcardWithConcurrentSendersIsFlagged) {
  check::CheckSession cs(check::Mode::report);
  mpi::Runtime rt(small_machine(), 3);
  rt.run([](mpi::Comm& c) {
    std::vector<std::int32_t> v{c.rank()};
    if (c.rank() != 0) {
      c.send(0, 5, bytes_of(v));
    } else {
      std::vector<std::int32_t> got(1);
      c.recv(mpi::kAnySource, 5, mut_bytes_of(got));
      c.recv(mpi::kAnySource, 5, mut_bytes_of(got));
    }
  });
  const check::Checker& ck = cs.checker();
  ASSERT_GE(ck.count(check::Rule::message_race), 1u);
  const auto it =
      std::find_if(ck.findings().begin(), ck.findings().end(),
                   [](const check::Diagnostic& d) {
                     return d.rule == check::Rule::message_race;
                   });
  ASSERT_NE(it, ck.findings().end());
  // Receiver first, then the matched sender, then every rival.
  EXPECT_EQ(it->ranks.front(), 0);
  EXPECT_GE(it->ranks.size(), 3u);
  EXPECT_TRUE(contains(it->message, "could equally have matched"));
  EXPECT_TRUE(contains(it->message, "wildcard receive at rank 0"));
}

TEST(CheckRace, CausallyOrderedSendsAreNotARace) {
  // rank1 -> A -> rank0, then rank1 tokens rank2, which sends B to rank0.
  // A happens-before B (the token carries rank1's clock), so rank0's two
  // wildcard receives are deterministic no matter which arrives first.
  check::CheckSession cs(check::Mode::strict);
  mpi::Runtime rt(small_machine(), 3);
  rt.run([](mpi::Comm& c) {
    std::vector<std::int32_t> v{c.rank()};
    std::vector<std::int32_t> got(1);
    if (c.rank() == 1) {
      c.send(0, 5, bytes_of(v));
      c.send(2, 9, bytes_of(v));  // token: publishes A's send to rank2
    } else if (c.rank() == 2) {
      c.recv(1, 9, mut_bytes_of(got));
      c.send(0, 5, bytes_of(v));
    } else {
      c.recv(mpi::kAnySource, 5, mut_bytes_of(got));
      c.recv(mpi::kAnySource, 5, mut_bytes_of(got));
    }
  });
  EXPECT_TRUE(cs.checker().findings().empty());
}

TEST(CheckRace, SameSenderFifoIsNotARace) {
  // Two in-flight sends from ONE sender to an ANY_TAG receive: per-pair
  // FIFO makes the match order deterministic, so no race.
  check::CheckSession cs(check::Mode::strict);
  mpi::Runtime rt(small_machine(), 2);
  std::vector<std::int32_t> order;
  rt.run([&](mpi::Comm& c) {
    std::vector<std::int32_t> v(1);
    if (c.rank() == 0) {
      v[0] = 11;
      c.isend(1, 1, bytes_of(v)).wait();
      v[0] = 22;
      c.send(1, 2, bytes_of(v));
    } else {
      std::vector<std::int32_t> got(1);
      c.recv(0, mpi::kAnyTag, mut_bytes_of(got));
      order.push_back(got[0]);
      c.recv(0, mpi::kAnyTag, mut_bytes_of(got));
      order.push_back(got[0]);
    }
  });
  EXPECT_TRUE(cs.checker().findings().empty());
  EXPECT_EQ(order, (std::vector<std::int32_t>{11, 22}));
}

// ---------------- CHK-DEADLOCK ----------------

TEST(CheckDeadlock, RecvRecvCycleIsDiagnosedWithRanksAndOps) {
  check::CheckSession cs(check::Mode::strict);
  mpi::Runtime rt(small_machine(), 2);
  bool threw = false;
  try {
    rt.run([](mpi::Comm& c) {
      std::vector<std::int32_t> got(1);
      // Head-to-head blocking receives; no message is ever sent.
      c.recv(1 - c.rank(), 3, mut_bytes_of(got));
    });
  } catch (const check::Violation& v) {
    threw = true;
    EXPECT_EQ(v.diagnostic().rule, check::Rule::deadlock);
    EXPECT_EQ(v.diagnostic().ranks, (std::vector<int>{0, 1}));
    EXPECT_TRUE(contains(v.diagnostic().message,
                         "rank0 (blocked since t="));
    EXPECT_TRUE(contains(v.diagnostic().message, "): recv(src=1"));
    EXPECT_TRUE(contains(v.diagnostic().message, "): recv(src=0"));
    EXPECT_TRUE(contains(v.diagnostic().message,
                         "wait cycle: rank0 -[tag 3]-> rank1 -[tag 3]-> "
                         "rank0"));
  }
  EXPECT_TRUE(threw);
}

TEST(CheckDeadlock, RendezvousSendSendCycleIsDiagnosed) {
  // Both payloads exceed the eager threshold, so each blocking send waits
  // for the peer's matching receive (CTS) that can never be posted.
  check::CheckSession cs(check::Mode::strict);
  mpi::Runtime rt(small_machine(), 2);
  bool threw = false;
  try {
    rt.run([](mpi::Comm& c) {
      std::vector<std::byte> big(64 << 10);
      c.send(1 - c.rank(), 4, big);
    });
  } catch (const check::Violation& v) {
    threw = true;
    EXPECT_EQ(v.diagnostic().rule, check::Rule::deadlock);
    EXPECT_TRUE(contains(v.diagnostic().message, "send(dst=1"));
    EXPECT_TRUE(contains(v.diagnostic().message, "send(dst=0"));
    EXPECT_TRUE(contains(v.diagnostic().message, "wait cycle"));
  }
  EXPECT_TRUE(threw);
}

// ---------------- CHK-COLL ----------------

TEST(CheckColl, KindMismatchIsFlaggedBeforeTheHang) {
  check::CheckSession cs(check::Mode::strict);
  mpi::Runtime rt(small_machine(), 2);
  bool threw = false;
  try {
    rt.run([](mpi::Comm& c) {
      std::vector<std::int32_t> v(4);
      if (c.rank() == 0) {
        c.barrier();
      } else {
        c.bcast(mut_bytes_of(v), 0);
      }
    });
  } catch (const check::Violation& v) {
    threw = true;
    EXPECT_EQ(v.diagnostic().rule, check::Rule::collective_mismatch);
    EXPECT_TRUE(contains(v.diagnostic().message, "barrier"));
    EXPECT_TRUE(contains(v.diagnostic().message, "bcast"));
  }
  EXPECT_TRUE(threw);
}

TEST(CheckColl, RootMismatchIsFlagged) {
  check::CheckSession cs(check::Mode::strict);
  mpi::Runtime rt(small_machine(), 2);
  bool threw = false;
  try {
    rt.run([](mpi::Comm& c) {
      std::vector<std::int32_t> v(4);
      c.bcast(mut_bytes_of(v), c.rank());  // every rank names itself root
    });
  } catch (const check::Violation& v) {
    threw = true;
    EXPECT_EQ(v.diagnostic().rule, check::Rule::collective_mismatch);
    EXPECT_TRUE(contains(v.diagnostic().message, "root=0"));
    EXPECT_TRUE(contains(v.diagnostic().message, "root=1"));
  }
  EXPECT_TRUE(threw);
}

TEST(CheckColl, SkippedCollectiveIsACountMismatch) {
  check::CheckSession cs(check::Mode::strict);
  mpi::Runtime rt(small_machine(), 2);
  bool threw = false;
  try {
    rt.run([](mpi::Comm& c) {
      std::vector<std::int32_t> v(4);
      // Rank 1 skips the collective entirely. The eager bcast send still
      // completes, so this only surfaces in the end-of-world audit.
      if (c.rank() == 0) c.bcast(mut_bytes_of(v), 0);
    });
  } catch (const check::Violation& v) {
    threw = true;
    EXPECT_EQ(v.diagnostic().rule, check::Rule::collective_mismatch);
    EXPECT_TRUE(contains(v.diagnostic().message,
                         "different numbers of collectives"));
  }
  EXPECT_TRUE(threw);
}

// ---------------- CHK-BUF ----------------

TEST(CheckBuf, MutatingAPendingSendBufferIsFlagged) {
  check::CheckSession cs(check::Mode::strict);
  mpi::Runtime rt(small_machine(), 2);
  bool threw = false;
  try {
    rt.run([&](mpi::Comm& c) {
      if (c.rank() == 0) {
        std::vector<std::int32_t> v(64, 7);
        mpi::Request req = c.isend(1, 6, bytes_of(v));
        v[0] = 8;  // illegal: the transport may still read this buffer
        req.wait();
      } else {
        std::vector<std::int32_t> got(64);
        c.recv(0, 6, mut_bytes_of(got));
      }
    });
  } catch (const check::Violation& v) {
    threw = true;
    EXPECT_EQ(v.diagnostic().rule, check::Rule::buffer_mutation);
    EXPECT_EQ(v.diagnostic().ranks, (std::vector<int>{0}));
    EXPECT_TRUE(contains(v.diagnostic().message, "modified between post"));
  }
  EXPECT_TRUE(threw);
}

// ---------------- CHK-DTYPE ----------------

TEST(CheckDtype, OverlappingVectorThrowsViolationInStrictMode) {
  check::CheckSession cs(check::Mode::strict);
  // stride 4 < blocklen 8: consecutive blocks overlap.
  EXPECT_THROW(mpi::Datatype::vec(4, 8, 4, mpi::Datatype::f32()),
               check::Violation);
  EXPECT_EQ(cs.checker().count(check::Rule::datatype_overlap), 1u);
}

TEST(CheckDtype, ReportModeRecordsAndTheContractStillRejects) {
  check::CheckSession cs(check::Mode::report);
  EXPECT_THROW(mpi::Datatype::vec(4, 8, 4, mpi::Datatype::f32()),
               ContractViolation);
  const std::vector<std::uint64_t> lens{2, 2};
  const std::vector<std::uint64_t> displs{4, 3};  // second block overlaps
  EXPECT_THROW(
      mpi::Datatype::indexed(lens, displs, mpi::Datatype::i32()),
      ContractViolation);
  EXPECT_EQ(cs.checker().count(check::Rule::datatype_overlap), 2u);
  EXPECT_TRUE(contains(cs.checker().findings()[0].message, "overlap"));
}

// ---------------- clean runs stay silent ----------------

TEST(CheckClean, CollectiveComputePassesStrictMode) {
  check::CheckSession cs(check::Mode::strict);
  mpi::MachineConfig machine;
  machine.cores_per_node = 4;
  machine.pfs.n_osts = 4;
  machine.pfs.stripe_size = 8192;
  mpi::Runtime rt(machine, 8);
  auto ds = ncio::DatasetBuilder(rt.fs(), "check.nc")
                .add_generated_var<float>(
                    "v", {32, 16, 16},
                    [](std::span<const std::uint64_t> c) {
                      double v = 1.0;
                      for (auto x : c) v = v * 3.7 + static_cast<double>(x);
                      return static_cast<float>(v * 1e-3);
                    })
                .finish();
  float value = 0;
  rt.run([&](mpi::Comm& comm) {
    core::ObjectIO io;
    io.var = ds.var("v");
    const auto r = static_cast<std::uint64_t>(comm.rank());
    io.start = {0, 2 * r, 0};
    io.count = {32, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 8192;
    core::CcOutput out;
    core::collective_compute(comm, ds, io, out);
    if (comm.rank() == 0) value = out.global_as<float>();
  });
  EXPECT_TRUE(cs.checker().findings().empty());
  EXPECT_TRUE(std::isfinite(value));
}

TEST(CheckClean, ChaosRetransmissionsAreNotFalsePositives) {
  // Lossy wire: duplicates and retries must not look like races or buffer
  // mutations; a wildcard receive from a single sender stays deterministic.
  check::CheckSession cs(check::Mode::strict);
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 1;  // 2 ranks on 2 nodes: every message internode
  cfg.chaos.msg_loss_prob = 0.3;
  cfg.chaos.ack_timeout_s = 1e-4;
  mpi::Runtime rt(cfg, 2);
  bool data_ok = true;
  rt.run([&](mpi::Comm& c) {
    std::vector<std::int32_t> v(64);
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        std::iota(v.begin(), v.end(), i);
        c.send(1, 7, bytes_of(v));
      }
    } else {
      std::vector<std::int32_t> got(64);
      for (int i = 0; i < 10; ++i) {
        c.recv(mpi::kAnySource, mpi::kAnyTag, mut_bytes_of(got));
        data_ok &= got[0] == i;
      }
    }
  });
  EXPECT_TRUE(cs.checker().findings().empty());
  EXPECT_TRUE(data_ok);
  ASSERT_NE(rt.chaos(), nullptr);
  EXPECT_GT(rt.chaos()->stats().msgs_dropped, 0u);
  EXPECT_GT(rt.chaos()->stats().net_retries, 0u);
}

// ---------------- CHK-HINT ----------------

TEST(CheckHint, DivergentHintsAcrossOneCollectiveOpenAreFlagged) {
  check::CheckSession cs(check::Mode::report);
  mpi::Runtime rt(small_machine(), 4);
  rt.run([](mpi::Comm& c) {
    romio::FlatRequest mine(
        {{static_cast<std::uint64_t>(c.rank()) * 4096, 4096}});
    romio::Hints hints;
    // Seeded bug: one rank passes a different cb_buffer_size to the same
    // collective open — MPI leaves this undefined, and the two-phase plan
    // silently follows whichever value reaches the aggregators.
    hints.cb_buffer_size = c.rank() == 2 ? 8192 : 4096;
    (void)romio::build_plan(c, mine, hints);
  });
  const check::Checker& ck = cs.checker();
  ASSERT_GE(ck.count(check::Rule::hint_mismatch), 1u);
  const auto it =
      std::find_if(ck.findings().begin(), ck.findings().end(),
                   [](const check::Diagnostic& d) {
                     return d.rule == check::Rule::hint_mismatch;
                   });
  ASSERT_NE(it, ck.findings().end());
  EXPECT_TRUE(contains(it->message, "hints differ"));
  EXPECT_TRUE(contains(it->message, "cb_buffer_size"));
  // The offender and the reference rank are both named.
  EXPECT_EQ(it->ranks.size(), 2u);
}

TEST(CheckHint, DivergentStagingAwarePlacementIsNamed) {
  check::CheckSession cs(check::Mode::report);
  mpi::Runtime rt(small_machine(), 4);
  rt.run([](mpi::Comm& c) {
    romio::Hints hints;
    // Seeded bug: one rank alone asks for staging-aware placement. Every
    // request is empty, so the plan ends after the range agreement, before
    // the residency allgather that rank alone would enter.
    hints.staging_aware_placement = c.rank() == 1;
    (void)romio::build_plan(c, romio::FlatRequest{}, hints);
  });
  const check::Checker& ck = cs.checker();
  const auto it =
      std::find_if(ck.findings().begin(), ck.findings().end(),
                   [](const check::Diagnostic& d) {
                     return d.rule == check::Rule::hint_mismatch;
                   });
  ASSERT_NE(it, ck.findings().end());
  EXPECT_TRUE(contains(it->message, "staging_aware_placement=1"));
  EXPECT_TRUE(contains(it->message, "staging_aware_placement=0"));
}

TEST(CheckHint, IdenticalHintsStaySilent) {
  check::CheckSession cs(check::Mode::strict);
  mpi::Runtime rt(small_machine(), 4);
  rt.run([](mpi::Comm& c) {
    romio::FlatRequest mine(
        {{static_cast<std::uint64_t>(c.rank()) * 4096, 4096}});
    romio::Hints hints;
    hints.cb_buffer_size = 8192;
    (void)romio::build_plan(c, mine, hints);
    // A second open with different (but still rank-uniform) hints must not
    // trip the slot matching either.
    hints.cb_buffer_size = 16384;
    hints.context = 1;
    (void)romio::build_plan(c, mine, hints);
  });
  EXPECT_EQ(cs.checker().count(check::Rule::hint_mismatch), 0u);
}

// ---------------- CHK-IO across communicators ----------------

TEST(CheckIoCtx, FlushOfOneContextKeepsTheOtherContextDirty) {
  // Seeded bug: two staging areas on one rank, driven by different
  // communicators (contexts 1 and 2). Flushing context 2 must not act as an
  // epoch for context 1's staged write — the later overlapping read still
  // races context 1's drain and is flagged, naming both contexts.
  check::CheckSession cs(check::Mode::report);
  check::Checker& ck = cs.checker();
  mpi::Runtime rt(small_machine(), 1);
  rt.run([&](mpi::Comm&) {
    ck.on_stage_write(0, /*file=*/3, 0, 4096, /*ctx=*/1);
    ck.on_stage_flush(0, /*ctx=*/2);  // the wrong communicator's epoch
    ck.on_stage_read(0, /*file=*/3, 1024, 512, /*ctx=*/2);
  });
  ASSERT_GE(ck.count(check::Rule::io_overlap), 1u);
  const auto it = std::find_if(ck.findings().begin(), ck.findings().end(),
                               [](const check::Diagnostic& d) {
                                 return d.rule == check::Rule::io_overlap;
                               });
  ASSERT_NE(it, ck.findings().end());
  EXPECT_TRUE(contains(it->message, "different communicators"));

  // The matching flush is a real epoch: the re-read stays silent. And a
  // ctx-less flush (-1) is the conservative all-contexts epoch.
  ck.clear();
  mpi::Runtime rt2(small_machine(), 1);
  rt2.run([&](mpi::Comm&) {
    ck.on_stage_write(0, 3, 0, 4096, 1);
    ck.on_stage_flush(0, 1);
    ck.on_stage_read(0, 3, 1024, 512, 1);

    ck.on_stage_write(0, 3, 0, 4096, 1);
    ck.on_stage_write(0, 3, 8192, 4096, 2);
    ck.on_stage_flush(0);
    ck.on_stage_read(0, 3, 0, 512, 1);
    ck.on_stage_read(0, 3, 8192, 512, 2);
  });
  EXPECT_EQ(ck.count(check::Rule::io_overlap), 0u);
}

TEST(CheckIoCtx, StagingAreasCarryTheirConfiguredContext) {
  // The same bug through the real staging plumbing: two areas with distinct
  // StageConfig::check_ctx on one rank. Area B's flush must not silence
  // area A's dirty extent.
  check::CheckSession cs(check::Mode::report);
  mpi::Runtime rt(small_machine(), 2);
  auto file = rt.fs().create("f", std::make_unique<pfs::MemStore>(1 << 16));
  rt.run([&](mpi::Comm& c) {
    if (c.rank() != 0) return;
    stage::StageConfig ca, cb;
    ca.check_ctx = 1;
    cb.check_ctx = 2;
    stage::StagingArea a(c, ca);
    stage::StagingArea b(c, cb);
    std::vector<std::byte> data(1024, std::byte{0x5a});
    a.wb_write(file, 0, data);
    b.wb_flush();  // flushes only context 2 — A's write stays dirty
    stage::StagedReader sr(b, rt.fs(), file, 0, nullptr);
    std::vector<romio::FlatRequest> dreqs;
    dreqs.push_back(romio::FlatRequest({{0, 1024}}));
    (void)sr.begin(pfs::ByteExtent{0, 1024}, dreqs, false);
    (void)sr.take();
    sr.release();
    a.wb_flush();
  });
  ASSERT_GE(cs.checker().count(check::Rule::io_overlap), 1u);
  EXPECT_TRUE(
      contains(cs.checker().findings()[0].message, "different communicators"));
}

TEST(CheckSessionNesting, SessionStacksOverEnvChecker) {
  // Install/uninstall must restore whatever was current before, so a
  // CheckSession composes with a COLCOM_CHECK-installed process checker.
  check::Checker* before = check::Checker::current();
  {
    check::CheckSession outer(check::Mode::report);
    EXPECT_EQ(check::Checker::current(), &outer.checker());
    {
      check::CheckSession inner(check::Mode::strict);
      EXPECT_EQ(check::Checker::current(), &inner.checker());
    }
    EXPECT_EQ(check::Checker::current(), &outer.checker());
  }
  EXPECT_EQ(check::Checker::current(), before);
}

}  // namespace
}  // namespace colcom
