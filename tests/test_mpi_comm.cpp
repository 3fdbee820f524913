// Tests for point-to-point messaging, ops, and collectives over the
// simulated network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <utility>

#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "mpi/comm.hpp"
#include "mpi/ft.hpp"
#include "mpi/op.hpp"
#include "mpi/runtime.hpp"
#include "mpi/world.hpp"
#include "util/prng.hpp"

namespace colcom::mpi {
namespace {

MachineConfig small_machine() {
  MachineConfig cfg;
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

TEST(Op, BuiltinsCombine) {
  std::vector<std::int32_t> a{1, 5, 3}, b{4, 2, 6};
  Op::sum().apply(a.data(), b.data(), 3, Prim::i32);
  EXPECT_EQ(b, (std::vector<std::int32_t>{5, 7, 9}));
  std::vector<float> fa{1.f, 5.f}, fb{4.f, 2.f};
  Op::max().apply(fa.data(), fb.data(), 2, Prim::f32);
  EXPECT_EQ(fb, (std::vector<float>{4.f, 5.f}));
  std::vector<double> da{3.0}, db{5.0};
  Op::min().apply(da.data(), db.data(), 1, Prim::f64);
  EXPECT_EQ(db[0], 3.0);
}

TEST(Op, IdentityValues) {
  float f;
  Op::sum().identity(&f, Prim::f32);
  EXPECT_EQ(f, 0.f);
  Op::min().identity(&f, Prim::f32);
  EXPECT_EQ(f, std::numeric_limits<float>::infinity());
  std::int32_t i;
  Op::max().identity(&i, Prim::i32);
  EXPECT_EQ(i, std::numeric_limits<std::int32_t>::min());
  EXPECT_FALSE(Op::create([](const void*, void*, std::size_t, Prim) {})
                   .has_identity());
}

TEST(Op, UserFunctionIsCalled) {
  // The paper's Fig. 6: a user "compute" routine registered like
  // MPI_Op_create and applied by the runtime.
  auto op = Op::create([](const void* in, void* inout, std::size_t n, Prim p) {
    ASSERT_EQ(p, Prim::f32);
    const float* a = static_cast<const float*>(in);
    float* b = static_cast<float*>(inout);
    for (std::size_t i = 0; i < n; ++i) b[i] += 2.f * a[i];
  });
  std::vector<float> a{1.f, 2.f}, b{10.f, 20.f};
  op.apply(a.data(), b.data(), 2, Prim::f32);
  EXPECT_EQ(b, (std::vector<float>{12.f, 24.f}));
}

TEST(Op, CombinesMisalignedOperands) {
  // Reduction operands arrive inside message payloads at any byte offset;
  // the combine must not assume alignment (UBSan checks this under CI).
  const std::vector<double> a{1.5, -2.0, 8.25};
  const std::vector<double> b{4.0, 3.5, -0.25};
  std::vector<std::byte> in(1 + sizeof(double) * a.size());
  std::vector<std::byte> inout(3 + sizeof(double) * b.size());
  std::memcpy(in.data() + 1, a.data(), sizeof(double) * a.size());
  std::memcpy(inout.data() + 3, b.data(), sizeof(double) * b.size());
  Op::sum().apply(in.data() + 1, inout.data() + 3, a.size(), Prim::f64);
  std::vector<double> got(b.size());
  std::memcpy(got.data(), inout.data() + 3, sizeof(double) * got.size());
  EXPECT_EQ(got, (std::vector<double>{5.5, 1.5, 8.0}));
  Op::max().identity(inout.data() + 1, Prim::f64);
  double id = 0;
  std::memcpy(&id, inout.data() + 1, sizeof id);
  EXPECT_EQ(id, -std::numeric_limits<double>::infinity());
}

TEST(Comm, SendRecvMovesBytes) {
  Runtime rt(small_machine(), 2);
  std::vector<std::int32_t> got(4);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::int32_t> v{10, 20, 30, 40};
      c.send(1, 7, bytes_of(v));
    } else {
      const auto info = c.recv(0, 7, mut_bytes_of(got));
      EXPECT_EQ(info.source, 0);
      EXPECT_EQ(info.tag, 7);
      EXPECT_EQ(info.bytes, 16u);
    }
  });
  EXPECT_EQ(got, (std::vector<std::int32_t>{10, 20, 30, 40}));
}

TEST(Comm, RecvBeforeSendBlocks) {
  Runtime rt(small_machine(), 2);
  double recv_done = -1;
  rt.run([&](Comm& c) {
    if (c.rank() == 1) {
      std::vector<std::byte> b(8);
      c.recv(0, 1, b);  // posted long before the send
      recv_done = c.wtime();
    } else {
      c.compute(0.5);
      std::vector<std::byte> b(8);
      c.send(1, 1, b);
    }
  });
  EXPECT_GE(recv_done, 0.5);
}

TEST(Comm, UnexpectedMessageIsBuffered) {
  Runtime rt(small_machine(), 2);
  std::int32_t got = 0;
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::int32_t v = 99;
      c.send(1, 3, std::as_bytes(std::span<const std::int32_t>(&v, 1)));
    } else {
      c.compute(1.0);  // message arrives while we're busy
      c.recv(0, 3, std::as_writable_bytes(std::span<std::int32_t>(&got, 1)));
    }
  });
  EXPECT_EQ(got, 99);
}

TEST(Comm, TagSelectsAmongMessages) {
  Runtime rt(small_machine(), 2);
  std::int32_t first = 0;
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::int32_t a = 1, b = 2;
      c.send(1, 10, std::as_bytes(std::span<const std::int32_t>(&a, 1)));
      c.send(1, 20, std::as_bytes(std::span<const std::int32_t>(&b, 1)));
    } else {
      c.compute(0.1);
      // Receive the tag-20 message first even though tag-10 arrived earlier.
      c.recv(0, 20, std::as_writable_bytes(std::span<std::int32_t>(&first, 1)));
      std::int32_t other;
      c.recv(0, 10, std::as_writable_bytes(std::span<std::int32_t>(&other, 1)));
      EXPECT_EQ(other, 1);
    }
  });
  EXPECT_EQ(first, 2);
}

TEST(Comm, AnySourceAnyTagWildcards) {
  // Rank 2 holds its send until rank 0 has consumed rank 1's message (token
  // through rank 0), so both wildcard receives are exercised without the two
  // sends ever racing for one — the original both-send-at-once version was a
  // genuine CHK-RACE message race.
  Runtime rt(small_machine(), 3);
  std::vector<int> sources;
  rt.run([&](Comm& c) {
    std::int32_t v;
    const auto vbytes = std::as_writable_bytes(std::span<std::int32_t>(&v, 1));
    if (c.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        const auto info = c.recv(kAnySource, kAnyTag, vbytes);
        sources.push_back(info.source);
        EXPECT_EQ(info.tag, info.source);
        EXPECT_EQ(v, info.source * 100);
        if (i == 0) c.send(2, 9, {});  // token: rank 2 may send now
      }
    } else {
      if (c.rank() == 2) c.recv(0, 9, {});
      v = c.rank() * 100;
      c.send(0, c.rank(), std::as_bytes(std::span<const std::int32_t>(&v, 1)));
    }
  });
  EXPECT_EQ(sources, (std::vector<int>{1, 2}));
}

TEST(Comm, NonOvertakingSameTag) {
  // Messages from one sender with the same tag must arrive in send order,
  // even though the first is much larger (and slower on the wire).
  Runtime rt(small_machine(), 2);
  std::vector<std::int32_t> order;
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::int32_t> big(1 << 18, 1);
      std::vector<std::int32_t> tiny{2};
      Request r1 = c.isend(1, 5, bytes_of(big));
      Request r2 = c.isend(1, 5, bytes_of(tiny));
      r1.wait();
      r2.wait();
    } else {
      std::vector<std::int32_t> big(1 << 18);
      std::int32_t tiny = 0;
      c.recv(0, 5, mut_bytes_of(big));
      c.recv(0, 5, std::as_writable_bytes(std::span<std::int32_t>(&tiny, 1)));
      order.push_back(big[0]);
      order.push_back(tiny);
    }
  });
  EXPECT_EQ(order, (std::vector<std::int32_t>{1, 2}));
}

TEST(Comm, SendrecvAllRanksSimultaneously) {
  const int n = 8;
  Runtime rt(small_machine(), n);
  std::vector<std::int32_t> got(n, -1);
  rt.run([&](Comm& c) {
    std::int32_t mine = c.rank();
    std::int32_t theirs = -1;
    const int dst = (c.rank() + 1) % n;
    const int src = (c.rank() + n - 1) % n;
    c.sendrecv(dst, 1, std::as_bytes(std::span<const std::int32_t>(&mine, 1)),
               src, 1, std::as_writable_bytes(std::span<std::int32_t>(&theirs, 1)));
    got[static_cast<std::size_t>(c.rank())] = theirs;
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], (r + n - 1) % n);
  }
}

TEST(Comm, LargeTransferTakesLongerThanSmall) {
  Runtime rt(small_machine(), 2);
  double t_small = 0, t_large = 0;
  rt.run([&](Comm& c) {
    std::vector<std::byte> small(64), large(64 << 20);
    if (c.rank() == 0) {
      double t0 = c.wtime();
      c.send(1, 1, small);
      c.recv(1, 2, small);  // sync
      t_small = c.wtime() - t0;
      t0 = c.wtime();
      c.send(1, 3, large);
      c.recv(1, 4, small);
      t_large = c.wtime() - t0;
    } else {
      c.recv(0, 1, small);
      c.send(0, 2, small);
      c.recv(0, 3, large);
      c.send(0, 4, small);
    }
  });
  EXPECT_GT(t_large, 10 * t_small);
}

TEST(Comm, RendezvousWaitsForReceiver) {
  // A large send cannot complete before the receiver posts its recv.
  Runtime rt(small_machine(), 2);
  double send_done = -1;
  rt.run([&](Comm& c) {
    std::vector<std::byte> big(1 << 20);  // >> eager threshold
    if (c.rank() == 0) {
      Request s = c.isend(1, 1, big);
      s.wait();
      send_done = c.wtime();
    } else {
      c.compute(0.7);  // receiver is busy; RTS sits unmatched
      c.recv(0, 1, big);
    }
  });
  EXPECT_GE(send_done, 0.7);
}

TEST(Comm, EagerCompletesWithoutReceiver) {
  // A small send completes on delivery even though the recv is late.
  Runtime rt(small_machine(), 2);
  double send_done = -1;
  rt.run([&](Comm& c) {
    std::vector<std::byte> small(256);
    if (c.rank() == 0) {
      Request s = c.isend(1, 1, small);
      s.wait();
      send_done = c.wtime();
    } else {
      c.compute(0.7);
      c.recv(0, 1, small);
    }
  });
  EXPECT_LT(send_done, 0.1);
}

TEST(Comm, RendezvousDataIntact) {
  Runtime rt(small_machine(), 2);
  std::vector<std::int32_t> got(1 << 18);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::int32_t> v(1 << 18);
      std::iota(v.begin(), v.end(), 7);
      c.send(1, 2, bytes_of(v));
    } else {
      c.compute(0.01);  // force the unexpected-RTS path
      c.recv(0, 2, mut_bytes_of(got));
    }
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<std::int32_t>(i) + 7);
  }
}

TEST(Comm, RendezvousPreservesOrderingWithEager) {
  // Big (rendezvous) then small (eager) on the same tag must still match in
  // send order.
  Runtime rt(small_machine(), 2);
  std::vector<std::int32_t> order;
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::int32_t> big(1 << 16, 1);
      std::vector<std::int32_t> tiny{2};
      Request r1 = c.isend(1, 5, bytes_of(big));
      Request r2 = c.isend(1, 5, bytes_of(tiny));
      r1.wait();
      r2.wait();
    } else {
      std::vector<std::int32_t> big(1 << 16);
      std::int32_t tiny = 0;
      c.recv(0, 5, mut_bytes_of(big));
      c.recv(0, 5, std::as_writable_bytes(std::span<std::int32_t>(&tiny, 1)));
      order.push_back(big[0]);
      order.push_back(tiny);
    }
  });
  EXPECT_EQ(order, (std::vector<std::int32_t>{1, 2}));
}

// ---- lent send buffers and sized receives ----

// `n` recognizable bytes; two seeds below 256 differ at every position.
std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 7 + static_cast<std::size_t>(seed)) &
                                  0xff);
  }
  return v;
}

TEST(Lending, UnexpectedEagerKeepsPostTimeBytes) {
  // The eager send completes when its message arrives, before any receive
  // is posted; the sender then overwrites its buffer and frees it.
  Runtime rt(small_machine(), 2);
  std::vector<std::byte> got(256);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> v = pattern(256, 1);
      Request s = c.isend(1, 3, v);
      s.wait();
      std::fill(v.begin(), v.end(), std::byte{0xff});
    } else {
      c.compute(0.5);  // the message arrives while we're busy
      c.recv(0, 3, std::span<std::byte>(got));
    }
  });
  EXPECT_EQ(got, pattern(256, 1));
}

TEST(Lending, DroppedSendRequestDeliversPostTimeBytes) {
  // A request destroyed without a wait, its buffer then overwritten and
  // freed: the message still delivers what was posted, eager or rendezvous.
  Runtime rt(small_machine(), 2);
  const std::size_t big = rt.config().eager_threshold * 2 + 3;
  std::vector<std::byte> got_small(64);
  std::vector<std::byte> got_big(big);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      auto small = std::make_unique<std::vector<std::byte>>(pattern(64, 2));
      auto large = std::make_unique<std::vector<std::byte>>(pattern(big, 3));
      c.isend(1, 4, *small);
      c.isend(1, 5, *large);
      std::fill(small->begin(), small->end(), std::byte{0xff});
      std::fill(large->begin(), large->end(), std::byte{0xff});
      small.reset();
      large.reset();
    } else {
      c.compute(0.5);
      c.recv(0, 4, std::span<std::byte>(got_small));
      c.recv(0, 5, std::span<std::byte>(got_big));
    }
  });
  EXPECT_EQ(got_small, pattern(64, 2));
  EXPECT_EQ(got_big, pattern(big, 3));
}

TEST(Lending, CrashedSenderStillDeliversItsEagerSend) {
  // Rank 1 posts an eager send and dies at a crash point while it is on
  // the wire. Unwinding destroys the request (which copies the payload
  // out), then a guard that scribbles over the buffer, then the buffer.
  Runtime rt(small_machine(), 2);
  fault::ChaosConfig cc;
  fault::ChaosSchedule sched(cc, rt.n_nodes(), 2, 4);
  sched.add_crash_point({fault::Phase::mid_map, 1, 1});
  rt.install_chaos(std::move(sched));
  std::vector<std::byte> got(128);
  rt.run([&](Comm& c) {
    if (c.rank() == 1) {
      std::vector<std::byte> v = pattern(128, 4);
      struct Scribble {
        std::vector<std::byte>& v;
        ~Scribble() { std::fill(v.begin(), v.end(), std::byte{0xff}); }
      } scribble{v};
      Request s = c.isend(0, 7, v);
      ft::crash_point(c, fault::Phase::mid_map);  // dies here
      FAIL() << "crash point did not fire";
    }
    c.recv_ft(1, 7, std::span<std::byte>(got));
  });
  EXPECT_EQ(got, pattern(128, 4));
}

TEST(SizedRecv, TakesTheMessageLength) {
  // Eager and rendezvous payloads land in vectors that start too large and
  // too small.
  Runtime rt(small_machine(), 2);
  const std::size_t big = rt.config().eager_threshold * 2 + 3;
  std::vector<std::byte> got_small(1000, std::byte{0xee});
  std::vector<std::byte> got_big(7);
  MsgInfo small_info;
  MsgInfo big_info;
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, pattern(100, 5));
      c.send(1, 2, pattern(big, 6));
    } else {
      small_info = c.recv(0, 1, got_small);
      big_info = c.recv(0, 2, got_big);
    }
  });
  EXPECT_EQ(got_small, pattern(100, 5));
  EXPECT_EQ(got_big, pattern(big, 6));
  EXPECT_EQ(small_info.bytes, 100u);
  EXPECT_EQ(big_info.bytes, big);
}

TEST(SizedRecv, RecvFtIntoVectorReportsDeadPeer) {
  // Under an injector the sized recv_ft takes a live peer's message and
  // still throws rank_failed for a dead one.
  Runtime rt(small_machine(), 3);
  fault::ChaosConfig cc;
  fault::ChaosSchedule sched(cc, rt.n_nodes(), 3, 4);
  sched.add_crash_point({fault::Phase::mid_map, 1, 1});
  rt.install_chaos(std::move(sched));
  std::vector<std::byte> got;
  bool detected = false;
  rt.run([&](Comm& c) {
    if (c.rank() == 1) {
      ft::crash_point(c, fault::Phase::mid_map);  // dies here
      return;
    }
    if (c.rank() == 2) {
      c.send(0, 7, pattern(40, 7));
      return;
    }
    c.recv_ft(2, 7, got);
    std::vector<std::byte> lost(3);
    try {
      c.recv_ft(1, 7, lost);
    } catch (const fault::Error& e) {
      detected = e.kind() == fault::Kind::rank_failed && e.rank() == 1;
    }
  });
  EXPECT_EQ(got, pattern(40, 7));
  EXPECT_TRUE(detected);
}

// ---- collectives, parameterized over world size ----

class Collectives : public ::testing::TestWithParam<int> {};

TEST_P(Collectives, BarrierSynchronizes) {
  const int n = GetParam();
  Runtime rt(small_machine(), n);
  std::vector<double> after(static_cast<std::size_t>(n));
  rt.run([&](Comm& c) {
    c.compute(0.01 * c.rank());  // staggered arrival
    c.barrier();
    after[static_cast<std::size_t>(c.rank())] = c.wtime();
  });
  const double latest_arrival = 0.01 * (n - 1);
  for (double t : after) EXPECT_GE(t, latest_arrival);
}

TEST_P(Collectives, BcastFromEveryRoot) {
  const int n = GetParam();
  for (int root : {0, n / 2, n - 1}) {
    Runtime rt(small_machine(), n);
    std::vector<std::vector<std::int32_t>> got(
        static_cast<std::size_t>(n), std::vector<std::int32_t>(5, -1));
    rt.run([&](Comm& c) {
      auto& mine = got[static_cast<std::size_t>(c.rank())];
      if (c.rank() == root) std::iota(mine.begin(), mine.end(), 42);
      c.bcast(mut_bytes_of(mine), root);
    });
    for (auto& v : got) {
      EXPECT_EQ(v, (std::vector<std::int32_t>{42, 43, 44, 45, 46}));
    }
  }
}

TEST_P(Collectives, ReduceSumMatchesSerial) {
  const int n = GetParam();
  Runtime rt(small_machine(), n);
  std::vector<std::int64_t> result(3, 0);
  rt.run([&](Comm& c) {
    std::vector<std::int64_t> mine{c.rank() + 1, 10 * (c.rank() + 1), 1};
    c.reduce(mine.data(), result.data(), 3, Prim::i64, Op::sum(), 0);
  });
  const std::int64_t s = static_cast<std::int64_t>(n) * (n + 1) / 2;
  EXPECT_EQ(result, (std::vector<std::int64_t>{s, 10 * s, n}));
}

TEST_P(Collectives, ReduceMinMaxWithUserData) {
  const int n = GetParam();
  Runtime rt(small_machine(), n);
  float mn = 0, mx = 0;
  rt.run([&](Comm& c) {
    const float v = static_cast<float>((c.rank() * 37) % n);
    c.reduce(&v, &mn, 1, Prim::f32, Op::min(), 0);
    c.reduce(&v, &mx, 1, Prim::f32, Op::max(), 0);
  });
  EXPECT_EQ(mn, 0.f);
  // max of (r*37) mod n over r in [0,n)
  float expect_mx = 0;
  for (int r = 0; r < n; ++r) {
    expect_mx = std::max(expect_mx, static_cast<float>((r * 37) % n));
  }
  EXPECT_EQ(mx, expect_mx);
}

TEST_P(Collectives, AllreduceEveryRankGetsResult) {
  const int n = GetParam();
  Runtime rt(small_machine(), n);
  std::vector<std::int32_t> results(static_cast<std::size_t>(n), 0);
  rt.run([&](Comm& c) {
    const std::int32_t v = 1;
    std::int32_t out = 0;
    c.allreduce(&v, &out, 1, Prim::i32, Op::sum());
    results[static_cast<std::size_t>(c.rank())] = out;
  });
  for (auto r : results) EXPECT_EQ(r, n);
}

TEST_P(Collectives, AllreduceInPlaceMatchesDistinctBuffers) {
  // The plan-exchange bitmap shape: each rank sets only its own bits, so
  // the i64 sum is their OR; a second block of values checks the sum.
  const int n = GetParam();
  constexpr std::size_t kWords = 40;
  Runtime rt(small_machine(), n);
  std::vector<int> bad(static_cast<std::size_t>(n), 0);
  rt.run([&](Comm& c) {
    const auto me = static_cast<std::uint64_t>(c.rank());
    std::vector<std::int64_t> send(kWords);
    for (std::size_t w = 0; w < kWords; ++w) {
      send[w] = w < kWords / 2 ? static_cast<std::int64_t>(
                                     std::uint64_t{1} << ((me + w) % 64))
                               : static_cast<std::int64_t>(me * 1000 + w);
    }
    const std::vector<std::int64_t> sent = send;
    std::vector<std::int64_t> out(kWords, -7);
    c.allreduce(send.data(), out.data(), kWords, Prim::i64, Op::sum());
    std::vector<std::int64_t> in_place = send;
    c.allreduce(in_place.data(), in_place.data(), kWords, Prim::i64,
                Op::sum());
    int& b = bad[static_cast<std::size_t>(c.rank())];
    if (send != sent) ++b;  // the send buffer of a distinct call is read-only
    if (in_place != out) ++b;
    for (std::size_t w = 0; w < kWords; ++w) {
      std::uint64_t expect = 0;
      for (std::uint64_t r = 0; r < static_cast<std::uint64_t>(n); ++r) {
        expect += w < kWords / 2 ? std::uint64_t{1} << ((r + w) % 64)
                                 : r * 1000 + w;
      }
      if (static_cast<std::uint64_t>(out[w]) != expect) ++b;
    }
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(bad[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
}

TEST_P(Collectives, ReduceLeavesNonRootReceiveBuffersUntouched) {
  const int n = GetParam();
  for (int root : {0, n - 1}) {
    Runtime rt(small_machine(), n);
    std::vector<std::vector<std::int32_t>> recv(
        static_cast<std::size_t>(n), std::vector<std::int32_t>(3, -99));
    rt.run([&](Comm& c) {
      const std::vector<std::int32_t> mine{c.rank(), 1, 2 * c.rank()};
      c.reduce(mine.data(), recv[static_cast<std::size_t>(c.rank())].data(), 3,
               Prim::i32, Op::sum(), root);
    });
    const std::int32_t s = n * (n - 1) / 2;
    for (int r = 0; r < n; ++r) {
      const auto& got = recv[static_cast<std::size_t>(r)];
      if (r == root) {
        EXPECT_EQ(got, (std::vector<std::int32_t>{s, n, 2 * s}));
      } else {
        EXPECT_EQ(got, (std::vector<std::int32_t>{-99, -99, -99}))
            << "rank " << r << " of root " << root;
      }
    }
  }
}

TEST_P(Collectives, GathervVariableSizes) {
  const int n = GetParam();
  Runtime rt(small_machine(), n);
  std::vector<std::uint8_t> gathered;
  rt.run([&](Comm& c) {
    // Rank r contributes r+1 bytes of value r.
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(n));
    std::uint64_t total = 0;
    for (int r = 0; r < n; ++r) {
      counts[static_cast<std::size_t>(r)] = static_cast<std::uint64_t>(r) + 1;
      total += counts[static_cast<std::size_t>(r)];
    }
    std::vector<std::uint8_t> mine(static_cast<std::size_t>(c.rank()) + 1,
                                   static_cast<std::uint8_t>(c.rank()));
    std::vector<std::uint8_t> recv(c.rank() == 0 ? total : 0);
    c.gatherv(bytes_of(mine), counts, mut_bytes_of(recv), 0);
    if (c.rank() == 0) gathered = recv;
  });
  std::size_t pos = 0;
  for (int r = 0; r < n; ++r) {
    for (int k = 0; k <= r; ++k) {
      EXPECT_EQ(gathered.at(pos++), static_cast<std::uint8_t>(r));
    }
  }
}

TEST_P(Collectives, AllgathervEveryoneSeesAll) {
  const int n = GetParam();
  Runtime rt(small_machine(), n);
  std::vector<bool> ok(static_cast<std::size_t>(n), false);
  rt.run([&](Comm& c) {
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(n), 4);
    std::vector<std::int32_t> mine{c.rank() * 3};
    std::vector<std::int32_t> all(static_cast<std::size_t>(n), -1);
    c.allgatherv(bytes_of(mine), counts, mut_bytes_of(all));
    bool good = true;
    for (int r = 0; r < n; ++r) {
      good &= (all[static_cast<std::size_t>(r)] == r * 3);
    }
    ok[static_cast<std::size_t>(c.rank())] = good;
  });
  for (bool b : ok) EXPECT_TRUE(b);
}

TEST_P(Collectives, ScatterDistributesSlices) {
  const int n = GetParam();
  Runtime rt(small_machine(), n);
  std::vector<std::int32_t> got(static_cast<std::size_t>(n), -1);
  rt.run([&](Comm& c) {
    std::vector<std::int32_t> root_data;
    if (c.rank() == 0) {
      root_data.resize(static_cast<std::size_t>(n));
      std::iota(root_data.begin(), root_data.end(), 100);
    }
    std::int32_t mine = -1;
    c.scatter(bytes_of(root_data),
              std::as_writable_bytes(std::span<std::int32_t>(&mine, 1)), 0);
    got[static_cast<std::size_t>(c.rank())] = mine;
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], 100 + r);
  }
}

TEST_P(Collectives, AlltoallvPermutesBlocks) {
  const int n = GetParam();
  Runtime rt(small_machine(), n);
  std::vector<bool> ok(static_cast<std::size_t>(n), false);
  rt.run([&](Comm& c) {
    // Rank r sends (r*1000 + dst) to every dst, dst's slot sized 4 bytes.
    const auto un = static_cast<std::size_t>(n);
    std::vector<std::int32_t> send(un), recv(un, -1);
    std::vector<std::uint64_t> counts(un, 4), displs(un);
    for (std::size_t d = 0; d < un; ++d) {
      send[d] = c.rank() * 1000 + static_cast<std::int32_t>(d);
      displs[d] = d * 4;
    }
    c.alltoallv(bytes_of(send), counts, displs, mut_bytes_of(recv), counts,
                displs);
    bool good = true;
    for (std::size_t s = 0; s < un; ++s) {
      good &= (recv[s] == static_cast<std::int32_t>(s) * 1000 + c.rank());
    }
    ok[static_cast<std::size_t>(c.rank())] = good;
  });
  for (bool b : ok) EXPECT_TRUE(b);
}

TEST_P(Collectives, AlltoallvZeroCountsAllowed) {
  const int n = GetParam();
  Runtime rt(small_machine(), n);
  std::vector<std::int32_t> sum(static_cast<std::size_t>(n), 0);
  rt.run([&](Comm& c) {
    // Only even ranks send, only to rank 0.
    const auto un = static_cast<std::size_t>(n);
    std::vector<std::uint64_t> scounts(un, 0), sdispls(un, 0);
    std::vector<std::uint64_t> rcounts(un, 0), rdispls(un, 0);
    std::int32_t payload = c.rank() + 1;
    if (c.rank() % 2 == 0) scounts[0] = 4;
    std::vector<std::int32_t> recv;
    if (c.rank() == 0) {
      for (std::size_t s = 0; s < un; s += 2) {
        rcounts[s] = 4;
        rdispls[s] = (s / 2) * 4;
      }
      recv.resize((un + 1) / 2, 0);
    }
    c.alltoallv(std::as_bytes(std::span<const std::int32_t>(&payload, 1)),
                scounts, sdispls, mut_bytes_of(recv), rcounts, rdispls);
    if (c.rank() == 0) {
      std::int32_t s = 0;
      for (auto v : recv) s += v;
      sum[0] = s;
    }
  });
  std::int32_t expect = 0;
  for (int r = 0; r < n; r += 2) expect += r + 1;
  EXPECT_EQ(sum[0], expect);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, Collectives,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16));

TEST(Comm, SpawnThreadRunsOnSameNodeAndJoins) {
  Runtime rt(small_machine(), 2);
  bool thread_ran = false;
  double join_time = -1;
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      auto done = c.spawn_thread("helper", [&] {
        c.engine().advance(2.0, des::CpuKind::user);
        thread_ran = true;
      });
      c.compute(0.5);
      done.wait();
      join_time = c.wtime();
    }
  });
  EXPECT_TRUE(thread_ran);
  EXPECT_DOUBLE_EQ(join_time, 2.0);
}

// ---- matching: per-pair queues against the linear-scan reference ----

// One match decision: a released message and the receive it matched
// (nullptr when it was queued as unexpected), or a posted receive and the
// message it matched (nullptr when it was queued as pending).
using Decision = std::pair<const void*, const void*>;

// The matcher the per-pair queues replaced, kept as the reference model:
// one unexpected deque and one posted deque per rank, each scanned front to
// back, behind a per-pair holdback map that restores send order.
class ReferenceMailbox {
 public:
  explicit ReferenceMailbox(int nprocs)
      : next_deliver_(static_cast<std::size_t>(nprocs)),
        holdback_(static_cast<std::size_t>(nprocs)) {}

  void deliver(std::shared_ptr<Msg> msg, std::vector<Decision>& out) {
    const auto src = static_cast<std::size_t>(msg->src);
    auto& hb = holdback_[src];
    if (msg->seq < next_deliver_[src] || hb.count(msg->seq) != 0) return;
    hb.emplace(msg->seq, std::move(msg));
    while (!hb.empty() && hb.begin()->first == next_deliver_[src]) {
      auto released = std::move(hb.begin()->second);
      hb.erase(hb.begin());
      ++next_deliver_[src];
      out.push_back(arrive(std::move(released)));
    }
  }

  Decision post(std::shared_ptr<PostedRecv> pr) {
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (!matches(pr->src, pr->tag, **it)) continue;
      const Msg* m = it->get();
      unexpected_.erase(it);
      return {pr.get(), m};
    }
    const PostedRecv* id = pr.get();
    posted_.push_back(std::move(pr));
    return {id, nullptr};
  }

  void cancel(const PostedRecv* pr) {
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (it->get() == pr) {
        posted_.erase(it);
        break;
      }
    }
  }

 private:
  static bool matches(int want_src, int want_tag, const Msg& m) {
    return (want_src == kAnySource || want_src == m.src) &&
           (want_tag == kAnyTag || want_tag == m.tag);
  }

  Decision arrive(std::shared_ptr<Msg> msg) {
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (!matches((*it)->src, (*it)->tag, *msg)) continue;
      const PostedRecv* pr = it->get();
      posted_.erase(it);
      return {msg.get(), pr};
    }
    const Msg* id = msg.get();
    unexpected_.push_back(std::move(msg));
    return {id, nullptr};
  }

  std::deque<std::shared_ptr<Msg>> unexpected_;
  std::deque<std::shared_ptr<PostedRecv>> posted_;
  std::vector<std::uint64_t> next_deliver_;
  std::vector<std::map<std::uint64_t, std::shared_ptr<Msg>>> holdback_;
};

// Seeded random traffic into one mailbox: posts (specific or wildcard
// source and tag), wire arrivals in any order (so the holdback reorders),
// duplicate arrivals, and withdrawn receives (recv_ft's dead-peer verdict).
// Every decision of World's matcher must equal the reference's.
TEST(Matching, PerPairQueuesDecideLikeLinearScan) {
  std::uint64_t decisions = 0;
  std::uint64_t wildcard_hits = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Prng rng(seed);
    const int nprocs = static_cast<int>(rng.next_below(5)) + 2;  // 2..6
    const int ntags = static_cast<int>(rng.next_below(3)) + 1;   // 1..3
    const int dst = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(nprocs)));  // self-sends included
    World w;
    w.nprocs = nprocs;
    w.mailbox.resize(static_cast<std::size_t>(nprocs));
    ReferenceMailbox ref(nprocs);

    std::vector<std::uint64_t> next_seq(static_cast<std::size_t>(nprocs));
    std::vector<std::shared_ptr<Msg>> in_flight;
    std::vector<std::shared_ptr<Msg>> delivered;
    std::vector<std::shared_ptr<PostedRecv>> recvs;  // every post, for cancel
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng.next_below(n));
    };
    const auto any_rank = [&] {
      return static_cast<int>(pick(static_cast<std::size_t>(nprocs)));
    };
    const auto any_tag = [&] {
      return static_cast<int>(pick(static_cast<std::size_t>(ntags)));
    };
    std::vector<Decision> want;
    std::vector<Decision> got;
    // One wire arrival into both matchers.
    const auto land = [&](const std::shared_ptr<Msg>& m) {
      ref.deliver(m, want);
      PairChannel& ch = w.chan(m->src, dst);
      ch.release_in_order(m, [&](std::shared_ptr<Msg> r) {
        const Msg* id = r.get();
        got.emplace_back(id, w.match_arrival(dst, ch, r).get());
      });
    };
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.next_below(100);
      want.clear();
      got.clear();
      if (op < 35) {
        auto pr = std::make_shared<PostedRecv>();
        pr->src = rng.next_below(4) == 0 ? kAnySource : any_rank();
        pr->tag = rng.next_below(4) == 0 ? kAnyTag : any_tag();
        recvs.push_back(pr);
        want.push_back(ref.post(pr));
        auto mine = pr;
        std::shared_ptr<Msg> m = w.match_post(dst, mine);
        got.emplace_back(pr.get(), m.get());
        if (m != nullptr && pr->src == kAnySource) ++wildcard_hits;
      } else if (op < 70) {
        auto m = std::make_shared<Msg>();
        m->src = any_rank();
        m->tag = any_tag();
        m->seq = next_seq[static_cast<std::size_t>(m->src)]++;
        in_flight.push_back(std::move(m));
        continue;
      } else if (op < 95) {
        if (in_flight.empty()) continue;
        // Any in-flight message may land next: pairs reorder on the wire.
        const std::size_t i = pick(in_flight.size());
        std::shared_ptr<Msg> m = in_flight[i];
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
        delivered.push_back(m);
        land(m);
      } else if (op < 98) {
        if (delivered.empty()) continue;
        // A retransmitted copy that raced its ack: dropped by both.
        land(delivered[pick(delivered.size())]);
      } else {
        if (recvs.empty()) continue;
        // Withdraw a receive; a no-op when it already matched.
        const PostedRecv* pr = recvs[pick(recvs.size())].get();
        ref.cancel(pr);
        w.cancel_post(dst, *pr);
      }
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
      decisions += got.size();
    }
  }
  // The traffic mix must actually exercise matching, wildcards included.
  EXPECT_GT(decisions, 50000u);
  EXPECT_GT(wildcard_hits, 500u);
}

TEST(Matching, RecvFtWithdrawnReceiveLeavesLaterMatchesIntact) {
  // Rank 0 has a receive from rank 2 pending when recv_ft declares rank 1
  // dead and withdraws its own receive. Rank 2's two later messages must
  // match the pending receive first, then a wildcard receive.
  Runtime rt(small_machine(), 3);
  fault::ChaosConfig cc;
  fault::ChaosSchedule sched(cc, rt.n_nodes(), 3, 4);
  sched.add_crash_point({fault::Phase::mid_map, 1, 1});
  rt.install_chaos(std::move(sched));
  bool detected = false;
  std::int32_t first = 0;
  std::int32_t second = 0;
  MsgInfo second_info;
  const auto out = [](std::int32_t& v) {
    return std::as_writable_bytes(std::span<std::int32_t>(&v, 1));
  };
  const auto in = [](const std::int32_t& v) {
    return std::as_bytes(std::span<const std::int32_t>(&v, 1));
  };
  rt.run([&](Comm& c) {
    if (c.rank() == 1) {
      ft::crash_point(c, fault::Phase::mid_map);  // dies here
      return;
    }
    if (c.rank() == 2) {
      // Send only after rank 0's two-poll verdict on rank 1.
      c.compute(4 * rt.chaos()->schedule().config().crash_detect_timeout_s);
      const std::int32_t a = 21;
      const std::int32_t b = 22;
      c.send(0, 7, in(a));
      c.send(0, 7, in(b));
      return;
    }
    Request pending = c.irecv(2, 7, out(first));
    std::int32_t lost = 0;
    try {
      c.recv_ft(1, 7, out(lost));
    } catch (const fault::Error& e) {
      detected = e.kind() == fault::Kind::rank_failed && e.rank() == 1;
    }
    pending.wait();
    second_info = c.recv(kAnySource, 7, out(second));
  });
  EXPECT_TRUE(detected);
  EXPECT_EQ(first, 21);
  EXPECT_EQ(second, 22);
  EXPECT_EQ(second_info.source, 2);
}

TEST(Runtime, NodePlacementIsBlocked) {
  Runtime rt(small_machine(), 10);  // 4 cores per node
  EXPECT_EQ(rt.n_nodes(), 3);
  EXPECT_EQ(rt.node_of(0), 0);
  EXPECT_EQ(rt.node_of(3), 0);
  EXPECT_EQ(rt.node_of(4), 1);
  EXPECT_EQ(rt.node_of(9), 2);
}

TEST(Runtime, ElapsedReflectsSlowestRank) {
  Runtime rt(small_machine(), 4);
  rt.run([&](Comm& c) { c.compute(0.25 * (c.rank() + 1)); });
  EXPECT_DOUBLE_EQ(rt.elapsed(), 1.0);
}

TEST(Runtime, DeterministicElapsedAcrossRuns) {
  auto once = [] {
    Runtime rt(small_machine(), 6);
    rt.run([&](Comm& c) {
      std::vector<std::int32_t> v{c.rank()};
      std::int32_t out = 0;
      c.allreduce(v.data(), &out, 1, Prim::i32, Op::sum());
      c.barrier();
    });
    return rt.elapsed();
  };
  EXPECT_DOUBLE_EQ(once(), once());
}

}  // namespace
}  // namespace colcom::mpi
