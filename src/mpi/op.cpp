#include "mpi/op.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "util/assert.hpp"

namespace colcom::mpi {

namespace {

// Operands may sit at any offset inside a message payload, so elements are
// loaded and stored through memcpy, which compiles to the same moves as a
// typed access without assuming alignment.
template <typename T, typename F>
void combine(const void* in, void* inout, std::size_t count, F f) {
  const auto* a = static_cast<const std::byte*>(in);
  auto* b = static_cast<std::byte*>(inout);
  for (std::size_t i = 0; i < count; ++i) {
    T x;
    T y;
    std::memcpy(&x, a + i * sizeof(T), sizeof(T));
    std::memcpy(&y, b + i * sizeof(T), sizeof(T));
    const T r = f(x, y);
    std::memcpy(b + i * sizeof(T), &r, sizeof(T));
  }
}

template <typename F>
void dispatch(const void* in, void* inout, std::size_t count, Prim p, F f) {
  switch (p) {
    case Prim::u8: combine<std::uint8_t>(in, inout, count, f); return;
    case Prim::i32: combine<std::int32_t>(in, inout, count, f); return;
    case Prim::i64: combine<std::int64_t>(in, inout, count, f); return;
    case Prim::f32: combine<float>(in, inout, count, f); return;
    case Prim::f64: combine<double>(in, inout, count, f); return;
  }
  COLCOM_EXPECT_MSG(false, "unknown primitive");
}

template <typename T>
void store(void* out, T v) {
  std::memcpy(out, &v, sizeof(T));
}

void identity_sum(void* out, Prim p) {
  switch (p) {
    case Prim::u8: store<std::uint8_t>(out, 0); return;
    case Prim::i32: store<std::int32_t>(out, 0); return;
    case Prim::i64: store<std::int64_t>(out, 0); return;
    case Prim::f32: store<float>(out, 0.f); return;
    case Prim::f64: store<double>(out, 0.0); return;
  }
}

void identity_prod(void* out, Prim p) {
  switch (p) {
    case Prim::u8: store<std::uint8_t>(out, 1); return;
    case Prim::i32: store<std::int32_t>(out, 1); return;
    case Prim::i64: store<std::int64_t>(out, 1); return;
    case Prim::f32: store<float>(out, 1.f); return;
    case Prim::f64: store<double>(out, 1.0); return;
  }
}

void identity_min(void* out, Prim p) {
  switch (p) {
    case Prim::u8: store<std::uint8_t>(out, std::numeric_limits<std::uint8_t>::max()); return;
    case Prim::i32: store<std::int32_t>(out, std::numeric_limits<std::int32_t>::max()); return;
    case Prim::i64: store<std::int64_t>(out, std::numeric_limits<std::int64_t>::max()); return;
    case Prim::f32: store<float>(out, std::numeric_limits<float>::infinity()); return;
    case Prim::f64: store<double>(out, std::numeric_limits<double>::infinity()); return;
  }
}

void identity_max(void* out, Prim p) {
  switch (p) {
    case Prim::u8: store<std::uint8_t>(out, 0); return;
    case Prim::i32: store<std::int32_t>(out, std::numeric_limits<std::int32_t>::min()); return;
    case Prim::i64: store<std::int64_t>(out, std::numeric_limits<std::int64_t>::min()); return;
    case Prim::f32: store<float>(out, -std::numeric_limits<float>::infinity()); return;
    case Prim::f64: store<double>(out, -std::numeric_limits<double>::infinity()); return;
  }
}

}  // namespace

Op Op::sum() {
  return Op([](const void* in, void* inout, std::size_t n, Prim p) {
        dispatch(in, inout, n, p, [](auto a, auto b) { return static_cast<decltype(b)>(a + b); });
      },
      true, "sum", &identity_sum, Kind::sum);
}

Op Op::prod() {
  return Op([](const void* in, void* inout, std::size_t n, Prim p) {
        dispatch(in, inout, n, p, [](auto a, auto b) { return static_cast<decltype(b)>(a * b); });
      },
      true, "prod", &identity_prod, Kind::prod);
}

Op Op::min() {
  return Op([](const void* in, void* inout, std::size_t n, Prim p) {
        dispatch(in, inout, n, p, [](auto a, auto b) { return std::min(a, b); });
      },
      true, "min", &identity_min, Kind::min);
}

Op Op::max() {
  return Op([](const void* in, void* inout, std::size_t n, Prim p) {
        dispatch(in, inout, n, p, [](auto a, auto b) { return std::max(a, b); });
      },
      true, "max", &identity_max, Kind::max);
}

Op Op::create(UserFn fn, bool commutative) {
  COLCOM_EXPECT(fn != nullptr);
  COLCOM_EXPECT_MSG(commutative,
                    "non-commutative user ops are not supported by the "
                    "tree-based collectives");
  return Op(std::move(fn), commutative, "user", nullptr, Kind::user);
}

void Op::apply(const void* in, void* inout, std::size_t count, Prim p) const {
  COLCOM_EXPECT(valid());
  fn_(in, inout, count, p);
}

void Op::identity(void* out, Prim p) const {
  COLCOM_EXPECT(has_identity());
  identity_(out, p);
}

}  // namespace colcom::mpi
