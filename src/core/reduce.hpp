// Buffer-to-scalar reduction used by the map stage.
//
// Builtin ops take a fused single-pass loop; user ops are folded
// halves-onto-halves so the user function is still called with large `len`
// (the granularity MPI_User_function is designed for) instead of per
// element.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "mpi/op.hpp"

namespace colcom::core {

/// An accumulator holding one element of primitive `p`. Seeded with the
/// op's identity when it has one; otherwise the first combined value.
class Accumulator {
 public:
  Accumulator(const mpi::Op& op, mpi::Prim p);
  /// The accumulator keeps a pointer to `op`, so a temporary would dangle.
  Accumulator(mpi::Op&& op, mpi::Prim p) = delete;

  /// Folds `count` elements at `data` into the accumulator.
  void combine(const void* data, std::uint64_t count);

  /// Folds another accumulator's value in (no-op if that one is empty).
  void merge(const Accumulator& other);

  /// Combines one already-reduced value.
  void combine_value(const void* value);

  bool empty() const { return empty_; }
  /// Pointer to the current value (prim_size(p) bytes). Contract error when
  /// empty.
  const void* value() const;
  mpi::Prim prim() const { return prim_; }

  /// Copies the value out as T (must match prim).
  template <typename T>
  T as() const {
    static_assert(sizeof(T) <= 8);
    T v;
    std::memcpy(&v, value(), sizeof(T));
    return v;
  }

 private:
  const mpi::Op* op_;
  mpi::Prim prim_;
  bool empty_ = true;
  alignas(8) unsigned char value_[8] = {};
  // Scratch for user-op folding, grown on demand.
  std::vector<unsigned char> scratch_;
};

}  // namespace colcom::core
