// Byte stores backing simulated files.
//
// MemStore holds real bytes. GeneratorStore synthesizes bytes on demand from
// a closed-form element function, so an "800 GB" logical dataset costs no
// memory and every byte has independently computable ground truth — the key
// to verifying collective reads and reductions exactly. OverlayStore layers
// written extents over a generator (used for dataset headers).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace colcom::pfs {

/// Abstract random-access byte store.
class Store {
 public:
  virtual ~Store() = default;

  /// Copies `dst.size()` bytes starting at `offset` into `dst`.
  /// Requires offset + dst.size() <= size().
  virtual void read(std::uint64_t offset, std::span<std::byte> dst) const = 0;

  /// Writes `src` at `offset`. Stores that cannot accept writes throw.
  virtual void write(std::uint64_t offset, std::span<const std::byte> src) = 0;

  /// Logical size in bytes.
  virtual std::uint64_t size() const = 0;

  /// The store itself. Nothing under src/ calls this: a verifier must not
  /// read a trustworthy copy no real system has (PFS reads are verified
  /// against the guard romio::ChunkReader takes as the store serves them;
  /// `scripts/lint.py` oracle-read). It stays declared only because
  /// perfbench's TimedStore overrides it, and goes with the next change to
  /// the benchmark.
  virtual const Store& pristine() const { return *this; }
};

/// Bytes held in memory; grows on write.
class MemStore final : public Store {
 public:
  MemStore() = default;
  explicit MemStore(std::uint64_t size) : data_(size) {}

  void read(std::uint64_t offset, std::span<std::byte> dst) const override {
    COLCOM_EXPECT(offset + dst.size() <= data_.size());
    std::memcpy(dst.data(), data_.data() + offset, dst.size());
  }

  void write(std::uint64_t offset, std::span<const std::byte> src) override {
    if (offset + src.size() > data_.size()) data_.resize(offset + src.size());
    std::memcpy(data_.data() + offset, src.data(), src.size());
  }

  std::uint64_t size() const override { return data_.size(); }

 private:
  std::vector<std::byte> data_;
};

/// Fills reads from `fill(byte_offset, dst)`; read-only.
class GeneratorStore final : public Store {
 public:
  using FillFn = std::function<void(std::uint64_t offset, std::span<std::byte>)>;

  GeneratorStore(std::uint64_t size, FillFn fill)
      : size_(size), fill_(std::move(fill)) {
    COLCOM_EXPECT(fill_ != nullptr);
  }

  void read(std::uint64_t offset, std::span<std::byte> dst) const override {
    COLCOM_EXPECT(offset + dst.size() <= size_);
    fill_(offset, dst);
  }

  void write(std::uint64_t, std::span<const std::byte>) override {
    COLCOM_EXPECT_MSG(false, "GeneratorStore is read-only");
  }

  std::uint64_t size() const override { return size_; }

 private:
  std::uint64_t size_;
  FillFn fill_;
};

/// Datasets here are at most this many dimensions.
inline constexpr std::size_t kMaxDims = 8;

/// Writes bytes [offset, offset + dst.size()) of the C-order array of shape
/// `dims` whose element at coordinates c is fn(c). `fn` is evaluated exactly
/// once per touched element, in C order. The first element's coordinates
/// are decoded once; whole elements go straight into `dst` a row (innermost
/// dimension) at a time, and the outer coordinates carry like an odometer.
/// Only a ragged head or tail element goes through a temporary. `Fn` is a
/// template parameter so the element function inlines into the row loop.
template <typename T, typename Fn>
void fill_elements(std::span<const std::uint64_t> dims, const Fn& fn,
                   std::uint64_t offset, std::span<std::byte> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr std::uint64_t kSize = sizeof(T);
  COLCOM_EXPECT(!dims.empty() && dims.size() <= kMaxDims);
  if (dst.empty()) return;
  const std::size_t last = dims.size() - 1;
  std::array<std::uint64_t, kMaxDims> c{};
  const std::span<const std::uint64_t> coords(c.data(), dims.size());
  std::uint64_t rem = offset / kSize;
  for (std::size_t d = dims.size(); d-- > 0;) {
    c[d] = rem % dims[d];
    rem /= dims[d];
  }
  // After the innermost coordinate runs off its row, carry outward.
  const auto carry = [&] {
    for (std::size_t d = last; d > 0 && c[d] == dims[d]; --d) {
      c[d] = 0;
      ++c[d - 1];
    }
  };
  const auto partial = [&](std::byte* out, std::uint64_t skip,
                           std::uint64_t n) {
    const T v = fn(coords);
    std::memcpy(out, reinterpret_cast<const std::byte*>(&v) + skip, n);
  };

  std::byte* out = dst.data();
  std::uint64_t left = dst.size();
  const std::uint64_t skip = offset % kSize;
  if (skip != 0 || left < kSize) {
    const std::uint64_t n = std::min(kSize - skip, left);
    partial(out, skip, n);
    out += n;
    left -= n;
    ++c[last];
    carry();
  }
  while (left >= kSize) {
    const std::uint64_t run = std::min(left / kSize, dims[last] - c[last]);
    for (std::uint64_t i = 0; i < run; ++i, ++c[last], out += kSize) {
      const T v = fn(coords);
      std::memcpy(out, &v, kSize);
    }
    left -= run * kSize;
    carry();
  }
  if (left > 0) partial(out, 0, left);
}

/// A GeneratorStore over the C-order array of shape `dims` (at most
/// kMaxDims dimensions) whose element at coordinates c is fn(c), for any
/// callable taking std::span<const std::uint64_t>. Elements must be
/// trivially copyable; `fn` must be pure.
template <typename T, typename Fn>
std::unique_ptr<GeneratorStore> make_array_generator(
    std::vector<std::uint64_t> dims, Fn fn) {
  std::uint64_t count = 1;
  for (auto d : dims) count *= d;
  auto fill = [dims = std::move(dims), fn = std::move(fn)](
                  std::uint64_t offset, std::span<std::byte> dst) {
    fill_elements<T>(dims, fn, offset, dst);
  };
  return std::make_unique<GeneratorStore>(count * sizeof(T), std::move(fill));
}

/// The 1-D case: element i has value fn(i).
template <typename T, typename Fn>
std::unique_ptr<GeneratorStore> make_element_generator(
    std::uint64_t element_count, Fn fn) {
  return make_array_generator<T>(
      {element_count},
      [fn = std::move(fn)](std::span<const std::uint64_t> c) -> T {
        return fn(c[0]);
      });
}

/// Written extents shadow a read-only base store — gives generator-backed
/// files a writable header region.
class OverlayStore final : public Store {
 public:
  explicit OverlayStore(std::unique_ptr<Store> base) : base_(std::move(base)) {
    COLCOM_EXPECT(base_ != nullptr);
  }

  void read(std::uint64_t offset, std::span<std::byte> dst) const override;
  void write(std::uint64_t offset, std::span<const std::byte> src) override;
  std::uint64_t size() const override { return std::max(base_->size(), end_); }

 private:
  std::unique_ptr<Store> base_;
  // start offset -> bytes; extents are kept non-overlapping and non-adjacent.
  std::map<std::uint64_t, std::vector<std::byte>> overlay_;
  std::uint64_t end_ = 0;
};

}  // namespace colcom::pfs
