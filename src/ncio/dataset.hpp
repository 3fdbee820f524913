// ncio: a PnetCDF-like self-describing array container over the PFS.
//
// A dataset holds named N-dimensional typed variables laid out sequentially
// after a binary header. get_vara_all() is the analogue of
// ncmpi_get_vara_<type>_all: it converts the hyperslab (start[], count[])
// into a flattened offset list — losing the logical structure exactly like
// the real stack does at the MPI-IO boundary, which is what the paper's
// "logical map" reconstruction (Sec. III-B) must undo — and runs the
// two-phase collective engine.
//
// Variables can be memory-backed (writable) or *generated* from a closed-
// form coords->value function, which gives terabyte-scale logical datasets
// with exact ground truth and zero memory footprint.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "pfs/pfs.hpp"
#include "romio/collective.hpp"
#include "romio/independent.hpp"
#include "romio/request.hpp"

namespace colcom::ncio {

/// Maps C++ element types to wire primitives.
template <typename T>
constexpr mpi::Prim prim_of();
template <> constexpr mpi::Prim prim_of<std::uint8_t>() { return mpi::Prim::u8; }
template <> constexpr mpi::Prim prim_of<std::int32_t>() { return mpi::Prim::i32; }
template <> constexpr mpi::Prim prim_of<std::int64_t>() { return mpi::Prim::i64; }
template <> constexpr mpi::Prim prim_of<float>() { return mpi::Prim::f32; }
template <> constexpr mpi::Prim prim_of<double>() { return mpi::Prim::f64; }

struct VarId {
  int index = -1;
  bool valid() const { return index >= 0; }
};

struct VarInfo {
  std::string name;
  mpi::Prim prim = mpi::Prim::u8;
  std::vector<std::uint64_t> dims;  ///< slowest dimension first (C order)
  std::uint64_t file_offset = 0;    ///< first data byte in the file

  std::uint64_t element_count() const {
    std::uint64_t n = 1;
    for (auto d : dims) n *= d;
    return n;
  }
  std::uint64_t byte_size() const {
    return element_count() * mpi::prim_size(prim);
  }
};

class Dataset;

/// Staged construction: declare variables, then finish() computes the layout
/// and writes the header.
class DatasetBuilder {
 public:
  DatasetBuilder(pfs::Pfs& fs, std::string filename);

  /// Writable variable backed by memory.
  DatasetBuilder& add_var(const std::string& name, mpi::Prim prim,
                          std::vector<std::uint64_t> dims);

  /// Read-only variable whose element at `coords` is fn(coords), for any
  /// callable taking std::span<const std::uint64_t>. The function must be
  /// pure: a read evaluates it once per touched element, in C order
  /// (pfs::fill_elements), and later reads evaluate it again.
  template <typename T, typename Fn>
  DatasetBuilder& add_generated_var(const std::string& name,
                                    std::vector<std::uint64_t> dims, Fn fn) {
    auto store = pfs::make_array_generator<T>(dims, std::move(fn));
    return add_generated_impl(name, prim_of<T>(), std::move(dims),
                              std::move(store));
  }

  /// Computes the layout, registers the file with the PFS and writes the
  /// header. The builder is consumed.
  Dataset finish();

 private:
  friend class Dataset;
  struct PendingVar {
    VarInfo info;
    std::unique_ptr<pfs::Store> store;  // null => memory-backed
  };

  DatasetBuilder& add_generated_impl(const std::string& name, mpi::Prim prim,
                                     std::vector<std::uint64_t> dims,
                                     std::unique_ptr<pfs::Store> store);

  pfs::Pfs* fs_;
  std::string filename_;
  std::vector<PendingVar> vars_;
};

class Dataset {
 public:
  /// Parses the header of an existing dataset file.
  static Dataset open(pfs::Pfs& fs, const std::string& filename);

  VarId var(const std::string& name) const;
  const VarInfo& info(VarId id) const;
  int var_count() const { return static_cast<int>(vars_.size()); }
  pfs::FileId file() const { return file_; }
  pfs::Pfs& fs() const { return *fs_; }

  /// Builds the flattened file request for the hyperslab start[]/count[] of
  /// a variable (the exact offset list the MPI-IO layer sees).
  romio::FlatRequest slab_request(VarId id,
                                  std::span<const std::uint64_t> start,
                                  std::span<const std::uint64_t> count) const;

  /// Strided hyperslab (ncmpi_get_vars): element (i0..in) of the selection
  /// maps to start[d] + i_d * stride[d]. stride[d] >= 1.
  romio::FlatRequest slab_request_strided(
      VarId id, std::span<const std::uint64_t> start,
      std::span<const std::uint64_t> count,
      std::span<const std::uint64_t> stride) const;

  /// Collective hyperslab read (ncmpi_get_vara_*_all). Elements land in
  /// `out` in C order of the slab.
  template <typename T>
  romio::CollectiveStats get_vara_all(mpi::Comm& comm, VarId id,
                                      std::span<const std::uint64_t> start,
                                      std::span<const std::uint64_t> count,
                                      std::span<T> out,
                                      const romio::Hints& hints = {}) const {
    check_type(id, prim_of<T>());
    const auto req = slab_request(id, start, count);
    COLCOM_EXPECT(out.size_bytes() >= req.total_bytes());
    romio::CollectiveIo cio(hints);
    return cio.read_all(comm, file_, req, std::as_writable_bytes(out));
  }

  /// Independent hyperslab read (ncmpi_get_vara_*), optionally sieved.
  template <typename T>
  romio::IndependentStats get_vara(mpi::Comm& comm, VarId id,
                                   std::span<const std::uint64_t> start,
                                   std::span<const std::uint64_t> count,
                                   std::span<T> out,
                                   const romio::SievingConfig& sieving = {}) const {
    check_type(id, prim_of<T>());
    const auto req = slab_request(id, start, count);
    COLCOM_EXPECT(out.size_bytes() >= req.total_bytes());
    return romio::read_indep(comm, file_, req, std::as_writable_bytes(out),
                             sieving);
  }

  /// Collective strided hyperslab read (ncmpi_get_vars_*_all).
  template <typename T>
  romio::CollectiveStats get_vars_all(mpi::Comm& comm, VarId id,
                                      std::span<const std::uint64_t> start,
                                      std::span<const std::uint64_t> count,
                                      std::span<const std::uint64_t> stride,
                                      std::span<T> out,
                                      const romio::Hints& hints = {}) const {
    check_type(id, prim_of<T>());
    const auto req = slab_request_strided(id, start, count, stride);
    COLCOM_EXPECT(out.size_bytes() >= req.total_bytes());
    romio::CollectiveIo cio(hints);
    return cio.read_all(comm, file_, req, std::as_writable_bytes(out));
  }

  /// Collective hyperslab write (ncmpi_put_vara_*_all).
  template <typename T>
  romio::CollectiveStats put_vara_all(mpi::Comm& comm, VarId id,
                                      std::span<const std::uint64_t> start,
                                      std::span<const std::uint64_t> count,
                                      std::span<const T> in,
                                      const romio::Hints& hints = {}) const {
    check_type(id, prim_of<T>());
    const auto req = slab_request(id, start, count);
    COLCOM_EXPECT(in.size_bytes() >= req.total_bytes());
    romio::CollectiveIo cio(hints);
    return cio.write_all(comm, file_, req, std::as_bytes(in));
  }

 private:
  friend class DatasetBuilder;
  Dataset(pfs::Pfs& fs, pfs::FileId file, std::vector<VarInfo> vars)
      : fs_(&fs), file_(file), vars_(std::move(vars)) {}

  void check_type(VarId id, mpi::Prim p) const;

  pfs::Pfs* fs_;
  pfs::FileId file_;
  std::vector<VarInfo> vars_;
};

}  // namespace colcom::ncio
