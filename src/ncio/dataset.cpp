#include "ncio/dataset.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace colcom::ncio {

namespace {

constexpr std::uint32_t kMagic = 0x4e434f4cu;  // "NCOL"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kVarAlign = 4096;  // stripe-friendly variable starts

/// Composite store: the header region plus one region per variable, each
/// delegating to its own backing store.
class RegionStore final : public pfs::Store {
 public:
  struct Region {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::unique_ptr<pfs::Store> store;
  };

  explicit RegionStore(std::vector<Region> regions)
      : regions_(std::move(regions)) {
    std::uint64_t prev = 0;
    for (const auto& r : regions_) {
      COLCOM_EXPECT(r.begin >= prev && r.end - r.begin == r.store->size());
      prev = r.end;
    }
    size_ = prev;
  }

  void read(std::uint64_t offset, std::span<std::byte> dst) const override {
    COLCOM_EXPECT(offset + dst.size() <= size_);
    std::uint64_t pos = 0;
    while (pos < dst.size()) {
      const std::uint64_t abs = offset + pos;
      const Region& r = region_at(abs);
      if (abs < r.begin) {
        // Alignment gap: zero-fill.
        const std::uint64_t n =
            std::min<std::uint64_t>(r.begin - abs, dst.size() - pos);
        std::memset(dst.data() + pos, 0, n);
        pos += n;
        continue;
      }
      const std::uint64_t n =
          std::min<std::uint64_t>(r.end - abs, dst.size() - pos);
      r.store->read(abs - r.begin, dst.subspan(pos, n));
      pos += n;
    }
  }

  void write(std::uint64_t offset, std::span<const std::byte> src) override {
    COLCOM_EXPECT(offset + src.size() <= size_);
    std::uint64_t pos = 0;
    while (pos < src.size()) {
      const std::uint64_t abs = offset + pos;
      Region& r = const_cast<Region&>(region_at(abs));
      COLCOM_EXPECT_MSG(abs >= r.begin, "write into alignment gap");
      const std::uint64_t n =
          std::min<std::uint64_t>(r.end - abs, src.size() - pos);
      r.store->write(abs - r.begin, src.subspan(pos, n));
      pos += n;
    }
  }

  std::uint64_t size() const override { return size_; }

 private:
  /// Region containing or following `abs`.
  const Region& region_at(std::uint64_t abs) const {
    for (const auto& r : regions_) {
      if (abs < r.end) return r;
    }
    COLCOM_EXPECT_MSG(false, "offset past last region");
    return regions_.back();
  }

  std::vector<Region> regions_;
  std::uint64_t size_ = 0;
};

template <typename T>
void put(std::vector<std::byte>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T take(std::span<const std::byte>& in) {
  COLCOM_EXPECT(in.size() >= sizeof(T));
  T v;
  std::memcpy(&v, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return v;
}

std::vector<std::byte> serialize_header(const std::vector<VarInfo>& vars) {
  std::vector<std::byte> out;
  put(out, kMagic);
  put(out, kVersion);
  put(out, static_cast<std::uint32_t>(vars.size()));
  for (const auto& v : vars) {
    put(out, static_cast<std::uint32_t>(v.name.size()));
    const auto* p = reinterpret_cast<const std::byte*>(v.name.data());
    out.insert(out.end(), p, p + v.name.size());
    put(out, static_cast<std::uint8_t>(v.prim));
    put(out, static_cast<std::uint32_t>(v.dims.size()));
    for (auto d : v.dims) put(out, d);
    put(out, v.file_offset);
  }
  return out;
}

std::vector<VarInfo> parse_header(std::span<const std::byte> in) {
  COLCOM_EXPECT_MSG(take<std::uint32_t>(in) == kMagic, "bad dataset magic");
  COLCOM_EXPECT_MSG(take<std::uint32_t>(in) == kVersion,
                    "unsupported dataset version");
  const auto nvars = take<std::uint32_t>(in);
  std::vector<VarInfo> vars(nvars);
  for (auto& v : vars) {
    const auto name_len = take<std::uint32_t>(in);
    COLCOM_EXPECT(in.size() >= name_len);
    v.name.assign(reinterpret_cast<const char*>(in.data()), name_len);
    in = in.subspan(name_len);
    v.prim = static_cast<mpi::Prim>(take<std::uint8_t>(in));
    const auto ndims = take<std::uint32_t>(in);
    v.dims.resize(ndims);
    for (auto& d : v.dims) d = take<std::uint64_t>(in);
    v.file_offset = take<std::uint64_t>(in);
  }
  return vars;
}

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

}  // namespace

// ------------------------------------------------------------ Builder

DatasetBuilder::DatasetBuilder(pfs::Pfs& fs, std::string filename)
    : fs_(&fs), filename_(std::move(filename)) {}

DatasetBuilder& DatasetBuilder::add_var(const std::string& name,
                                        mpi::Prim prim,
                                        std::vector<std::uint64_t> dims) {
  COLCOM_EXPECT(!dims.empty() && dims.size() <= pfs::kMaxDims);
  PendingVar pv;
  pv.info.name = name;
  pv.info.prim = prim;
  pv.info.dims = std::move(dims);
  vars_.push_back(std::move(pv));
  return *this;
}

DatasetBuilder& DatasetBuilder::add_generated_impl(
    const std::string& name, mpi::Prim prim, std::vector<std::uint64_t> dims,
    std::unique_ptr<pfs::Store> store) {
  COLCOM_EXPECT(!dims.empty() && dims.size() <= pfs::kMaxDims);
  PendingVar pv;
  pv.info.name = name;
  pv.info.prim = prim;
  pv.info.dims = std::move(dims);
  pv.store = std::move(store);
  COLCOM_EXPECT(pv.store->size() == pv.info.byte_size());
  vars_.push_back(std::move(pv));
  return *this;
}

Dataset DatasetBuilder::finish() {
  COLCOM_EXPECT_MSG(!vars_.empty(), "dataset needs at least one variable");
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    for (std::size_t j = i + 1; j < vars_.size(); ++j) {
      COLCOM_EXPECT_MSG(vars_[i].info.name != vars_[j].info.name,
                        "duplicate variable name");
    }
  }
  // Two-pass layout: header size depends only on metadata arity.
  std::vector<VarInfo> infos;
  infos.reserve(vars_.size());
  for (const auto& pv : vars_) infos.push_back(pv.info);
  std::uint64_t header_size = serialize_header(infos).size();
  std::uint64_t cursor = align_up(header_size, kVarAlign);
  for (auto& v : infos) {
    v.file_offset = cursor;
    cursor = align_up(cursor + v.byte_size(), kVarAlign);
  }
  const auto header = serialize_header(infos);
  COLCOM_ENSURE(header.size() == header_size);

  std::vector<RegionStore::Region> regions;
  auto header_store = std::make_unique<pfs::MemStore>(
      align_up(header_size, kVarAlign));
  header_store->write(0, header);
  regions.push_back({0, header_store->size(), std::move(header_store)});
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    auto store = vars_[i].store
                     ? std::move(vars_[i].store)
                     : std::make_unique<pfs::MemStore>(infos[i].byte_size());
    regions.push_back({infos[i].file_offset,
                       infos[i].file_offset + infos[i].byte_size(),
                       std::move(store)});
  }
  auto file =
      fs_->create(filename_, std::make_unique<RegionStore>(std::move(regions)));
  return Dataset(*fs_, file, std::move(infos));
}

// ------------------------------------------------------------ Dataset

Dataset Dataset::open(pfs::Pfs& fs, const std::string& filename) {
  const auto file = fs.open(filename);
  const auto& store = fs.store(file);
  // Header parse is charged no virtual time: PnetCDF caches the header at
  // open and it is negligible against the experiments' data volumes.
  std::vector<std::byte> head(
      std::min<std::uint64_t>(store.size(), 1u << 20));
  store.read(0, head);
  return Dataset(fs, file, parse_header(head));
}

VarId Dataset::var(const std::string& name) const {
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].name == name) return VarId{static_cast<int>(i)};
  }
  COLCOM_EXPECT_MSG(false, "no such variable: " + name);
  return VarId{};
}

const VarInfo& Dataset::info(VarId id) const {
  COLCOM_EXPECT(id.valid() && id.index < var_count());
  return vars_[static_cast<std::size_t>(id.index)];
}

void Dataset::check_type(VarId id, mpi::Prim p) const {
  COLCOM_EXPECT_MSG(info(id).prim == p,
                    "element type does not match variable " + info(id).name);
}

romio::FlatRequest Dataset::slab_request(
    VarId id, std::span<const std::uint64_t> start,
    std::span<const std::uint64_t> count) const {
  const VarInfo& v = info(id);
  COLCOM_EXPECT(start.size() == v.dims.size() &&
                count.size() == v.dims.size());
  const auto type = mpi::Datatype::subarray(v.dims, count, start,
                                            mpi::Datatype::of(v.prim));
  return romio::FlatRequest::from_datatype(v.file_offset, type);
}

romio::FlatRequest Dataset::slab_request_strided(
    VarId id, std::span<const std::uint64_t> start,
    std::span<const std::uint64_t> count,
    std::span<const std::uint64_t> stride) const {
  const VarInfo& v = info(id);
  const std::size_t nd = v.dims.size();
  COLCOM_EXPECT(start.size() == nd && count.size() == nd &&
                stride.size() == nd);
  const std::uint64_t es = mpi::prim_size(v.prim);
  std::vector<std::uint64_t> dim_stride(nd, 1);  // row strides in elements
  for (std::size_t d = nd - 1; d > 0; --d) {
    dim_stride[d - 1] = dim_stride[d] * v.dims[d];
  }
  for (std::size_t d = 0; d < nd; ++d) {
    COLCOM_EXPECT(stride[d] >= 1 && count[d] >= 1);
    COLCOM_EXPECT_MSG(start[d] + (count[d] - 1) * stride[d] < v.dims[d],
                      "strided selection exceeds variable bounds");
  }
  // Unit-stride selections along the fastest dim yield contiguous runs of
  // count[nd-1] elements; otherwise single elements.
  const bool fast_contig = stride[nd - 1] == 1;
  const std::uint64_t run_elems = fast_contig ? count[nd - 1] : 1;
  const std::uint64_t inner_runs = fast_contig ? 1 : count[nd - 1];

  std::vector<pfs::ByteExtent> ext;
  std::vector<std::uint64_t> idx(nd, 0);
  while (true) {
    std::uint64_t elem = 0;
    for (std::size_t d = 0; d + 1 < nd; ++d) {
      elem += (start[d] + idx[d] * stride[d]) * dim_stride[d];
    }
    for (std::uint64_t j = 0; j < inner_runs; ++j) {
      const std::uint64_t e =
          elem + start[nd - 1] + (fast_contig ? 0 : j * stride[nd - 1]);
      const std::uint64_t off = v.file_offset + e * es;
      const std::uint64_t len = run_elems * es;
      if (!ext.empty() && ext.back().end() == off) {
        ext.back().length += len;
      } else {
        ext.push_back(pfs::ByteExtent{off, len});
      }
    }
    if (nd == 1) break;
    std::size_t d = nd - 2;
    while (true) {
      if (++idx[d] < count[d]) break;
      idx[d] = 0;
      if (d == 0) return romio::FlatRequest(std::move(ext));
      --d;
    }
  }
  return romio::FlatRequest(std::move(ext));
}

}  // namespace colcom::ncio
