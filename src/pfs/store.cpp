#include "pfs/store.hpp"

#include <algorithm>

namespace colcom::pfs {

void OverlayStore::read(std::uint64_t offset,
                        std::span<std::byte> dst) const {
  COLCOM_EXPECT(offset + dst.size() <= size());
  // Start from base content (zero-fill past its end), then patch overlays.
  const std::uint64_t base_size = base_->size();
  if (offset < base_size) {
    const std::uint64_t n = std::min<std::uint64_t>(dst.size(),
                                                    base_size - offset);
    base_->read(offset, dst.subspan(0, n));
    if (n < dst.size()) {
      std::fill(dst.begin() + static_cast<std::ptrdiff_t>(n), dst.end(),
                std::byte{0});
    }
  } else {
    std::fill(dst.begin(), dst.end(), std::byte{0});
  }

  const std::uint64_t lo = offset;
  const std::uint64_t hi = offset + dst.size();
  auto it = overlay_.upper_bound(lo);
  if (it != overlay_.begin()) --it;
  for (; it != overlay_.end() && it->first < hi; ++it) {
    const std::uint64_t ext_lo = it->first;
    const std::uint64_t ext_hi = ext_lo + it->second.size();
    const std::uint64_t cl = std::max(lo, ext_lo);
    const std::uint64_t ch = std::min(hi, ext_hi);
    if (cl >= ch) continue;
    std::memcpy(dst.data() + (cl - lo), it->second.data() + (cl - ext_lo),
                ch - cl);
  }
}

void OverlayStore::write(std::uint64_t offset,
                         std::span<const std::byte> src) {
  if (src.empty()) return;
  const std::uint64_t hi = offset + src.size();
  end_ = std::max(end_, hi);

  // Overwrite the blocks [offset, hi) overlaps in place and add a block for
  // each gap between them, so a write costs O(bytes written).
  auto it = overlay_.upper_bound(offset);
  if (it != overlay_.begin()) {
    const auto prev = std::prev(it);
    if (prev->first + prev->second.size() > offset) it = prev;
  }
  std::uint64_t pos = offset;  // first byte not yet written
  while (pos < hi) {
    const std::byte* in = src.data() + (pos - offset);
    const std::uint64_t gap_end =
        it == overlay_.end() ? hi : std::min(hi, it->first);
    if (pos < gap_end) {
      overlay_.emplace_hint(it, pos,
                            std::vector<std::byte>(in, in + (gap_end - pos)));
      pos = gap_end;
      continue;
    }
    std::vector<std::byte>& block = it->second;
    const std::uint64_t n = std::min(hi, it->first + block.size()) - pos;
    std::memcpy(block.data() + (pos - it->first), in, n);
    pos += n;
    ++it;
  }
}

}  // namespace colcom::pfs
