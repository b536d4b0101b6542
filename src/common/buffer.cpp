#include "common/buffer.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "common/digest.h"

namespace blobcr::common {

Buffer Buffer::real(std::vector<std::byte> data) {
  Buffer b;
  b.size_ = data.size();
  if (!data.empty()) {
    Segment seg;
    seg.data = std::move(data);
    b.segs_.push_back(std::move(seg));
  }
  return b;
}

Buffer Buffer::zeros(std::size_t n) {
  // Built in place (not via real()) — the moved-temporary form trips
  // gcc-12's -Wfree-nonheap-object false positive under -O3 inlining.
  Buffer b;
  b.size_ = n;
  if (n > 0) {
    Segment seg;
    seg.data.assign(n, std::byte{0});
    b.segs_.push_back(std::move(seg));
  }
  return b;
}

Buffer Buffer::pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> data(n);
  std::uint64_t state = seed;
  std::size_t i = 0;
  while (i + 8 <= n) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(data.data() + i, &word, 8);
    i += 8;
  }
  if (i < n) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(data.data() + i, &word, n - i);
  }
  return real(std::move(data));
}

Buffer Buffer::from_string(std::string_view text) {
  std::vector<std::byte> data(text.size());
  if (!text.empty()) std::memcpy(data.data(), text.data(), text.size());
  return real(std::move(data));
}

Buffer Buffer::phantom(std::size_t n) {
  Buffer b;
  b.size_ = n;
  if (n > 0) {
    Segment seg;
    seg.phantom = true;
    seg.length = n;
    b.segs_.push_back(std::move(seg));
  }
  return b;
}

bool Buffer::is_phantom() const {
  for (const Segment& s : segs_) {
    if (s.phantom) return true;
  }
  return false;
}

bool Buffer::fully_real() const { return !is_phantom(); }

bool Buffer::fully_phantom() const {
  if (segs_.empty()) return false;
  for (const Segment& s : segs_) {
    if (!s.phantom) return false;
  }
  return true;
}

bool Buffer::all_zero() const {
  if (segs_.empty()) return false;
  for (const Segment& s : segs_) {
    if (s.phantom) return false;
    const std::byte* p = s.data.data();
    const std::size_t n = s.data.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, p + i, 8);
      if (word != 0) return false;
    }
    for (; i < n; ++i) {
      if (p[i] != std::byte{0}) return false;
    }
  }
  return true;
}

std::span<const std::byte> Buffer::bytes() const {
  if (segs_.empty()) return {};
  // Canonical form: a fully-real buffer is one merged segment.
  if (segs_.size() != 1 || segs_[0].phantom) return {};
  return {segs_[0].data.data(), segs_[0].data.size()};
}

std::span<std::byte> Buffer::mutable_bytes() {
  if (segs_.empty()) return {};
  if (segs_.size() != 1 || segs_[0].phantom) return {};
  return {segs_[0].data.data(), segs_[0].data.size()};
}

std::uint64_t Buffer::digest() const {
  if (segs_.empty()) return xxh64({});
  if (segs_.size() == 1 && segs_[0].phantom) {
    // Keep the historical pure-phantom formula.
    return mix64(kPhantomSalt ^ size_);
  }
  // Chained over segments from seed 0, so a fully-real (one-segment) buffer
  // digests as plain xxh64(bytes).
  std::uint64_t h = 0;
  for (const Segment& s : segs_) {
    if (s.phantom) {
      std::array<std::byte, 8> marker{};
      const std::uint64_t m = mix64(kPhantomSalt ^ s.length);
      for (std::size_t i = 0; i < marker.size(); ++i) {
        marker[i] = static_cast<std::byte>(m >> (i * 8));
      }
      h = xxh64(marker, h);
    } else {
      h = xxh64(s.data, h);
    }
  }
  return h;
}

void Buffer::push_segment(Segment seg) {
  if (seg.size() == 0) return;
  size_ += seg.size();
  if (!segs_.empty()) {
    Segment& last = segs_.back();
    if (last.phantom && seg.phantom) {
      last.length += seg.length;
      return;
    }
    if (!last.phantom && !seg.phantom) {
      last.data.insert(last.data.end(), seg.data.begin(), seg.data.end());
      return;
    }
  }
  segs_.push_back(std::move(seg));
}

Buffer Buffer::slice_segments(std::size_t off, std::size_t len) const {
  Buffer out;
  std::uint64_t pos = 0;
  const std::uint64_t end = off + len;
  for (const Segment& s : segs_) {
    const std::uint64_t s_end = pos + s.size();
    if (s_end > off && pos < end) {
      const std::uint64_t lo = std::max<std::uint64_t>(pos, off);
      const std::uint64_t hi = std::min<std::uint64_t>(s_end, end);
      Segment piece;
      piece.phantom = s.phantom;
      if (s.phantom) {
        piece.length = hi - lo;
      } else {
        piece.data.assign(
            s.data.begin() + static_cast<std::ptrdiff_t>(lo - pos),
            s.data.begin() + static_cast<std::ptrdiff_t>(hi - pos));
      }
      out.push_segment(std::move(piece));
    }
    pos = s_end;
    if (pos >= end) break;
  }
  return out;
}

Buffer Buffer::slice(std::size_t off, std::size_t len) const {
  assert(off + len <= size_);
  return slice_segments(off, len);
}

void Buffer::append(const Buffer& src) {
  for (const Segment& s : src.segs_) {
    Segment copy = s;
    push_segment(std::move(copy));
  }
}

void Buffer::overwrite(std::size_t off, const Buffer& src) {
  if (src.size() == 0) return;
  // Fast path: a real write fully inside a single real buffer.
  if (segs_.size() == 1 && !segs_[0].phantom && src.segs_.size() == 1 &&
      !src.segs_[0].phantom && off + src.size() <= size_) {
    std::memcpy(segs_[0].data.data() + off, src.segs_[0].data.data(),
                src.size());
    return;
  }
  Buffer out;
  if (off > 0) {
    if (off <= size_) {
      out = slice_segments(0, off);
    } else {
      out = slice_segments(0, size_);
      out.push_segment([&] {
        Segment gap;
        gap.data.assign(off - size_, std::byte{0});
        return gap;
      }());
    }
  }
  out.append(src);
  const std::uint64_t tail_at = off + src.size();
  if (tail_at < size_) {
    out.append(slice_segments(tail_at, size_ - tail_at));
  }
  *this = std::move(out);
}

void Buffer::resize(std::size_t n) {
  if (n == size_) return;
  if (n < size_) {
    *this = slice_segments(0, n);
    return;
  }
  Segment tail;
  tail.data.assign(n - size_, std::byte{0});
  push_segment(std::move(tail));
}

std::string Buffer::to_string() const {
  const auto view = bytes();
  if (view.empty() && size_ != 0) return std::string();
  std::string s(view.size(), '\0');
  std::memcpy(s.data(), view.data(), view.size());
  return s;
}

bool operator==(const Buffer& a, const Buffer& b) {
  if (a.size_ != b.size_) return false;
  // Canonical form makes segment-wise comparison exact.
  if (a.segs_.size() != b.segs_.size()) return false;
  for (std::size_t i = 0; i < a.segs_.size(); ++i) {
    const auto& sa = a.segs_[i];
    const auto& sb = b.segs_[i];
    if (sa.phantom != sb.phantom || sa.size() != sb.size()) return false;
    if (!sa.phantom && sa.data != sb.data) return false;
  }
  return true;
}

}  // namespace blobcr::common
