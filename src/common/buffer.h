// Buffer: a byte payload composed of *real* segments (actual bytes) and
// *phantom* segments (length-only placeholders).
//
// The simulator's data plane is exercised with real bytes in unit tests,
// integration tests and examples, so content round-trips can be verified by
// digest. Large-scale benchmark sweeps (120 VMs x 200 MB of checkpoint
// state) would not fit in memory, so bulk payloads run as phantoms: all
// sizes, placement decisions and transfer timings are identical, only the
// memcpy is skipped. Because a buffer is piecewise, real content (file
// system metadata, dump headers) survives any assembly that also touches
// phantom content — e.g. a 256 KiB repository chunk holding a real BLCR
// header next to phantom memory pages.
//
// Canonical form invariant: segments are contiguous from offset 0, adjacent
// segments of the same kind are merged; a fully-real buffer therefore has
// exactly one segment and exposes a flat byte view.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace blobcr::common {

class Buffer {
 public:
  /// Salt of the length-derived digest a phantom segment contributes.
  static constexpr std::uint64_t kPhantomSalt = 0x941707011ULL;

  /// Empty buffer.
  Buffer() = default;

  static Buffer real(std::vector<std::byte> data);
  static Buffer zeros(std::size_t n);
  /// Deterministic pseudo-random content derived from `seed`.
  static Buffer pattern(std::size_t n, std::uint64_t seed);
  static Buffer from_string(std::string_view text);
  static Buffer phantom(std::size_t n);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True iff any byte is phantom.
  bool is_phantom() const;
  /// True iff every byte is real (an empty buffer is fully real).
  bool fully_real() const;
  /// True iff non-empty, every byte phantom (no real segments).
  bool fully_phantom() const;
  /// True iff every byte is real and zero (phantom content is unknowable,
  /// so any phantom segment makes this false; empty buffers are not zero).
  bool all_zero() const;

  /// Flat view of the payload; requires fully_real() (empty span otherwise).
  std::span<const std::byte> bytes() const;
  std::span<std::byte> mutable_bytes();

  /// Order-sensitive XXH64 digest over content (a fully-real buffer digests
  /// as xxh64(bytes, 0)); phantom segments contribute a length-derived
  /// sentinel. Equal buffers digest equally; a pure-phantom buffer's digest
  /// depends only on its length.
  std::uint64_t digest() const;

  /// Copy of [off, off+len). Requires off+len <= size().
  Buffer slice(std::size_t off, std::size_t len) const;

  /// Overwrites [off, off+src.size()) with `src`, growing if needed (a gap
  /// beyond the current end is zero-filled).
  void overwrite(std::size_t off, const Buffer& src);

  /// Appends `src` at the end.
  void append(const Buffer& src);

  /// Shrinks or zero-extends to exactly n bytes.
  void resize(std::size_t n);

  std::string to_string() const;  // fully_real() only; empty otherwise

  friend bool operator==(const Buffer& a, const Buffer& b);

 private:
  struct Segment {
    bool phantom = false;
    std::uint64_t length = 0;      // phantom only
    std::vector<std::byte> data;   // real only

    std::uint64_t size() const {
      return phantom ? length : data.size();
    }
  };

  void push_segment(Segment seg);          // appends + merges
  Buffer slice_segments(std::size_t off, std::size_t len) const;

  std::vector<Segment> segs_;
  std::uint64_t size_ = 0;
};

}  // namespace blobcr::common
