// Content digests for end-to-end data integrity checks: XXH64, implemented
// from its published specification (4 lanes over 32-byte stripes, a tail of
// 8/4/1-byte steps, a final avalanche). Fast, 64 bits wide, not
// collision-resistant.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace blobcr::common {

namespace xxh64_detail {

inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

/// Little-endian loads; memcpy keeps unaligned input well-defined.
inline std::uint64_t load64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline std::uint32_t load32(const std::byte* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

constexpr std::uint64_t round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

constexpr std::uint64_t merge_round(std::uint64_t acc, std::uint64_t lane) {
  acc ^= round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace xxh64_detail

/// XXH64 of `data` with `seed`.
inline std::uint64_t xxh64(std::span<const std::byte> data,
                           std::uint64_t seed = 0) {
  using namespace xxh64_detail;
  const std::byte* p = data.data();
  const std::byte* const end = p + data.size();
  std::uint64_t h = seed + kPrime5;  // inputs shorter than one stripe
  if (data.size() >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    const std::byte* const last_stripe = end - 32;
    do {
      v1 = round(v1, load64(p));
      v2 = round(v2, load64(p + 8));
      v3 = round(v3, load64(p + 16));
      v4 = round(v4, load64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  }
  h += data.size();
  for (; end - p >= 8; p += 8) {
    h ^= round(0, load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= std::uint64_t{load32(p)} * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= std::to_integer<std::uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace blobcr::common
