// Small string helpers (printf-style formatting; GCC 12 lacks <format>).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace blobcr::common {

/// printf-style formatting into a std::string.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// "1.50 MB"-style human-readable byte count (decimal units, like the paper).
std::string human_bytes(std::uint64_t bytes);

std::vector<std::string> split(const std::string& s, char sep);

}  // namespace blobcr::common
