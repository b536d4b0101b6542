#include "common/strutil.h"

#include <cstdarg>
#include <cstdio>

namespace blobcr::common {

std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string human_bytes(std::uint64_t bytes) {
  const double b = static_cast<double>(bytes);
  if (bytes >= 1000ULL * 1000 * 1000) return strf("%.2f GB", b / 1e9);
  if (bytes >= 1000ULL * 1000) return strf("%.2f MB", b / 1e6);
  if (bytes >= 1000ULL) return strf("%.2f KB", b / 1e3);
  return strf("%llu B", static_cast<unsigned long long>(bytes));
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace blobcr::common
