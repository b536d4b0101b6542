#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace crbench {

std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && spans[i].sim_end >= 0) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.sim_end < 0) continue;
    // Children of one span run concurrently (one per instance), so the
    // covered part is the union of their intervals, clipped to the span.
    std::vector<std::pair<blobcr::sim::Time, blobcr::sim::Time>> iv;
    for (const std::size_t c : children[i]) {
      const auto a = std::max(spans[c].sim_start, s.sim_start);
      const auto b = std::min(spans[c].sim_end, s.sim_end);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    blobcr::sim::Duration covered = 0;
    blobcr::sim::Time reach = s.sim_start;
    for (const auto& [a, b] : iv) {
      const auto from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    SelfTime& t = out[s.name];
    t.sim_s += blobcr::sim::to_seconds(s.sim_end - s.sim_start - covered);
    t.host_s += s.host_end - s.host_start;
    ++t.calls;
  }
  return out;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  f << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
       "\"args\":{\"name\":\"simulated clock\"}},\n";
  f << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
       "\"args\":{\"name\":\"host clock\"}}";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.sim_end < 0) continue;
    const double sim_ts = static_cast<double>(s.sim_start) / 1e3;
    const double sim_dur = static_cast<double>(s.sim_end - s.sim_start) / 1e3;
    const double host_ts = s.host_start * 1e6;
    const double host_dur = (s.host_end - s.host_start) * 1e6;
    for (int pid = 1; pid <= 2; ++pid) {
      std::snprintf(
          buf, sizeof buf,
          ",\n{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
          "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
          "\"parent\":%d,\"instance\":%d,\"round\":%d,\"sim_start_s\":%.9f,"
          "\"sim_end_s\":%.9f,\"host_start_s\":%.6f,\"host_end_s\":%.6f}}",
          pid, s.instance + 1, s.name.c_str(), s.layer().c_str(),
          pid == 1 ? sim_ts : host_ts, pid == 1 ? sim_dur : host_dur, i,
          s.parent, s.instance, s.round,
          blobcr::sim::to_seconds(s.sim_start),
          blobcr::sim::to_seconds(s.sim_end), s.host_start, s.host_end);
      f << buf;
    }
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace crbench
