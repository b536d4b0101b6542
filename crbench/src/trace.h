// Span recorder for the benchmark driver. A span wraps one call the driver
// makes into the system's public API and carries both clocks: simulated
// time (Cloud::now()) and host wall time. Spans stay in memory and are
// written out once, at the end of a run, as Chrome trace-event JSON.
//
// Disabled tracers record nothing: begin() returns -1 and end(-1) is a
// no-op, so the untraced path costs one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace crbench {

using HostClock = std::chrono::steady_clock;

inline double host_seconds(HostClock::time_point a, HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;   // "<layer>.<call>", e.g. "guestfs.write_file"
  int instance = -1;  // -1: the driver itself
  int round = -1;
  int parent = -1;    // index into the tracer's span list, -1 for roots
  blobcr::sim::Time sim_start = 0;
  blobcr::sim::Time sim_end = -1;  // -1 while open
  double host_start = 0;           // seconds since the tracer's origin
  double host_end = 0;

  std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
 public:
  Tracer(bool enabled, const blobcr::sim::Simulation& sim)
      : enabled_(enabled), sim_(&sim), origin_(HostClock::now()) {}

  bool enabled() const { return enabled_; }

  int begin(std::string name, int instance, int round, int parent = -1) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.instance = instance;
    s.round = round;
    s.parent = parent;
    s.sim_start = sim_->now();
    s.host_start = host_seconds(origin_, HostClock::now());
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.sim_end = sim_->now();
    s.host_end = host_seconds(origin_, HostClock::now());
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  const blobcr::sim::Simulation* sim_;
  HostClock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per span name: summed simulated self time (the span's duration minus
/// the part of it its child spans cover), summed host duration, and the
/// call count. Open spans (an aborted call) are skipped.
struct SelfTime {
  double sim_s = 0;
  double host_s = 0;
  std::size_t calls = 0;
};
std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" events). The simulated
/// clock is process 1 and the host clock process 2; thread 0 is the driver
/// and thread i+1 is instance i. Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace crbench
