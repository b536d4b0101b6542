// The benchmark's workloads and the driver that runs one iteration of a
// workload on a fresh core::Cloud, timing every call it makes into the
// system from outside.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"
#include "trace.h"

namespace crbench {

enum class Workload { ColdRestart, CkptStream, SharedRollback };

const char* workload_name(Workload w);
bool parse_workload(const std::string& name, Workload* out);

/// Sizes of one workload. They are fixed per workload: the seed chooses
/// only buffer contents and which bytes change between checkpoints.
struct Shape {
  std::size_t instances = 1;
  std::uint64_t state_bytes = 0;  // application state per instance
  int rounds = 1;                 // checkpoints taken
};

/// The benchmark's size of each workload.
Shape full_shape(Workload w);
/// A few-megabyte variant, run between two full iterations to check that a
/// result does not depend on what ran earlier in the process.
Shape small_shape(Workload w);

struct IterationResult {
  /// The driver ran to its end (no stall, no escaped error).
  bool completed = false;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Host clock.
  double setup_s = 0;      // Cloud construction + provisioning + first boot
  double host_wall_s = 0;  // the timed phase
  double host_cpu_s = 0;   // process CPU time of the timed phase

  // Simulated clock, one sample per event (nanoseconds).
  std::vector<blobcr::sim::Duration> ckpt_blocked;   // per instance, round
  std::vector<blobcr::sim::Duration> ckpt_publish;   // per round
  std::vector<blobcr::sim::Duration> restart_makespan;  // per restart
  std::vector<blobcr::sim::Duration> restart_inst;   // per instance, restart

  /// Simulated counters (bytes, counts, nanoseconds), keyed by metric
  /// family; see the collection in workloads.cpp for each key's source.
  std::map<std::string, std::int64_t> counters;

  std::vector<Span> spans;  // empty unless traced

  /// FNV-1a over every simulated sample and counter: equal fingerprints
  /// mean the modelled system behaved identically.
  std::uint64_t fingerprint() const;
};

IterationResult run_iteration(Workload w, const Shape& shape,
                              std::uint64_t seed, bool traced);

}  // namespace crbench
