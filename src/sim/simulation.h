// Simulation: the discrete-event core. Single-threaded, deterministic:
// events are ordered by (time, sequence number) and all randomness in the
// wider system flows from explicitly seeded RNGs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/task.h"
#include "sim/time.h"

namespace blobcr::sim {

class Process;
using ProcessPtr = std::shared_ptr<Process>;

/// Cancellable handle to a scheduled callback.
class TimerHandle {
 public:
  TimerHandle() = default;
  bool valid() const { return static_cast<bool>(rec_); }
  void cancel();

 private:
  friend class Simulation;
  struct Rec;
  explicit TimerHandle(std::shared_ptr<Rec> rec) : rec_(std::move(rec)) {}
  std::shared_ptr<Rec> rec_;
};

class Simulation {
 public:
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }

  TimerHandle call_at(Time t, std::function<void()> fn);
  TimerHandle call_in(Duration d, std::function<void()> fn) {
    return call_at(now_ + d, std::move(fn));
  }

  /// Runs until the event queue is empty.
  void run();
  /// Runs events with timestamp <= t; afterwards now() == t if any event ran
  /// past or the queue drained. Returns false if the queue drained.
  bool run_until(Time t);

  /// Spawns a root process executing `body`. The process starts at the
  /// current time (via a scheduled event, never inline).
  ProcessPtr spawn(std::string name, Task<> body);

  /// Process currently executing (nullptr outside process context).
  Process* current_process() const { return current_; }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t live_process_count() const;

  /// All spawned processes, finished ones included — for stall
  /// diagnostics: dump the unfinished ones to see who deadlocked.
  const std::vector<ProcessPtr>& debug_processes() const { return processes_; }

  /// Kills every live process (reverse spawn order) and clears the event
  /// queue. Owners whose members (channels, stores...) are destroyed before
  /// the Simulation must call this first so coroutine frames unwind while
  /// the structures they reference are still alive.
  void shutdown();

  /// co_await sim.delay(d): suspends the calling process for d virtual time.
  struct DelayAwaiter;
  DelayAwaiter delay(Duration d);

  /// co_await sim.yield(): reschedules the calling process at the current
  /// time (runs after already-queued events).
  DelayAwaiter yield();

 private:
  friend class Process;
  friend class TimerHandle;

  struct Cmp;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::vector<std::shared_ptr<TimerHandle::Rec>> heap_;
  std::vector<ProcessPtr> processes_;
  Process* current_ = nullptr;

  void push_event(std::shared_ptr<TimerHandle::Rec> rec);
  bool step();  // executes one event; false if queue empty
};

struct TimerHandle::Rec {
  Time t = 0;
  std::uint64_t seq = 0;
  std::function<void()> fn;
  bool cancelled = false;
};

}  // namespace blobcr::sim
