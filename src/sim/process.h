// Process: a spawned root coroutine plus the machinery needed to kill it.
//
// Fail-stop semantics: a simulated machine failure destroys, at an arbitrary
// virtual time, every process running on it. `Process::kill()` implements
// this: it recursively kills child processes, cancels the process's single
// outstanding Blocker (a suspended timer / wait-queue node / resource flow),
// and destroys the root coroutine frame. Frame destruction runs destructors
// of everything in flight, so RAII guards (locks, resource flows) release
// cleanly and the rest of the simulation observes a consistent world.
#pragma once

#include <cassert>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"

namespace blobcr::sim {

/// One suspended wait of a process. At most one Blocker is outstanding per
/// process (a process is a single thread of execution); concurrency within a
/// process is expressed by spawning child processes.
class Blocker {
 public:
  /// Deregisters this blocker from whatever structure holds it (event queue,
  /// wait queue, resource flow list). Called exactly once, and only while the
  /// owning process is being killed. Must not resume the coroutine.
  virtual void cancel() noexcept = 0;

 protected:
  ~Blocker() = default;
};

class Process : public std::enable_shared_from_this<Process> {
 public:
  enum class State { Running, Done, Failed, Killed };

  const std::string& name() const { return name_; }
  State state() const { return state_; }
  bool finished() const { return state_ != State::Running; }
  /// Exception that escaped the root task, if state() == Failed.
  std::exception_ptr error() const { return error_; }

  /// Fail-stop terminate. No-op when already finished. Must not be called
  /// from within the process itself (use a normal return or throw instead).
  void kill();

  /// co_await p->join(): waits until the process finishes (by any means).
  struct JoinAwaiter;
  JoinAwaiter join();

  Simulation& simulation() const { return *sim_; }

  // --- used by awaitable implementations ---
  void set_blocker(Blocker* b) {
    assert(blocker_ == nullptr);
    blocker_ = b;
  }
  void clear_blocker(Blocker* b) {
    assert(blocker_ == b);
    (void)b;
    blocker_ = nullptr;
  }
  /// Resumes the process's suspended leaf coroutine with current-process
  /// tracking. Only call from event callbacks.
  void resume_leaf(std::coroutine_handle<> h);

 private:
  friend class Simulation;

  Process(Simulation& sim, std::string name);

  void start();
  void on_root_done();
  void finish(State s);

  Simulation* sim_;
  std::string name_;
  Task<> root_;
  State state_ = State::Running;
  std::exception_ptr error_;
  Blocker* blocker_ = nullptr;
  std::vector<std::weak_ptr<Process>> children_;
  // Joiners are woken via scheduled events; see JoinAwaiter.
  struct Joiner;
  std::vector<Joiner*> joiners_;
};

/// Wait node used by join(). Lives inside the joining coroutine's frame.
struct Process::Joiner : Blocker {
  Process* target = nullptr;
  Process* waiter = nullptr;
  std::coroutine_handle<> h{};
  TimerHandle resume_ev;
  bool notified = false;

  void notify() {
    notified = true;
    resume_ev = target->sim_->call_at(target->sim_->now(), [this] {
      waiter->clear_blocker(this);
      waiter->resume_leaf(h);
    });
  }
  void cancel() noexcept override {
    if (notified) {
      resume_ev.cancel();
    } else {
      std::erase(target->joiners_, this);
    }
  }
};

struct Process::JoinAwaiter {
  Process* target;
  Joiner node{};

  bool await_ready() const noexcept { return target->finished(); }
  void await_suspend(std::coroutine_handle<> h) {
    node.target = target;
    node.waiter = target->sim_->current_process();
    assert(node.waiter != nullptr && "join() outside a process");
    node.h = h;
    node.waiter->set_blocker(&node);
    target->joiners_.push_back(&node);
  }
  void await_resume() const noexcept {}
};

inline Process::JoinAwaiter Process::join() { return JoinAwaiter{this}; }

/// Awaiter for Simulation::delay()/yield().
struct Simulation::DelayAwaiter : Blocker {
  Simulation* sim;
  Duration d;
  Process* proc = nullptr;
  std::coroutine_handle<> h{};
  TimerHandle timer;

  DelayAwaiter(Simulation& s, Duration dd) : sim(&s), d(dd) {}
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) {
    proc = sim->current_process();
    assert(proc != nullptr && "delay() outside a process");
    h = handle;
    proc->set_blocker(this);
    timer = sim->call_in(d, [this] {
      proc->clear_blocker(this);
      proc->resume_leaf(h);
    });
  }
  void await_resume() const noexcept {}
  void cancel() noexcept override { timer.cancel(); }
};

inline Simulation::DelayAwaiter Simulation::delay(Duration d) {
  return DelayAwaiter(*this, d);
}

inline Simulation::DelayAwaiter Simulation::yield() { return delay(0); }

}  // namespace blobcr::sim
