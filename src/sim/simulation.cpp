#include "sim/simulation.h"

#include <algorithm>
#include <cassert>

#include "sim/process.h"

namespace blobcr::sim {

void TimerHandle::cancel() {
  if (rec_) {
    rec_->cancelled = true;
    rec_.reset();
  }
}

struct Simulation::Cmp {
  bool operator()(const std::shared_ptr<TimerHandle::Rec>& a,
                  const std::shared_ptr<TimerHandle::Rec>& b) const {
    if (a->t != b->t) return a->t > b->t;  // min-heap on time
    return a->seq > b->seq;                // FIFO among simultaneous events
  }
};

Simulation::Simulation() = default;

Simulation::~Simulation() { shutdown(); }

void Simulation::shutdown() {
  for (auto it = processes_.rbegin(); it != processes_.rend(); ++it) {
    if (*it && !(*it)->finished()) (*it)->kill();
  }
  processes_.clear();
  heap_.clear();
}

TimerHandle Simulation::call_at(Time t, std::function<void()> fn) {
  assert(t >= now_);
  auto rec = std::make_shared<TimerHandle::Rec>();
  rec->t = t;
  rec->seq = next_seq_++;
  rec->fn = std::move(fn);
  push_event(rec);
  return TimerHandle(rec);
}

void Simulation::push_event(std::shared_ptr<TimerHandle::Rec> rec) {
  heap_.push_back(std::move(rec));
  std::push_heap(heap_.begin(), heap_.end(), [](const auto& a, const auto& b) {
    return Cmp{}(a, b);
  });
}

bool Simulation::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(),
                  [](const auto& a, const auto& b) { return Cmp{}(a, b); });
    auto rec = std::move(heap_.back());
    heap_.pop_back();
    if (rec->cancelled) continue;
    assert(rec->t >= now_);
    now_ = rec->t;
    ++events_processed_;
    auto fn = std::move(rec->fn);
    fn();
    return true;
  }
  return false;
}

void Simulation::run() {
  while (step()) {
  }
}

bool Simulation::run_until(Time t) {
  while (!heap_.empty()) {
    // Peek (skip cancelled heads lazily).
    if (heap_.front()->cancelled) {
      std::pop_heap(heap_.begin(), heap_.end(),
                    [](const auto& a, const auto& b) { return Cmp{}(a, b); });
      heap_.pop_back();
      continue;
    }
    if (heap_.front()->t > t) {
      now_ = t;
      return true;
    }
    step();
  }
  now_ = std::max(now_, t);
  return false;
}

std::size_t Simulation::live_process_count() const {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (p && !p->finished()) ++n;
  }
  return n;
}

ProcessPtr Simulation::spawn(std::string name, Task<> body) {
  assert(body.valid());
  ProcessPtr p(new Process(*this, std::move(name)));
  p->root_ = std::move(body);
  if (current_) current_->children_.push_back(p);
  p->root_.handle().promise().on_done = [raw = p.get()] {
    raw->on_root_done();
  };
  processes_.push_back(p);
  call_at(now_, [wp = std::weak_ptr<Process>(p)] {
    if (auto sp = wp.lock(); sp && !sp->finished()) sp->start();
  });
  return p;
}

}  // namespace blobcr::sim
