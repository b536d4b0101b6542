// Tests for the discrete-event engine: tasks, processes, kill semantics,
// synchronization primitives, fair-share resources.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sim.h"

namespace blobcr::sim {
namespace {

// --- basic time / event machinery -----------------------------------------

TEST(SimulationTest, CallbacksRunInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.call_at(30, [&] { order.push_back(3); });
  s.call_at(10, [&] { order.push_back(1); });
  s.call_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SimulationTest, SimultaneousEventsFifo) {
  Simulation s;
  std::vector<int> order;
  s.call_at(10, [&] { order.push_back(1); });
  s.call_at(10, [&] { order.push_back(2); });
  s.call_at(10, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, CancelledTimerDoesNotFire) {
  Simulation s;
  bool fired = false;
  TimerHandle h = s.call_at(5, [&] { fired = true; });
  h.cancel();
  s.run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, RunUntilStopsAtTime) {
  Simulation s;
  int count = 0;
  s.call_at(10, [&] { ++count; });
  s.call_at(20, [&] { ++count; });
  s.run_until(15);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), 15);
  s.run();
  EXPECT_EQ(count, 2);
}

// --- coroutine processes ---------------------------------------------------

Task<> record_after_delay(Simulation& s, Duration d, std::vector<Time>& out) {
  co_await s.delay(d);
  out.push_back(s.now());
}

TEST(ProcessTest, DelayAdvancesTime) {
  Simulation s;
  std::vector<Time> times;
  s.spawn("a", record_after_delay(s, 100, times));
  s.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 100);
}

TEST(ProcessTest, ProcessesInterleave) {
  Simulation s;
  std::vector<Time> times;
  s.spawn("a", record_after_delay(s, 200, times));
  s.spawn("b", record_after_delay(s, 100, times));
  s.run();
  EXPECT_EQ(times, (std::vector<Time>{100, 200}));
}

Task<int> add_later(Simulation& s, int a, int b) {
  co_await s.delay(10);
  co_return a + b;
}

Task<> use_subtask(Simulation& s, int& out) {
  out = co_await add_later(s, 2, 3);
}

TEST(ProcessTest, SubtaskReturnsValue) {
  Simulation s;
  int result = 0;
  s.spawn("main", use_subtask(s, result));
  s.run();
  EXPECT_EQ(result, 5);
}

Task<> thrower(Simulation& s) {
  co_await s.delay(1);
  throw std::runtime_error("boom");
}

Task<> catcher(Simulation& s, bool& caught) {
  try {
    co_await thrower(s);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(ProcessTest, ExceptionPropagatesToAwaiter) {
  Simulation s;
  bool caught = false;
  s.spawn("main", catcher(s, caught));
  s.run();
  EXPECT_TRUE(caught);
}

TEST(ProcessTest, UncaughtExceptionMarksFailed) {
  Simulation s;
  auto p = s.spawn("main", thrower(s));
  s.run();
  EXPECT_EQ(p->state(), Process::State::Failed);
  EXPECT_TRUE(p->error() != nullptr);
}

TEST(ProcessTest, NormalCompletionMarksDone) {
  Simulation s;
  std::vector<Time> times;
  auto p = s.spawn("a", record_after_delay(s, 5, times));
  s.run();
  EXPECT_EQ(p->state(), Process::State::Done);
}

Task<> join_then_record(Simulation& s, ProcessPtr target, std::vector<Time>& out) {
  co_await target->join();
  out.push_back(s.now());
}

TEST(ProcessTest, JoinWaitsForCompletion) {
  Simulation s;
  std::vector<Time> times;
  auto worker = s.spawn("worker", record_after_delay(s, 50, times));
  s.spawn("joiner", join_then_record(s, worker, times));
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[1], 50);
}

TEST(ProcessTest, JoinOnFinishedProcessReturnsImmediately) {
  Simulation s;
  std::vector<Time> times;
  auto worker = s.spawn("worker", record_after_delay(s, 10, times));
  s.run();
  s.spawn("joiner", join_then_record(s, worker, times));
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[1], 10);
}

// --- kill semantics ----------------------------------------------------------

TEST(KillTest, KilledProcessDoesNotResume) {
  Simulation s;
  std::vector<Time> times;
  auto p = s.spawn("victim", record_after_delay(s, 100, times));
  s.call_at(50, [&] { p->kill(); });
  s.run();
  EXPECT_TRUE(times.empty());
  EXPECT_EQ(p->state(), Process::State::Killed);
}

TEST(KillTest, KillAfterCompletionIsNoop) {
  Simulation s;
  std::vector<Time> times;
  auto p = s.spawn("victim", record_after_delay(s, 10, times));
  s.run();
  p->kill();
  EXPECT_EQ(p->state(), Process::State::Done);
}

struct DtorFlag {
  bool* flag;
  explicit DtorFlag(bool* f) : flag(f) {}
  ~DtorFlag() {
    if (flag != nullptr) *flag = true;
  }
  DtorFlag(DtorFlag&& o) noexcept : flag(std::exchange(o.flag, nullptr)) {}
};

Task<> hold_raii(Simulation& s, bool* destroyed) {
  DtorFlag guard(destroyed);
  co_await s.delay(1000);
}

TEST(KillTest, KillRunsDestructorsOfInFlightFrames) {
  Simulation s;
  bool destroyed = false;
  auto p = s.spawn("victim", hold_raii(s, &destroyed));
  s.call_at(10, [&] { p->kill(); });
  s.run();
  EXPECT_TRUE(destroyed);
}

Task<> sleep_for(Simulation& s, Duration d) { co_await s.delay(d); }

Task<> parent_spawns_child(Simulation& s, bool* parent_done) {
  s.spawn("child", sleep_for(s, 1000));
  co_await s.delay(500);
  *parent_done = true;
}

TEST(KillTest, KillPropagatesToChildren) {
  Simulation s;
  bool parent_done = false;
  auto p = s.spawn("parent", parent_spawns_child(s, &parent_done));
  s.call_at(100, [&] { p->kill(); });
  s.run();
  EXPECT_FALSE(parent_done);
  EXPECT_EQ(s.live_process_count(), 0u);
}

Task<> wait_on_event(Event& e, std::vector<int>& out, int id) {
  co_await e.wait();
  out.push_back(id);
}

TEST(KillTest, KillWhileWaitingOnEventDetaches) {
  Simulation s;
  Event e(s);
  std::vector<int> out;
  auto a = s.spawn("a", wait_on_event(e, out, 1));
  s.spawn("b", wait_on_event(e, out, 2));
  s.call_at(10, [&] { a->kill(); });
  s.call_at(20, [&] { e.set(); });
  s.run();
  EXPECT_EQ(out, (std::vector<int>{2}));
}

// --- synchronization primitives ---------------------------------------------

TEST(EventTest, AlreadySetEventDoesNotBlock) {
  Simulation s;
  Event e(s);
  e.set();
  std::vector<int> out;
  s.spawn("a", wait_on_event(e, out, 1));
  s.run();
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(EventTest, SetWakesAllWaiters) {
  Simulation s;
  Event e(s);
  std::vector<int> out;
  s.spawn("a", wait_on_event(e, out, 1));
  s.spawn("b", wait_on_event(e, out, 2));
  s.call_at(5, [&] { e.set(); });
  s.run();
  EXPECT_EQ(out.size(), 2u);
}

Task<> barrier_party(Simulation& s, Barrier& b, Duration arrive_at,
                     std::vector<Time>& done) {
  co_await s.delay(arrive_at);
  co_await b.arrive_and_wait();
  done.push_back(s.now());
}

TEST(BarrierTest, AllPartiesLeaveAtLastArrival) {
  Simulation s;
  Barrier b(s, 3);
  std::vector<Time> done;
  s.spawn("p1", barrier_party(s, b, 10, done));
  s.spawn("p2", barrier_party(s, b, 50, done));
  s.spawn("p3", barrier_party(s, b, 30, done));
  s.run();
  ASSERT_EQ(done.size(), 3u);
  for (const Time t : done) EXPECT_EQ(t, 50);
}

TEST(BarrierTest, IsCyclic) {
  Simulation s;
  Barrier b(s, 2);
  std::vector<Time> done;
  // Two rounds of two parties.
  s.spawn("p1", barrier_party(s, b, 10, done));
  s.spawn("p2", barrier_party(s, b, 20, done));
  s.run();
  s.spawn("p3", barrier_party(s, b, 5, done));
  s.spawn("p4", barrier_party(s, b, 15, done));
  s.run();
  ASSERT_EQ(done.size(), 4u);
}

Task<> chan_producer(Simulation& s, Channel<int>& c, int n) {
  for (int i = 0; i < n; ++i) {
    co_await s.delay(10);
    c.push(i);
  }
}

Task<> chan_consumer(Channel<int>& c, int n, std::vector<int>& out) {
  for (int i = 0; i < n; ++i) {
    const int v = co_await c.recv();
    out.push_back(v);
  }
}

TEST(ChannelTest, FifoDelivery) {
  Simulation s;
  Channel<int> c(s);
  std::vector<int> out;
  s.spawn("prod", chan_producer(s, c, 5));
  s.spawn("cons", chan_consumer(c, 5, out));
  s.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChannelTest, BufferedBeforeReceiverArrives) {
  Simulation s;
  Channel<int> c(s);
  c.push(41);
  c.push(42);
  std::vector<int> out;
  s.spawn("cons", chan_consumer(c, 2, out));
  s.run();
  EXPECT_EQ(out, (std::vector<int>{41, 42}));
}

// --- shared resource ----------------------------------------------------------

Task<> use_resource(Simulation& s, SharedResource& r, std::uint64_t bytes,
                    std::vector<Time>& done) {
  co_await r.use(bytes);
  done.push_back(s.now());
  (void)s;
}

TEST(SharedResourceTest, SingleFlowFullRate) {
  Simulation s;
  SharedResource r(s, "disk", 100.0);  // 100 bytes/sec
  std::vector<Time> done;
  s.spawn("a", use_resource(s, r, 200, done));
  s.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(to_seconds(done[0]), 2.0, 1e-6);
}

TEST(SharedResourceTest, TwoFlowsShareFairly) {
  Simulation s;
  SharedResource r(s, "disk", 100.0);
  std::vector<Time> done;
  s.spawn("a", use_resource(s, r, 100, done));
  s.spawn("b", use_resource(s, r, 100, done));
  s.run();
  ASSERT_EQ(done.size(), 2u);
  // Both share 100 B/s: each runs at 50 B/s -> 2 s.
  EXPECT_NEAR(to_seconds(done[0]), 2.0, 1e-6);
  EXPECT_NEAR(to_seconds(done[1]), 2.0, 1e-6);
}

Task<> use_after(Simulation& s, SharedResource& r, Duration start,
                 std::uint64_t bytes, std::vector<Time>& done) {
  co_await s.delay(start);
  co_await r.use(bytes);
  done.push_back(s.now());
}

TEST(SharedResourceTest, LateArrivalSlowsExisting) {
  Simulation s;
  SharedResource r(s, "disk", 100.0);
  std::vector<Time> done;
  s.spawn("a", use_resource(s, r, 200, done));          // alone until t=1
  s.spawn("b", use_after(s, r, seconds(1), 100, done));  // joins at t=1
  s.run();
  ASSERT_EQ(done.size(), 2u);
  // a: 100 bytes in first second (alone), then 50 B/s -> finishes t=3.
  // b: 100 bytes at 50 B/s from t=1 -> t=3... both complete at 3s, then the
  //    leftover instant reschedule resolves ties deterministically.
  EXPECT_NEAR(to_seconds(done[0]), 3.0, 1e-3);
  EXPECT_NEAR(to_seconds(done[1]), 3.0, 1e-3);
}

TEST(SharedResourceTest, CancelledFlowFreesBandwidth) {
  Simulation s;
  SharedResource r(s, "disk", 100.0);
  std::vector<Time> done;
  auto a = s.spawn("a", use_resource(s, r, 1000, done));
  s.spawn("b", use_resource(s, r, 100, done));
  s.call_at(seconds(1), [&] { a->kill(); });
  s.run();
  ASSERT_EQ(done.size(), 1u);
  // b: 50 bytes in [0,1] at 50 B/s, then full rate: 50 more bytes at 100 B/s
  // -> t = 1.5 s.
  EXPECT_NEAR(to_seconds(done[0]), 1.5, 1e-3);
}

TEST(SharedResourceTest, ZeroByteUseCompletesImmediately) {
  Simulation s;
  SharedResource r(s, "disk", 100.0);
  std::vector<Time> done;
  s.spawn("a", use_resource(s, r, 0, done));
  s.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 0);
}

TEST(SharedResourceTest, TracksStats) {
  Simulation s;
  SharedResource r(s, "disk", 100.0);
  std::vector<Time> done;
  s.spawn("a", use_resource(s, r, 300, done));
  s.run();
  EXPECT_EQ(r.total_bytes(), 300u);
  EXPECT_NEAR(to_seconds(r.busy_time()), 3.0, 1e-6);
  EXPECT_EQ(r.active_flows(), 0u);
}

// --- determinism ---------------------------------------------------------------

Task<> noisy_worker(Simulation& s, SharedResource& r, int id,
                    std::vector<int>& order) {
  co_await s.delay(id % 3);
  co_await r.use(50 + static_cast<std::uint64_t>(id) * 7);
  order.push_back(id);
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalOrders) {
  auto run_once = [] {
    Simulation s;
    SharedResource r(s, "x", 1000.0);
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) s.spawn("w", noisy_worker(s, r, i, order));
    s.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace blobcr::sim
