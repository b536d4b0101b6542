#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <exception>
#include <utility>

#include "common/buffer.h"
#include "common/units.h"
#include "core/cloud.h"
#include "cr/session.h"
#include "flush/flush_agent.h"
#include "guestfs/simplefs.h"
#include "redundancy/manager.h"
#include "reduce/reducer.h"
#include "sim/sim.h"

namespace crbench {

using namespace blobcr;
using sim::Task;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::ColdRestart:
      return "cold_restart";
    case Workload::CkptStream:
      return "ckpt_stream";
    case Workload::SharedRollback:
      return "shared_rollback";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::ColdRestart, Workload::CkptStream,
                           Workload::SharedRollback}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Shape full_shape(Workload w) {
  switch (w) {
    case Workload::ColdRestart:
      return {12, 200 * common::kMB, 1};
    case Workload::CkptStream:
      return {8, 16 * common::kMB, 8};
    case Workload::SharedRollback:
      return {8, 16 * common::kMB, 4};
  }
  return {};
}

Shape small_shape(Workload w) {
  Shape s = full_shape(w);
  s.instances = 3;
  s.state_bytes = 2 * common::kMB;
  s.rounds = std::min(s.rounds, 2);
  return s;
}

namespace {

constexpr const char* kStatePath = "/data/state.bin";

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The paper's testbed (§4.1): 120 compute nodes, 20 metadata providers,
/// 2 GB Debian guest image, 256 KB chunks; plus each workload's pipeline.
core::CloudConfig cloud_config(Workload w) {
  core::CloudConfig cfg;
  cfg.compute_nodes = 120;
  cfg.metadata_nodes = 20;
  cfg.backend = core::Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::debian_like();
  cfg.vm.os_ram_bytes = 118 * common::kMB;
  cfg.vm.process_overhead_bytes = 2 * common::kMB;
  if (w != Workload::ColdRestart) {
    cfg.flush.enabled = true;
    cfg.reduction.enabled = true;
  }
  if (w == Workload::SharedRollback) cfg.redundancy.enabled = true;
  return cfg;
}

cr::Session::Config session_config(Workload w) {
  cr::Session::Config cfg;
  if (w == Workload::CkptStream) cfg.retention.keep_last = 2;
  return cfg;
}

/// One deployment lifetime: the first boots fresh, each later one starts
/// with a restart from the latest Complete checkpoint, whose restore every
/// instance verifies before it checkpoints `rounds` more times.
struct Incarnation {
  bool restart = false;
  bool cold = false;       // drop the nodes' chunk caches first
  bool timed = true;       // part of the timed phase
  std::size_t node_offset = 0;
  int rounds = 0;
  int first_round = 0;     // global index of its first checkpoint round
};

std::vector<Incarnation> plan_for(Workload w, const Shape& s) {
  std::vector<Incarnation> plan;
  switch (w) {
    case Workload::ColdRestart:
      plan.push_back({false, false, true, 0, s.rounds, 0});
      plan.push_back({true, true, true, s.instances, 0, s.rounds});
      break;
    case Workload::CkptStream:
      // The verification restart is outside the timed phase.
      plan.push_back({false, false, true, 0, s.rounds, 0});
      plan.push_back({true, true, false, s.instances, 0, s.rounds});
      break;
    case Workload::SharedRollback:
      // Warm restarts, each shifted by three nodes: some instances land on
      // a node that still caches their data, the rest pull from peers.
      plan.push_back({false, false, true, 0, 1, 0});
      for (int c = 1; c <= s.rounds; ++c) {
        plan.push_back({true, false, true, 3 * static_cast<std::size_t>(c),
                        c < s.rounds ? 1 : 0, c});
      }
      break;
  }
  return plan;
}

struct Ctx {
  Workload workload = Workload::ColdRestart;
  Shape shape;
  std::uint64_t seed = 0;
  std::vector<Incarnation> plan;
  HostClock::time_point host_origin;

  core::Cloud* cloud = nullptr;
  Tracer* tr = nullptr;
  IterationResult* out = nullptr;
  bool finished = false;

  sim::Barrier* start_bar = nullptr;
  sim::Barrier* end_bar = nullptr;
  sim::Barrier* verified_bar = nullptr;
  int phase_span = -1;

  std::vector<std::uint64_t> expected_digest;
  std::vector<std::uint64_t> expected_size;
  std::vector<sim::Time> verified_at;

  sim::Time now() const { return cloud->now(); }
};

// --- application state --------------------------------------------------------

/// Every state file starts with a real, rank-unique header, so a restore
/// onto the wrong instance fails its digest even over phantom bulk.
constexpr std::uint64_t kHeaderBytes = 64 * common::kKiB;

/// Extra rank-private bytes of instance i, drawn from the seed in whole
/// file-system blocks (up to 256 KiB): the seeded part of each state's
/// size. Shared content keeps the same offsets on every rank.
std::uint64_t private_extra(const Ctx& ctx, std::size_t i) {
  return mix(ctx.seed, 0xe0 + i) % 64 * 4 * common::kKiB;
}

/// Round 0's state of instance i: the header, then the workload's body.
common::Buffer initial_state(const Ctx& ctx, std::size_t i) {
  const std::uint64_t n = ctx.shape.state_bytes;
  const std::uint64_t extra = private_extra(ctx, i);
  const std::uint64_t rank_seed = mix(ctx.seed, i + 1);
  const std::uint64_t shared_seed = mix(ctx.seed, 0x5a1d);
  common::Buffer b = common::Buffer::pattern(kHeaderBytes, rank_seed);
  switch (ctx.workload) {
    case Workload::ColdRestart:
      b.append(common::Buffer::phantom(n + extra));
      break;
    case Workload::CkptStream: {
      // [ shared across ranks | zero-filled | rank-private ], a quarter, a
      // quarter and a half of the body.
      const std::uint64_t q = n / 4;
      b.append(common::Buffer::pattern(q, shared_seed));
      b.append(common::Buffer::zeros(q));
      b.append(common::Buffer::pattern(n - 2 * q + extra, mix(rank_seed, 1)));
      break;
    }
    case Workload::SharedRollback: {
      // A shared input dataset (three quarters) and a private tail.
      const std::uint64_t d = n / 4 * 3;
      b.append(common::Buffer::pattern(d, shared_seed));
      b.append(common::Buffer::pattern(n - d + extra, mix(rank_seed, 1)));
      break;
    }
  }
  return b;
}

/// Instance i's state change before checkpoint `round` (> 0). Returns the
/// byte range the application dumps in place into its state file.
std::pair<std::uint64_t, std::uint64_t> mutate_state(const Ctx& ctx,
                                                     std::size_t i, int round,
                                                     common::Buffer& state) {
  const std::uint64_t n = ctx.shape.state_bytes;
  const std::uint64_t s = mix(mix(ctx.seed, i + 1), 0x100 + round);
  if (ctx.workload == Workload::CkptStream) {
    // Eight seeded ranges, a quarter of the private half in all; the whole
    // state is dumped again, so unchanged chunks reach the dedup stage.
    const std::uint64_t priv_off = kHeaderBytes + 2 * (n / 4);
    const std::uint64_t priv = state.size() - priv_off;
    const std::uint64_t len = priv / 32;
    for (std::uint64_t k = 0; k < 8; ++k) {
      const std::uint64_t off = priv_off + mix(s, 2 * k) % (priv - len + 1);
      state.overwrite(off, common::Buffer::pattern(len, mix(s, 2 * k + 1)));
    }
    return {0, state.size()};
  }
  // SharedRollback: the private tail is recomputed and rewritten.
  const std::uint64_t tail_off = kHeaderBytes + n / 4 * 3;
  state.overwrite(tail_off,
                  common::Buffer::pattern(state.size() - tail_off, s));
  return {tail_off, state.size() - tail_off};
}

// --- guest side ---------------------------------------------------------------

Task<> instance_worker(Ctx* ctx, core::Deployment* dep, std::size_t i,
                       std::size_t inc, vm::GuestProcess* gp) {
  const Incarnation& in = ctx->plan[inc];
  IterationResult& out = *ctx->out;
  Tracer& tr = *ctx->tr;
  guestfs::SimpleFs* fs = gp->vm().fs();
  const int ii = static_cast<int>(i);
  if (in.restart) {
    co_await gp->vm().gate();
    const int s = tr.begin("guestfs.read_file", ii, in.first_round,
                           ctx->phase_span);
    common::Buffer data = co_await fs->read_file(kStatePath);
    tr.end(s);
    ++out.attempted;
    if (data.size() != ctx->expected_size[i] ||
        data.digest() != ctx->expected_digest[i]) {
      ++out.failed;
    }
    ctx->verified_at[i] = ctx->now();
    gp->set_region("state", std::move(data));
    co_await ctx->verified_bar->arrive_and_wait();
  }
  for (int k = 0; k < in.rounds; ++k) {
    const int round = in.first_round + k;
    common::Buffer& state = gp->region("state");
    std::pair<std::uint64_t, std::uint64_t> dump{0, 0};
    if (round == 0) {
      state = initial_state(*ctx, i);
    } else {
      dump = mutate_state(*ctx, i, round, state);
    }
    ctx->expected_digest[i] = state.digest();
    ctx->expected_size[i] = state.size();

    co_await ctx->start_bar->arrive_and_wait();
    const sim::Time t0 = ctx->now();
    co_await gp->vm().gate();
    // The first dump creates the file; later ones rewrite it in place, so
    // the file keeps its blocks and unchanged chunks keep their content.
    int s = -1;
    if (round == 0) {
      s = tr.begin("guestfs.write_file", ii, round, ctx->phase_span);
      co_await fs->write_file(kStatePath, state);
    } else {
      s = tr.begin("guestfs.pwrite", ii, round, ctx->phase_span);
      const guestfs::Fd fd = fs->open(kStatePath);
      co_await fs->pwrite(fd, dump.first, state.slice(dump.first, dump.second));
      fs->close(fd);
    }
    tr.end(s);
    s = tr.begin("guestfs.sync", ii, round, ctx->phase_span);
    co_await fs->sync();
    tr.end(s);
    s = tr.begin("core.snapshot_instance", ii, round, ctx->phase_span);
    ++out.attempted;
    (void)co_await dep->snapshot_instance(i);
    tr.end(s);
    out.ckpt_blocked.push_back(ctx->now() - t0);
    co_await ctx->end_bar->arrive_and_wait();
  }
}

// --- counters -----------------------------------------------------------------

/// Per-layer counters read from the system's own stats. Cumulative sources
/// are diffed against the value at the end of set-up.
struct Counters {
  std::map<std::string, std::int64_t> v;

  std::int64_t& operator[](const std::string& k) { return v[k]; }
  Counters& operator-=(const Counters& o) {
    for (const auto& [k, x] : o.v) v[k] -= x;
    return *this;
  }
  Counters& operator+=(const Counters& o) {
    for (const auto& [k, x] : o.v) v[k] += x;
    return *this;
  }
};

std::int64_t i64(std::uint64_t x) { return static_cast<std::int64_t>(x); }

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Counters owned by the deployment's current mirrors (they are rebuilt on
/// every restart, so each incarnation is read once, before it is torn
/// down).
Counters mirror_counters(core::Deployment& dep) {
  Counters c;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    const core::MirrorDevice* m = dep.instance(i).mirror.get();
    if (m == nullptr) continue;
    c["fetch.repo_bytes"] += i64(m->repo_bytes_fetched());
    c["fetch.peer_bytes"] += i64(m->peer_bytes_fetched());
    c["fetch.parity_bytes"] += i64(m->parity_bytes_rebuilt());
    c["fetch.cache_bytes"] += i64(m->cache_hit_bytes());
    c["fetch.zero_bytes"] += i64(m->zero_bytes_materialized());
    const flush::FlushAgent* agent = m->flush_agent();
    const flush::FlushStats fs = agent ? agent->stats() : flush::FlushStats{};
    c["flush.drains"] += i64(fs.drains_completed);
    c["flush.drains_failed"] += i64(fs.drains_failed);
    c["flush.drain_ns"] += fs.drain_time;
    c["flush.blocked_ns"] += fs.blocked_time;
    c["flush.backpressure_waits"] += i64(fs.backpressure_waits);
  }
  return c;
}

/// Counters owned by the cloud, the repository and the deployment object.
Counters system_counters(core::Cloud& cloud, core::Deployment& dep) {
  Counters c;
  c["bus.hints"] = i64(dep.prefetch_bus().hints_sent());
  c["bus.hinted_bytes"] = i64(dep.prefetch_bus().hinted_bytes());
  c["bus.peer_copies"] = i64(dep.prefetch_bus().peer_copies());
  reduce::ReductionStats rs;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  if (reduce::Reducer* r = dep.reducer()) {
    rs = r->stats();
    for (std::size_t s = 0; s < r->index().shard_count(); ++s) {
      lookups += r->index().shard_stats(s).lookups;
      hits += r->index().shard_stats(s).hits;
    }
  }
  c["reduce.raw_bytes"] = i64(rs.raw_bytes);
  c["reduce.shipped_bytes"] = i64(rs.shipped_bytes);
  c["reduce.chunks"] = i64(rs.chunks_total);
  c["reduce.dedup_hits"] = i64(rs.dedup_hits);
  c["reduce.zero_bytes"] = i64(rs.zero_bytes);
  c["reduce.index_lookups"] = i64(lookups);
  c["reduce.index_hits"] = i64(hits);
  blob::BlobStore* store = cloud.blob_store();
  const blob::BlobStore::TenantUsage u =
      store->tenant_usage_snapshot(dep.tenant());
  c["blob.commits"] = i64(u.commits);
  c["blob.stored_bytes"] = i64(store->total_stored_bytes());
  c["blob.meta_bytes"] = i64(store->total_meta_bytes());
  c["qos.commit_wait_ns"] = u.commit_wait;
  c["qos.provider_wait_ns"] = u.provider_wait;
  c["qos.prefetch_wait_ns"] = u.prefetch_wait;
  redundancy::Manager::Stats red;
  if (const redundancy::Manager* m = cloud.redundancy()) red = m->stats();
  c["redundancy.encode_bytes"] = i64(red.encode_bytes);
  c["redundancy.rebuild_bytes"] = i64(red.rebuild_bytes);
  c["redundancy.resident_serves"] = i64(red.resident_serves);
  c["net.fabric_bytes"] = i64(cloud.fabric().total_bytes());
  return c;
}

// --- the driver ---------------------------------------------------------------

Task<> driver(Ctx* ctx) {
  core::Cloud& cloud = *ctx->cloud;
  Tracer& tr = *ctx->tr;
  IterationResult& out = *ctx->out;
  const std::size_t n = ctx->shape.instances;

  int s = tr.begin("core.provision_base_image", -1, -1);
  co_await cloud.provision_base_image();
  tr.end(s);
  core::Deployment dep(cloud, n);
  cr::Session session(dep, session_config(ctx->workload));
  s = tr.begin("core.deploy_and_boot", -1, -1);
  co_await dep.deploy_and_boot();
  tr.end(s);

  // End of set-up: everything below is the workload.
  HostClock::time_point host_t0 = HostClock::now();
  const double cpu_t0 = process_cpu_seconds();
  out.setup_s = host_seconds(ctx->host_origin, host_t0);
  const std::uint64_t events0 = cloud.simulation().events_processed();
  const std::uint64_t repo0 = cloud.repository_bytes();
  const Counters base = system_counters(cloud, dep);
  Counters mirrors;
  mirrors -= mirror_counters(dep);
  bool timed_open = true;
  auto close_timed = [&] {
    if (!timed_open) return;
    timed_open = false;
    out.host_wall_s = host_seconds(host_t0, HostClock::now());
    out.host_cpu_s = process_cpu_seconds() - cpu_t0;
    out.counters["sim.events"] =
        i64(cloud.simulation().events_processed() - events0);
    out.counters["repo.growth_bytes"] =
        i64(cloud.repository_bytes()) - i64(repo0);
  };

  sim::Barrier start_bar(cloud.simulation(), n + 1);
  sim::Barrier end_bar(cloud.simulation(), n + 1);
  sim::Barrier verified_bar(cloud.simulation(), n + 1);
  ctx->start_bar = &start_bar;
  ctx->end_bar = &end_bar;
  ctx->verified_bar = &verified_bar;
  ctx->expected_digest.assign(n, 0);
  ctx->expected_size.assign(n, 0);
  ctx->verified_at.assign(n, 0);

  std::int64_t checkpointed = 0;
  std::int64_t restart_repo = 0;
  std::int64_t restarted = 0;
  for (std::size_t inc = 0; inc < ctx->plan.size(); ++inc) {
    const Incarnation& in = ctx->plan[inc];
    auto start_workers = [&] {
      for (std::size_t i = 0; i < n; ++i) {
        dep.vm(i).start_guest(
            "app", [ctx, dp = &dep, i, inc](vm::GuestProcess& gp) -> Task<> {
              co_await instance_worker(ctx, dp, i, inc, &gp);
            });
      }
    };
    if (in.restart) {
      if (!in.timed) close_timed();
      mirrors += mirror_counters(dep);
      const int phase = tr.begin("driver.restart", -1, in.first_round);
      ctx->phase_span = phase;
      const sim::Time t0 = ctx->now();
      s = tr.begin("cr.restart", -1, in.first_round, phase);
      ++out.attempted;
      bool restarted_ok = true;
      try {
        (void)co_await session.restart(cr::Selector::latest(),
                                       in.node_offset, in.cold);
      } catch (const std::exception& e) {
        out.error = std::string("restart: ") + e.what();
        restarted_ok = false;
      }
      if (!restarted_ok) {
        ++out.failed;
        co_return;
      }
      tr.end(s);
      start_workers();
      co_await verified_bar.arrive_and_wait();
      sim::Time last = t0;
      for (const sim::Time t : ctx->verified_at) {
        out.restart_inst.push_back(t - t0);
        last = std::max(last, t);
      }
      out.restart_makespan.push_back(last - t0);
      restart_repo += i64(dep.boot_repo_bytes());
      restarted += static_cast<std::int64_t>(n);
      tr.end(phase);
    } else {
      start_workers();
    }

    for (int k = 0; k < in.rounds; ++k) {
      const int round = in.first_round + k;
      const int phase = tr.begin("driver.checkpoint", -1, round);
      ctx->phase_span = phase;
      co_await start_bar.arrive_and_wait();
      const sim::Time t0 = ctx->now();
      co_await end_bar.arrive_and_wait();
      s = tr.begin("cr.commit_last", -1, round, phase);
      ++out.attempted;
      bool committed = true;
      try {
        (void)co_await session.commit_last();
      } catch (const std::exception& e) {
        out.error = std::string("commit: ") + e.what();
        committed = false;
      }
      if (!committed) {
        ++out.failed;
        co_return;
      }
      tr.end(s);
      out.ckpt_publish.push_back(ctx->now() - t0);
      checkpointed += i64(ctx->shape.state_bytes) * static_cast<std::int64_t>(n);
      tr.end(phase);
    }
    for (std::size_t i = 0; i < n; ++i) co_await dep.vm(i).join_guests();
  }
  close_timed();

  mirrors += mirror_counters(dep);
  Counters sys = system_counters(cloud, dep);
  sys -= base;
  for (const Counters* c : {&mirrors, &sys}) {
    for (const auto& [k, x] : c->v) out.counters[k] = x;
  }
  out.counters["cr.gc_reclaimed_bytes"] = i64(session.gc_reclaimed_bytes());
  out.counters["app.checkpointed_bytes"] = checkpointed;
  out.counters["restart.repo_bytes"] = restart_repo;
  out.counters["restart.instances"] = restarted;
  // Drains are operations too: a failed one leaves its checkpoint
  // Incomplete.
  out.attempted += static_cast<std::uint64_t>(out.counters["flush.drains"] +
                                              out.counters["flush.drains_failed"]);
  out.failed += static_cast<std::uint64_t>(out.counters["flush.drains_failed"]);
  ctx->finished = true;
}

}  // namespace

std::uint64_t IterationResult::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  auto feed_str = [&](const std::string& s) {
    for (const char ch : s) feed(static_cast<unsigned char>(ch));
  };
  feed(attempted);
  feed(failed);
  for (const auto* v : {&ckpt_blocked, &ckpt_publish, &restart_makespan,
                        &restart_inst}) {
    feed(v->size());
    for (const sim::Duration d : *v) feed(static_cast<std::uint64_t>(d));
  }
  for (const auto& [k, x] : counters) {
    feed_str(k);
    feed(static_cast<std::uint64_t>(x));
  }
  return h;
}

IterationResult run_iteration(Workload w, const Shape& shape,
                              std::uint64_t seed, bool traced) {
  IterationResult out;
  Ctx ctx;
  ctx.workload = w;
  ctx.shape = shape;
  ctx.seed = seed;
  ctx.plan = plan_for(w, shape);
  ctx.out = &out;
  ctx.host_origin = HostClock::now();
  {
    core::Cloud cloud(cloud_config(w));
    Tracer tracer(traced, cloud.simulation());
    ctx.cloud = &cloud;
    ctx.tr = &tracer;
    try {
      cloud.run(driver(&ctx));
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    out.spans = tracer.spans();
  }
  out.completed = ctx.finished;
  if (!out.completed && out.failed == 0) {
    ++out.attempted;
    ++out.failed;
  }
  return out;
}

}  // namespace crbench
