// crbench: the repository benchmark. Runs one workload for a fixed host
// time on fresh simulated clouds, checks every restored byte, checks that
// the simulated results are reproducible, and prints every metric.
//
//   crbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <path>] [--instances <n>]
//
// --instances overrides the workload's instance count for scaling probes;
// the benchmark's figures use the default.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The lines before it are a readable report. The exit code is
// 0 only when every output was correct.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "trace.h"
#include "workloads.h"

namespace crbench {
namespace {

struct Args {
  Workload workload = Workload::ColdRestart;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  std::size_t instances = 0;  // 0: the workload's own count
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      have_w = parse_workload(val, &a->workload);
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = !val.empty() && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      have_s = !val.empty() && *end == '\0' && a->seconds > 0;
    } else if (key == "--trace") {
      have_t = val == "0" || val == "1";
      a->trace = val == "1";
    } else if (key == "--trace-out") {
      a->trace_out = val;
    } else if (key == "--instances") {
      a->instances = std::strtoul(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || a->instances == 0 ||
          a->instances > 40) {
        return false;
      }
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_w && have_seed && have_s && have_t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of simulated durations, in seconds.
double percentile_s(std::vector<blobcr::sim::Duration> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t k = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(v.size()))));
  k = std::min(k, v.size());
  return blobcr::sim::to_seconds(v[k - 1]);
}

double mb(std::int64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(blobcr::common::kMB);
}

double ratio(std::int64_t a, std::int64_t b) {
  return b == 0 ? 0 : static_cast<double>(a) / static_cast<double>(b);
}

double seconds_of(std::int64_t ns) { return blobcr::sim::to_seconds(ns); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // clock and sample count, for the readable report
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-28s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string count_note(const char* clock, std::size_t n) {
  return std::string(clock) + ", n=" + std::to_string(n);
}

/// The simulated view of one workload: every sample of one iteration per
/// sub-seed, and counters summed over them.
struct Pool {
  std::size_t iterations = 0;
  std::vector<blobcr::sim::Duration> ckpt_blocked, ckpt_publish,
      restart_makespan, restart_inst;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, SelfTime> self;  // summed span self times

  explicit Pool(const std::vector<const IterationResult*>& its) {
    iterations = its.size();
    for (const IterationResult* r : its) {
      for (auto [dst, src] :
           {std::pair{&ckpt_blocked, &r->ckpt_blocked},
            std::pair{&ckpt_publish, &r->ckpt_publish},
            std::pair{&restart_makespan, &r->restart_makespan},
            std::pair{&restart_inst, &r->restart_inst}}) {
        dst->insert(dst->end(), src->begin(), src->end());
      }
      for (const auto& [k, v] : r->counters) counters[k] += v;
      for (const auto& [k, t] : self_times(r->spans)) {
        SelfTime& d = self[k];
        d.sim_s += t.sim_s;
        d.host_s += t.host_s;
        d.calls += t.calls;
      }
    }
  }
  std::int64_t sum(const char* k) const {
    const auto it = counters.find(k);
    return it == counters.end() ? 0 : it->second;
  }
  /// Mean per iteration.
  double mean(const char* k) const {
    return static_cast<double>(sum(k)) / static_cast<double>(iterations);
  }
};

std::vector<Metric> end_to_end(const Pool& pool,
                               const std::vector<const IterationResult*>& runs,
                               double peak_rss_mb) {
  std::vector<double> setup, wall;
  for (const IterationResult* r : runs) {
    setup.push_back(r->setup_s);
    wall.push_back(r->host_wall_s);
  }
  const std::int64_t restarted = pool.sum("restart.instances");
  return {
      {"setup_s", median(setup), "s", count_note("host, median", runs.size())},
      {"host_wall_s", median(wall), "s", count_note("host, median", runs.size())},
      {"peak_rss_mb", peak_rss_mb, "MB", "host, process peak"},
      {"ckpt_blocked_p50_s", percentile_s(pool.ckpt_blocked, 0.50), "s",
       count_note("sim", pool.ckpt_blocked.size())},
      {"ckpt_blocked_p95_s", percentile_s(pool.ckpt_blocked, 0.95), "s",
       count_note("sim", pool.ckpt_blocked.size())},
      {"ckpt_publish_p50_s", percentile_s(pool.ckpt_publish, 0.50), "s",
       count_note("sim", pool.ckpt_publish.size())},
      {"restart_makespan_s", percentile_s(pool.restart_makespan, 0.50), "s",
       count_note("sim, median", pool.restart_makespan.size())},
      {"restart_inst_p50_s", percentile_s(pool.restart_inst, 0.50), "s",
       count_note("sim", pool.restart_inst.size())},
      {"restart_repo_mb_per_inst",
       mb(pool.sum("restart.repo_bytes")) /
           static_cast<double>(std::max<std::int64_t>(1, restarted)),
       "MB", count_note("sim", static_cast<std::size_t>(restarted))},
      {"stored_per_user_byte",
       ratio(pool.sum("repo.growth_bytes"), pool.sum("app.checkpointed_bytes")),
       "ratio", "sim"},
  };
}

std::vector<Metric> per_layer(const Pool& pool,
                              const std::vector<const IterationResult*>& traced,
                              const std::vector<const IterationResult*>& plain) {
  // Host figures: medians over the traced iterations.
  std::vector<double> deploy, ckpt, restart, wall_traced, wall_plain;
  for (const IterationResult* r : traced) {
    const auto st = self_times(r->spans);
    const auto host = [&st](const char* k) {
      const auto it = st.find(k);
      return it == st.end() ? 0.0 : it->second.host_s;
    };
    deploy.push_back(host("core.deploy_and_boot"));
    ckpt.push_back(host("driver.checkpoint"));
    restart.push_back(host("driver.restart"));
    wall_traced.push_back(r->host_wall_s);
  }
  for (const IterationResult* r : plain) wall_plain.push_back(r->host_wall_s);
  const double wall = median(wall_traced);
  const double n = static_cast<double>(pool.iterations);
  // Simulated self time per iteration.
  const auto self = [&](const char* k) {
    const auto it = pool.self.find(k);
    return it == pool.self.end() ? 0.0 : it->second.sim_s / n;
  };
  const auto calls = [&](const char* k) {
    const auto it = pool.self.find(k);
    return count_note("sim self, calls", it == pool.self.end() ? 0 : it->second.calls);
  };
  const auto mb_of = [&](const char* k) { return pool.mean(k) / 1e6; };
  const auto s_of = [&](const char* k) { return pool.mean(k) / 1e9; };
  const std::int64_t drains = pool.sum("flush.drains");
  return {
      {"sim.events", pool.mean("sim.events"), "count", "sim"},
      {"sim.events_per_host_s", wall > 0 ? pool.mean("sim.events") / wall : 0,
       "1/s", "host"},
      {"host.deploy_s", median(deploy), "s", "host, first deploy_and_boot"},
      {"host.ckpt_s", median(ckpt), "s", "host, checkpoint phases"},
      {"host.restart_s", median(restart), "s", "host, restart phases"},
      {"guestfs.write_file_s", self("guestfs.write_file"), "s", calls("guestfs.write_file")},
      {"guestfs.pwrite_s", self("guestfs.pwrite"), "s", calls("guestfs.pwrite")},
      {"guestfs.sync_s", self("guestfs.sync"), "s", calls("guestfs.sync")},
      {"guestfs.read_file_s", self("guestfs.read_file"), "s", calls("guestfs.read_file")},
      {"core.deploy_and_boot_s", self("core.deploy_and_boot"), "s", calls("core.deploy_and_boot")},
      {"core.snapshot_instance_s", self("core.snapshot_instance"), "s",
       calls("core.snapshot_instance")},
      {"core.fetch.repo_mb", mb_of("fetch.repo_bytes"), "MB", "sim"},
      {"core.fetch.peer_mb", mb_of("fetch.peer_bytes"), "MB", "sim"},
      {"core.fetch.parity_mb", mb_of("fetch.parity_bytes"), "MB", "sim"},
      {"core.fetch.cache_mb", mb_of("fetch.cache_bytes"), "MB", "sim"},
      {"core.fetch.zero_mb", mb_of("fetch.zero_bytes"), "MB", "sim"},
      {"core.bus.hints", pool.mean("bus.hints"), "count", "sim"},
      {"core.bus.hinted_mb", mb_of("bus.hinted_bytes"), "MB", "sim"},
      {"core.bus.peer_copies", pool.mean("bus.peer_copies"), "count", "sim"},
      {"cr.commit_last_s", self("cr.commit_last"), "s", calls("cr.commit_last")},
      {"cr.restart_s", self("cr.restart"), "s", calls("cr.restart")},
      {"cr.gc_reclaimed_mb", mb_of("cr.gc_reclaimed_bytes"), "MB", "sim"},
      {"flush.drains", pool.mean("flush.drains"), "count", "sim"},
      {"flush.drain_mean_s",
       drains == 0 ? 0 : seconds_of(pool.sum("flush.drain_ns")) / static_cast<double>(drains),
       "s", "sim"},
      {"flush.blocked_s", s_of("flush.blocked_ns"), "s", "sim"},
      {"flush.backpressure_waits", pool.mean("flush.backpressure_waits"), "count", "sim"},
      {"flush.drains_failed", pool.mean("flush.drains_failed"), "count", "sim"},
      {"reduce.shipped_ratio", ratio(pool.sum("reduce.shipped_bytes"), pool.sum("reduce.raw_bytes")),
       "ratio", "sim"},
      {"reduce.dedup_hit_rate", ratio(pool.sum("reduce.dedup_hits"), pool.sum("reduce.chunks")),
       "ratio", "sim"},
      {"reduce.zero_mb", mb_of("reduce.zero_bytes"), "MB", "sim"},
      {"reduce.index_lookups", pool.mean("reduce.index_lookups"), "count", "sim"},
      {"reduce.index_hit_rate",
       ratio(pool.sum("reduce.index_hits"), pool.sum("reduce.index_lookups")), "ratio", "sim"},
      {"blob.commits", pool.mean("blob.commits"), "count", "sim"},
      {"blob.stored_mb", mb_of("blob.stored_bytes"), "MB", "sim"},
      {"blob.meta_mb", mb_of("blob.meta_bytes"), "MB", "sim"},
      {"qos.commit_wait_s", s_of("qos.commit_wait_ns"), "s", "sim"},
      {"qos.provider_wait_s", s_of("qos.provider_wait_ns"), "s", "sim"},
      {"qos.prefetch_wait_s", s_of("qos.prefetch_wait_ns"), "s", "sim"},
      {"redundancy.encode_mb", mb_of("redundancy.encode_bytes"), "MB", "sim"},
      {"redundancy.rebuild_mb", mb_of("redundancy.rebuild_bytes"), "MB", "sim"},
      {"redundancy.resident_serves", pool.mean("redundancy.resident_serves"), "count", "sim"},
      {"net.fabric_mb", mb_of("net.fabric_bytes"), "MB", "sim"},
      {"trace.overhead_s", wall - median(wall_plain), "s",
       "host, traced minus untraced host_wall_s"},
  };
}

/// Simulated figures pool this many sub-seeds per run (derived from
/// --seed), so a run's figure does not hang on one draw of the layout.
constexpr std::size_t kSubSeeds = 4;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t j) {
  return seed * kSubSeeds + j;
}

int run(const Args& args) {
  Shape shape = full_shape(args.workload);
  if (args.instances > 0) shape.instances = args.instances;
  const Workload other = args.workload == Workload::ColdRestart
                             ? Workload::CkptStream
                             : Workload::ColdRestart;
  std::vector<std::string> problems;

  // The first iteration runs alone in a fresh process; it is the reference
  // for sub-seed 0 and is not timed (it also warms the allocator).
  const IterationResult ref =
      run_iteration(args.workload, shape, sub_seed(args.seed, 0), false);
  // A small run of another workload, so that the next iteration (sub-seed
  // 0 again) shows whether anything carries over between clouds.
  const IterationResult interloper =
      run_iteration(other, small_shape(other), args.seed, false);

  // Timed iterations cycle over the sub-seeds until --seconds have passed
  // and at least one whole cycle (with tracing: one untraced, then one
  // traced cycle) has run.
  std::vector<IterationResult> iters;
  const std::size_t min_iters = (args.trace ? 2 : 1) * kSubSeeds;
  const HostClock::time_point t0 = HostClock::now();
  for (std::size_t k = 0;; ++k) {
    const bool traced = args.trace && (k / kSubSeeds) % 2 == 1;
    iters.push_back(run_iteration(args.workload, shape,
                                  sub_seed(args.seed, k % kSubSeeds), traced));
    if (iters.size() >= min_iters &&
        host_seconds(t0, HostClock::now()) >= args.seconds) {
      break;
    }
  }

  std::uint64_t attempted = ref.attempted + interloper.attempted;
  std::uint64_t failed = ref.failed + interloper.failed;
  for (const IterationResult* r : {&ref, &interloper}) {
    if (!r->completed) problems.push_back("iteration aborted: " + r->error);
  }
  // First untraced / traced iteration of each sub-seed; every later one
  // must reproduce its sub-seed's fingerprint, traced or not.
  std::vector<const IterationResult*> plain_pool, traced_pool;
  std::vector<std::uint64_t> fps(kSubSeeds, 0);
  fps[0] = ref.fingerprint();
  std::vector<const IterationResult*> plain_runs, traced_runs;
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < iters.size(); ++k) {
    const IterationResult& r = iters[k];
    const std::size_t j = k % kSubSeeds;
    attempted += r.attempted;
    failed += r.failed;
    if (!r.completed) problems.push_back("iteration aborted: " + r.error);
    const bool traced = !r.spans.empty();
    if (k < kSubSeeds) {
      plain_pool.push_back(&r);
      if (j > 0) fps[j] = r.fingerprint();
    } else if (traced && traced_pool.size() < kSubSeeds) {
      traced_pool.push_back(&r);
    }
    if (r.fingerprint() != fps[j]) ++mismatches;
    (traced ? traced_runs : plain_runs).push_back(&r);
  }
  if (failed > 0) problems.push_back("failed operations");
  if (mismatches > 0) {
    problems.push_back(std::to_string(mismatches) +
                       " iteration(s) differ from their sub-seed's reference "
                       "in simulated results (non-deterministic, or state "
                       "carried over)");
  }
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  for (const std::uint64_t f : fps) fp = (fp ^ f) * 0x100000001b3ULL;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb =
      static_cast<double>(ru.ru_maxrss) * 1024.0 / static_cast<double>(blobcr::common::kMB);

  std::printf("crbench workload=%s instances=%zu seed=%llu sub-seeds=%zu "
              "iterations=%zu (+1 reference, +1 %s interloper) traced=%zu\n",
              workload_name(args.workload), shape.instances,
              static_cast<unsigned long long>(args.seed), kSubSeeds,
              iters.size(), workload_name(other), traced_runs.size());
  std::printf("fingerprint=%016llx (all simulated samples and counters)\n",
              static_cast<unsigned long long>(fp));
  std::printf("ops: attempted=%llu failed=%llu ops_failed_frac=%.6f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted));
  std::printf("per iteration (host set-up, wall / cpu s):");
  for (const IterationResult& r : iters) {
    std::printf(" %.3f,%.3f/%.3f%s", r.setup_s, r.host_wall_s, r.host_cpu_s,
                r.spans.empty() ? "" : "(traced)");
  }
  std::printf("\n");
  const std::vector<Metric> e2e =
      end_to_end(Pool(plain_pool), plain_runs, peak_rss_mb);
  print_metrics("end-to-end:", e2e);

  std::vector<Metric> layers;
  if (args.trace) {
    layers = per_layer(Pool(traced_pool), traced_runs, plain_runs);
    print_metrics("per-layer (traced run):", layers);
    std::string path = args.trace_out;
    if (path.empty()) {
      path = std::string(".bench_out/trace-") + workload_name(args.workload) +
             "-" + std::to_string(args.seed) + ".json";
    }
    const std::filesystem::path dir = std::filesystem::path(path).parent_path();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::create_directories(dir, ec);
    if (write_chrome_trace(traced_runs.front()->spans, path)) {
      std::printf("trace: %s (%zu spans; open in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  path.c_str(), traced_runs.front()->spans.size());
    } else {
      problems.push_back("cannot write trace " + path);
    }
  }
  for (const std::string& p : problems) std::printf("ERROR: %s\n", p.c_str());

  const bool correct = problems.empty();
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  const std::vector<Metric>& out = args.trace ? layers : e2e;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + json_number(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace crbench

int main(int argc, char** argv) {
  crbench::Args args;
  if (!crbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: crbench --workload cold_restart|ckpt_stream|"
                 "shared_rollback --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH] [--instances N]\n");
    return 2;
  }
  return crbench::run(args);
}
