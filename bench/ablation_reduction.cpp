// Ablation: the snapshot data-reduction pipeline (content-addressed dedup +
// zero suppression + compression) on successive checkpoints — a Fig.4/5-style
// snapshot-size curve with reduction on vs. off.
//
// Four instances each commit the same four-region working set every round:
//   * a region identical across ranks (cross-rank dedup),
//   * a region identical across rounds (cross-version dedup),
//   * an all-zero region (zero suppression),
//   * a unique region (incompressible; ships at full cost either way).
// Ranks reach the proxy with a little skew (checkpoint arrival jitter), so
// the first commit of identical content lands before its peers digest —
// exactly the window in which the shared digest index pays off.
//
// Expectation: with reduction ON, shipped + stored bytes per round collapse
// to roughly the unique region (plus one copy of anything shared); OFF
// ships all four regions from every rank, every round.
#include <numeric>

#include "bench_common.h"
#include "reduce/reducer.h"
#include "sim/when_all.h"

namespace blobcr::bench {
namespace {

constexpr int kRounds = 4;

std::size_t instance_count() { return fast_mode() ? 2 : 4; }
std::uint64_t region_bytes() {
  return fast_mode() ? 1 * common::kMB : 4 * common::kMB;
}

struct SeriesResult {
  std::vector<sim::Duration> times;       // per-round global checkpoint time
  std::vector<std::uint64_t> shipped;     // per-round snapshot bytes (all VMs)
  std::vector<std::uint64_t> repo;        // cumulative repository growth
  reduce::ReductionStats stats;           // zeroes when reduction is off
  bool ran = false;
};

sim::Task<> driver(core::Cloud* cloud, SeriesResult* out) {
  co_await cloud->provision_base_image();
  core::Deployment dep(*cloud, instance_count());
  co_await dep.deploy_and_boot();
  const std::uint64_t baseline = cloud->repository_bytes();
  const std::uint64_t region = region_bytes();
  const std::uint64_t base_off = 512 * common::kMB;

  for (int round = 0; round < kRounds; ++round) {
    if (dep.reducer() != nullptr) dep.reducer()->begin_epoch();
    const sim::Time t0 = cloud->simulation().now();
    std::vector<std::uint64_t> bytes(dep.size());
    std::vector<sim::Task<>> snaps;
    for (std::size_t i = 0; i < dep.size(); ++i) {
      snaps.push_back(
          [](core::Cloud* cloud, core::Deployment* dp, std::size_t idx,
             int r, std::uint64_t off, std::uint64_t reg,
             std::uint64_t* shipped) -> sim::Task<> {
            co_await cloud->simulation().delay(
                static_cast<sim::Duration>(idx) * 250 * sim::kMillisecond);
            core::MirrorDevice& m = *dp->instance(idx).mirror;
            // Shared across ranks (fresh content each round).
            co_await m.write(off, common::Buffer::pattern(reg, 9000 + r));
            // Stable across rounds (unique per rank).
            co_await m.write(off + reg,
                             common::Buffer::pattern(reg, 100 + idx));
            // Freed pages: all zeros.
            co_await m.write(off + 2 * reg, common::Buffer::zeros(reg));
            // Unique per (rank, round).
            co_await m.write(
                off + 3 * reg,
                common::Buffer::pattern(reg, 7000 + idx * 131 + r));
            *shipped = (co_await dp->snapshot_instance(idx)).bytes;
          }(cloud, &dep, i, round, base_off, region, &bytes[i]));
    }
    co_await sim::when_all(cloud->simulation(), std::move(snaps));
    out->times.push_back(cloud->simulation().now() - t0);
    out->shipped.push_back(
        std::accumulate(bytes.begin(), bytes.end(), std::uint64_t{0}));
    out->repo.push_back(cloud->repository_bytes() - baseline);
  }
  if (dep.reducer() != nullptr) out->stats = dep.reducer()->stats();
}

SeriesResult run_series(bool reduced) {
  core::CloudConfig cfg;
  cfg.compute_nodes = 16;
  cfg.metadata_nodes = 4;
  cfg.backend = core::Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::debian_like();
  cfg.reduction.enabled = reduced;
  cfg.reduction.compression = true;  // RLE falls back to raw on random data
  core::Cloud cloud(cfg);
  SeriesResult result;
  cloud.run(driver(&cloud, &result));
  result.ran = true;
  return result;
}

void register_all() {
  for (const bool reduced : {false, true}) {
    auto series = std::make_shared<SeriesResult>();
    for (int round = 1; round <= kRounds; ++round) {
      const std::string name =
          std::string("AblationReduction/") + (reduced ? "on" : "off") +
          "/checkpoint:" + std::to_string(round);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [reduced, round, series](benchmark::State& state) {
            if (!series->ran) *series = run_series(reduced);
            report_seconds(state, series->times.at(round - 1));
            state.counters["shipped_MB"] = mb(series->shipped.at(round - 1));
            state.counters["repo_MB"] = mb(series->repo.at(round - 1));
            if (reduced) {
              state.counters["dedup_hit_pct"] =
                  100.0 * series->stats.dedup_hit_rate();
              state.counters["shipped_over_raw_pct"] =
                  100.0 * series->stats.shipped_ratio();
            }
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(benchmark::kSecond);
    }
  }
}

}  // namespace
}  // namespace blobcr::bench

int main(int argc, char** argv) {
  blobcr::bench::register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
