// Baseline checkpointing proxies (paper §4.2):
//
//  * QcowDiskProxy — "qcow2-disk": suspend the VM and copy the whole local
//    qcow2 container file to PVFS as a new file. No incremental support, so
//    every checkpoint re-ships everything written since boot.
//  * QcowFullProxy — "qcow2-full": savevm first (append full RAM + device
//    state into the image), then copy the container. Only the latest copy
//    is kept (qcow2 keeps all internal snapshots inside one file).
#pragma once

#include <string>

#include "img/qcow.h"
#include "net/fabric.h"
#include "pfs/pvfs.h"
#include "sim/sim.h"
#include "sim/when_all.h"
#include "storage/byte_store.h"
#include "vm/vm_instance.h"

namespace blobcr::core {

struct QcowSnapshotResult {
  std::string pvfs_path;
  std::uint64_t bytes = 0;  // container bytes shipped
  img::QcowImage::State state;
  sim::Duration vm_downtime = 0;
};

namespace detail {

/// Pipelined copy of the local container file into a fresh PVFS file:
/// 4 MiB windows, two in flight (read window N+1 while window N is on the
/// wire), which is how a streaming cp through a mount behaves. Extent-aware
/// reads preserve the real/phantom content structure of the source.
inline sim::Task<std::uint64_t> copy_container_to_pvfs(
    sim::Simulation& sim, storage::ByteStore& container,
    std::uint64_t container_bytes, pfs::PvfsCluster& pvfs, net::NodeId node,
    const std::string& dest_path) {
  pfs::PvfsClient client(pvfs, node);
  const pfs::FileId dest = co_await client.create(dest_path);
  constexpr std::uint64_t kWindow = 4 * 1024 * 1024;
  std::vector<sim::Task<>> windows;
  for (std::uint64_t off = 0; off < container_bytes; off += kWindow) {
    const std::uint64_t len = std::min(kWindow, container_bytes - off);
    windows.push_back(
        [](storage::ByteStore* src, pfs::PvfsCluster* cluster,
           net::NodeId n, pfs::FileId f, std::uint64_t o,
           std::uint64_t l) -> sim::Task<> {
          storage::ByteStore::Pieces pieces =
              co_await src->read_extents(o, l);
          pfs::PvfsClient c(*cluster, n);
          for (auto& [piece_off, piece] : pieces) {
            co_await c.write(f, piece_off, std::move(piece));
          }
        }(&container, &pvfs, node, dest, off, len));
  }
  co_await sim::run_window(sim, 2, std::move(windows));
  co_return container_bytes;
}

}  // namespace detail

class QcowDiskProxy {
 public:
  /// Caller authentication, charged per request.
  static constexpr sim::Duration kAuthCost = 500 * sim::kMicrosecond;

  QcowDiskProxy(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node)
      : sim_(&sim), fabric_(&fabric), node_(node) {}

  sim::Task<QcowSnapshotResult> request_checkpoint(
      vm::VmInstance& vm, img::QcowImage& image,
      storage::ByteStore& container, pfs::PvfsCluster& pvfs,
      std::string dest_path) {
    co_await fabric_->message(node_, node_);
    co_await sim_->delay(kAuthCost);
    const sim::Time pause_start = sim_->now();
    vm.pause();
    QcowSnapshotResult result;
    result.pvfs_path = dest_path;
    result.bytes = co_await detail::copy_container_to_pvfs(
        *sim_, container, image.container_bytes(), pvfs, node_, dest_path);
    result.state = image.export_state();
    vm.resume();
    result.vm_downtime = sim_->now() - pause_start;
    co_await fabric_->message(node_, node_);
    co_return result;
  }

 private:
  sim::Simulation* sim_;
  net::Fabric* fabric_;
  net::NodeId node_;
};

class QcowFullProxy {
 public:
  /// Caller authentication, charged per request.
  static constexpr sim::Duration kAuthCost = 500 * sim::kMicrosecond;

  QcowFullProxy(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node)
      : sim_(&sim), fabric_(&fabric), node_(node) {}

  /// savevm + copy. When `previous_path` is non-empty the earlier copy is
  /// removed: the latest container subsumes all internal snapshots.
  sim::Task<QcowSnapshotResult> request_checkpoint(
      vm::VmInstance& vm, img::QcowImage& image,
      storage::ByteStore& container, pfs::PvfsCluster& pvfs,
      std::string dest_path, std::string previous_path) {
    co_await sim_->delay(kAuthCost);
    const sim::Time pause_start = sim_->now();
    vm.pause();
    // Full VM state into the image (RAM + devices).
    co_await image.save_vm_state(
        common::Buffer::phantom(vm.ram_state_bytes()));
    QcowSnapshotResult result;
    result.pvfs_path = dest_path;
    result.bytes = co_await detail::copy_container_to_pvfs(
        *sim_, container, image.container_bytes(), pvfs, node_, dest_path);
    result.state = image.export_state();
    if (!previous_path.empty()) {
      pfs::PvfsClient client(pvfs, node_);
      co_await client.remove(previous_path);
    }
    vm.resume();
    result.vm_downtime = sim_->now() - pause_start;
    co_return result;
  }

 private:
  sim::Simulation* sim_;
  net::Fabric* fabric_;
  net::NodeId node_;
};

}  // namespace blobcr::core
