// CheckpointProxy: the per-node service that accepts checkpoint requests
// from VM instances hosted on the same compute node (paper §3.2). It
// authenticates the caller, suspends the VM, captures its disk, resumes the
// VM and reports the result. The proxy is deliberately not reachable from
// other nodes.
//
// The capture step is the only thing the backends differ in (§4.2):
//  * BlobCR — the CLONE/COMMIT ioctls of the mirroring module;
//  * qcow2-disk — copy the whole local qcow2 container file to PVFS as a new
//    file. No incremental support, so every checkpoint re-ships everything
//    written since boot;
//  * qcow2-full — savevm first (append full RAM + device state into the
//    image), then copy the container. Only the latest copy is kept (qcow2
//    keeps all internal snapshots inside one file).
#pragma once

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mirror_device.h"
#include "img/qcow.h"
#include "net/fabric.h"
#include "pfs/pvfs.h"
#include "sim/sim.h"
#include "sim/when_all.h"
#include "storage/byte_store.h"
#include "vm/vm_instance.h"

namespace blobcr::core {

enum class Backend { BlobCR, Qcow2Disk, Qcow2Full };

class CheckpointProxy {
 public:
  struct Result {
    blob::BlobId image = 0;           // BlobCR: checkpoint image
    blob::VersionId version = 0;      //   and snapshot version
    std::uint64_t payload_bytes = 0;  // chunk payload committed, or the
                                      // container bytes shipped (baselines)
    img::QcowImage::State qcow_state;  // baselines: the copied image's tables
    sim::Duration vm_downtime = 0;
  };

  /// What one request captures: the requesting VM's disk, by backend.
  struct Capture {
    Backend backend = Backend::BlobCR;
    MirrorDevice* mirror = nullptr;           // BlobCR mirroring module
    img::QcowImage* qcow = nullptr;           // baselines: the local image,
    storage::ByteStore* container = nullptr;  // its container file,
    pfs::PvfsCluster* pvfs = nullptr;         // the repository,
    std::string dest_path;                    // the new copy's path
    std::string previous_path;  // qcow2-full: the copy it supersedes
  };

  /// Caller authentication, charged per request.
  static constexpr sim::Duration kAuthCost = 500 * sim::kMicrosecond;

  CheckpointProxy(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node)
      : sim_(&sim), fabric_(&fabric), node_(node) {}

  net::NodeId node() const { return node_; }

  /// Serves one checkpoint request from a VM hosted on this node. The VM is
  /// resumed whether or not the capture succeeded (§3.3); a failed capture
  /// rethrows after the resume.
  sim::Task<Result> request_checkpoint(vm::VmInstance& vm, Capture cap) {
    if (vm.host() != node_)
      throw std::runtime_error("proxy rejects non-local VM");
    // qcow2-full is driven externally, between the driver's barriers, not
    // by a guest: no loopback connection to the guest in either direction.
    const bool from_guest = cap.backend != Backend::Qcow2Full;
    // Guest -> proxy over the node-local (loopback) connection.
    if (from_guest) co_await fabric_->message(node_, node_);
    co_await sim_->delay(kAuthCost);

    const sim::Time pause_start = sim_->now();
    vm.pause();
    Result result;
    std::exception_ptr error;
    try {
      if (cap.backend == Backend::BlobCR) {
        result.image = co_await cap.mirror->ioctl_clone();
        result.version = co_await cap.mirror->ioctl_commit();
        result.payload_bytes = cap.mirror->last_commit_payload();
      } else {
        if (cap.backend == Backend::Qcow2Full) {
          // Full VM state into the image (RAM + devices).
          co_await cap.qcow->save_vm_state(
              common::Buffer::phantom(vm.ram_state_bytes()));
        }
        result.payload_bytes = co_await copy_container(
            *cap.container, cap.qcow->container_bytes(), *cap.pvfs,
            cap.dest_path);
        result.qcow_state = cap.qcow->export_state();
        if (!cap.previous_path.empty()) {
          pfs::PvfsClient client(*cap.pvfs, node_);
          co_await client.remove(cap.previous_path);
        }
      }
    } catch (...) {
      error = std::current_exception();
    }
    vm.resume();
    result.vm_downtime = sim_->now() - pause_start;
    ++requests_;
    if (error) std::rethrow_exception(error);
    // Result notification back to the guest.
    if (from_guest) co_await fabric_->message(node_, node_);
    co_return result;
  }

  std::uint64_t requests_served() const { return requests_; }

 private:
  /// Pipelined copy of the local container file into a fresh PVFS file:
  /// 4 MiB windows, two in flight (read window N+1 while window N is on the
  /// wire), which is how a streaming cp through a mount behaves. Extent-aware
  /// reads preserve the real/phantom content structure of the source.
  sim::Task<std::uint64_t> copy_container(storage::ByteStore& container,
                                          std::uint64_t container_bytes,
                                          pfs::PvfsCluster& pvfs,
                                          const std::string& dest_path) {
    pfs::PvfsClient client(pvfs, node_);
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
          }(&container, &pvfs, node_, dest, off, len));
    }
    co_await sim::run_window(*sim_, 2, std::move(windows));
    co_return container_bytes;
  }

  sim::Simulation* sim_;
  net::Fabric* fabric_;
  net::NodeId node_;
  std::uint64_t requests_ = 0;
};

}  // namespace blobcr::core
