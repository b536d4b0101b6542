// CheckpointProxy: the per-node service that accepts checkpoint requests
// from VM instances hosted on the same compute node (paper §3.2). It
// authenticates the caller, suspends the VM, drives the CLONE/COMMIT ioctls
// of the mirroring module, resumes the VM and reports the result. The proxy
// is deliberately not reachable from other nodes.
#pragma once

#include "core/mirror_device.h"
#include "net/fabric.h"
#include "sim/sim.h"
#include "vm/vm_instance.h"

namespace blobcr::core {

class CheckpointProxy {
 public:
  struct Result {
    blob::BlobId image = 0;
    blob::VersionId version = 0;
    std::uint64_t payload_bytes = 0;  // chunk payload committed
    sim::Duration vm_downtime = 0;
  };

  /// Caller authentication, charged per request.
  static constexpr sim::Duration kAuthCost = 500 * sim::kMicrosecond;

  CheckpointProxy(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node)
      : sim_(&sim), fabric_(&fabric), node_(node) {}

  net::NodeId node() const { return node_; }

  /// Serves one checkpoint request from a VM hosted on this node.
  sim::Task<Result> request_checkpoint(vm::VmInstance& vm,
                                       MirrorDevice& dev) {
    if (vm.host() != node_)
      throw std::runtime_error("proxy rejects non-local VM");
    // Guest -> proxy over the node-local (loopback) connection.
    co_await fabric_->message(node_, node_);
    co_await sim_->delay(kAuthCost);

    const sim::Time pause_start = sim_->now();
    vm.pause();
    Result result;
    bool failed = false;
    std::exception_ptr error;
    try {
      result.image = co_await dev.ioctl_clone();
      result.version = co_await dev.ioctl_commit();
      result.payload_bytes = dev.last_commit_payload();
    } catch (...) {
      failed = true;
      error = std::current_exception();
    }
    // The VM is resumed no matter whether the checkpoint succeeded (§3.3).
    vm.resume();
    result.vm_downtime = sim_->now() - pause_start;
    ++requests_;
    if (failed) std::rethrow_exception(error);
    // Result notification back to the guest.
    co_await fabric_->message(node_, node_);
    co_return result;
  }

  std::uint64_t requests_served() const { return requests_; }

 private:
  sim::Simulation* sim_;
  net::Fabric* fabric_;
  net::NodeId node_;
  std::uint64_t requests_ = 0;
};

}  // namespace blobcr::core
