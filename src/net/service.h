// ServiceQueue: models a server daemon that handles requests with a fixed
// CPU cost and bounded concurrency (1 worker = fully serialized, the PVFS
// metadata-server case). Also provides an RPC convenience that combines
// request transfer, server processing and response transfer.
//
// Every request is admitted through one FairGate with `workers` slots. A
// queue built without a tenant registry dispatches FIFO; one built with a
// registry dispatches weighted-fair over its tenant weights, so one
// tenant's backlog cannot starve another tenant's single request. The
// discipline is fixed at construction (qos::AdmissionPlane::fair_registry
// decides it for the repository's queues). Untagged requests run as the
// default tenant.
#pragma once

#include <cstdint>
#include <string>

#include "net/fabric.h"
#include "net/qos.h"
#include "sim/sim.h"

namespace blobcr::net {

class ServiceQueue {
 public:
  ServiceQueue(sim::Simulation& sim, std::string name,
               sim::Duration per_request_cost, std::int64_t workers = 1,
               const TenantRegistry* fair_registry = nullptr)
      : name_(std::move(name)),
        per_request_cost_(per_request_cost),
        sim_(&sim),
        gate_(sim, static_cast<std::size_t>(workers), fair_registry,
              /*fair=*/fair_registry != nullptr) {}

  /// Occupies a worker for the request cost.
  sim::Task<> process() { return process(kDefaultTenant, per_request_cost_); }
  sim::Task<> process(TenantId tenant) {
    return process(tenant, per_request_cost_);
  }

  sim::Task<> process(TenantId tenant, sim::Duration cost) {
    // The RAII permit returns the worker also when the client is
    // fail-stopped mid-request (crash harness, FT injection); a leaked
    // worker would wedge a 1-worker service — the version and provider
    // managers — for every later caller.
    FairGate::Permit permit =
        co_await gate_.enter(tenant, sim::to_seconds(cost));
    (void)permit;
    ++requests_;
    co_await sim_->delay(cost);
  }

  std::uint64_t requests_served() const { return requests_; }
  /// Per-tenant cumulative time spent queued for a worker.
  sim::Duration tenant_wait(TenantId tenant) const {
    return gate_.wait_time(tenant);
  }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  sim::Duration per_request_cost_;
  sim::Simulation* sim_;
  FairGate gate_;
  std::uint64_t requests_ = 0;
};

/// Round-trip RPC: request payload to the server, serialized processing,
/// response payload back.
inline sim::Task<> rpc(Fabric& fabric, ServiceQueue& service, NodeId client,
                       NodeId server, std::uint64_t request_bytes,
                       std::uint64_t response_bytes) {
  co_await fabric.transfer(client, server, request_bytes);
  co_await service.process();
  co_await fabric.transfer(server, client, response_bytes);
}

}  // namespace blobcr::net
