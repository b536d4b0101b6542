// Fabric: the cluster interconnect. Star topology of nodes behind an ideal
// switch; each node has full-duplex NIC ports (tx and rx) of equal capacity.
//
// Flow model: a transfer src->dst is a fluid flow crossing src's tx port and
// dst's rx port; its instantaneous rate is min(tx_cap / tx_flows,
// rx_cap / rx_flows). Rates are recomputed only for flows touching a port
// whose flow count changed. This count-based fair share reproduces the
// first-order contention behaviour of TCP on a non-blocking GbE switch (the
// paper's testbed) at event-queue cost O(flows per port) per flow change.
#pragma once

#include <cassert>
#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "sim/sim.h"

namespace blobcr::net {

using NodeId = std::uint32_t;

class Fabric {
 public:
  struct Config {
    std::size_t node_count = 0;
    double nic_bandwidth_bps = 117.5e6;     // paper: measured GbE TCP rate
    sim::Duration latency = 100 * sim::kMicrosecond;  // paper: ~0.1 ms
  };

  Fabric(sim::Simulation& sim, const Config& cfg);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Per-transfer shaping: lets a traffic class run with its own one-way
  /// latency and an application-level rate cap on top of the NIC fair
  /// share. The restart data plane uses this to model intra-deployment
  /// peer copies distinctly from repository transfers.
  struct Shape {
    /// Overrides the fabric's default one-way latency when non-zero.
    sim::Duration latency = 0;
    /// Caps this flow's instantaneous rate (bps); 0 = NIC-limited only.
    double rate_cap_bps = 0;
  };

  /// Moves `bytes` from src to dst: one-way latency plus fluid bandwidth
  /// share. Loopback (src == dst) pays latency only. A shaped flow pays
  /// `shape.latency` (when set) and never exceeds `shape.rate_cap_bps` (when
  /// set) even if its NIC fair share is larger. (The default is spelled out
  /// because Shape's member initializers are not usable in a default
  /// argument inside Fabric.)
  sim::Task<> transfer(NodeId src, NodeId dst, std::uint64_t bytes,
                       Shape shape = Shape{0, 0});

  /// Small control message (latency + negligible payload).
  sim::Task<> message(NodeId src, NodeId dst);

  sim::Duration latency() const { return cfg_.latency; }
  std::size_t node_count() const { return ports_tx_.size(); }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::size_t active_flows() const { return active_flows_; }

 private:
  class FlowAwaiter;
  friend class FlowAwaiter;

  struct Port {
    std::list<FlowAwaiter*> flows;
  };

  void on_ports_changed(Port& a, Port& b);
  void settle_and_retime(FlowAwaiter* f);

  sim::Simulation* sim_;
  Config cfg_;
  std::vector<Port> ports_tx_;
  std::vector<Port> ports_rx_;
  std::uint64_t total_bytes_ = 0;
  std::size_t active_flows_ = 0;
  std::uint64_t retime_gen_ = 0;
};

class Fabric::FlowAwaiter : public sim::Blocker {
 public:
  FlowAwaiter(Fabric& f, NodeId src, NodeId dst, std::uint64_t bytes,
              double rate_cap_bps = 0)
      : fab_(&f),
        src_(src),
        dst_(dst),
        remaining_(static_cast<double>(bytes)),
        bytes_(bytes),
        rate_cap_(rate_cap_bps) {}

  bool await_ready() const noexcept { return bytes_ == 0; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
  void cancel() noexcept override;

 private:
  friend class Fabric;

  void complete();
  double fair_rate() const;

  Fabric* fab_;
  NodeId src_;
  NodeId dst_;
  double remaining_;
  std::uint64_t bytes_;
  double rate_cap_ = 0;  // 0 = uncapped
  double rate_ = 0;
  std::uint64_t retime_gen_ = 0;
  sim::Time last_update_ = 0;
  sim::Process* proc_ = nullptr;
  std::coroutine_handle<> h_{};
  std::list<FlowAwaiter*>::iterator tx_it_{};
  std::list<FlowAwaiter*>::iterator rx_it_{};
  sim::TimerHandle done_ev_;
};

}  // namespace blobcr::net
