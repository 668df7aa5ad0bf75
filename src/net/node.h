// Multi-node substrate: routers built from the library's schedulers and
// buffer managers, connected by links with propagation delay.
//
// The paper analyzes a single multiplexing point but its setting is a
// backbone path (cf. its reference [4], per-node shaping).  This module
// lets experiments chain hops: a Node forwards each packet, by flow, to
// one of its OutputPorts; a port runs a QueueDiscipline + BufferManager in
// front of a Link whose deliveries are handed — after a propagation
// delay — to the next hop's ingress.
//
// Flow slots: a port's manager and discipline hold state only for the
// flows routed through it, one slot each, so a flow costs a counter and a
// threshold at the ports that carry it and nothing elsewhere.  The node
// maps a global flow id to its (port, slot) pair; the port rewrites
// Packet::flow to the slot on ingress and back to the global id on
// delivery and on drop, so everything outside the port sees global ids.
//
// Composition rule (network calculus, used by tests and the multi_hop
// example): a (sigma, rho)-conformant flow leaving a FIFO hop with buffer
// B and rate R is (sigma + rho * B/R, rho)-conformant, because the hop
// delays any bit by at most B/R.  `output_envelope` computes the inflated
// envelope to provision the next hop with.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/buffer_manager.h"
#include "core/flow_spec.h"
#include "obs/metrics.h"
#include "sim/link.h"
#include "sim/queue_discipline.h"
#include "sim/simulator.h"
#include "util/fifo_ring.h"

namespace bufq {

class CheckpointReader;
class CheckpointWriter;

/// One output interface of a node: buffer manager + queue discipline +
/// transmission link + (optionally) a downstream sink reached after a
/// propagation delay.
class OutputPort {
 public:
  /// The port owns its manager and discipline; `discipline` must already
  /// reference `*manager`.  Both are built over slots: `flows[k]` is the
  /// global id of the flow in slot k, and the ids ascend, so slot order is
  /// flow-id order.  `downstream` may be null (traffic terminates here);
  /// it must outlive the port.
  OutputPort(Simulator& sim, Rate rate, Time propagation_delay,
             std::unique_ptr<BufferManager> manager,
             std::unique_ptr<QueueDiscipline> discipline, PacketSink* downstream,
             std::vector<FlowId> flows);

  OutputPort(const OutputPort&) = delete;
  OutputPort& operator=(const OutputPort&) = delete;

  /// Where upstream hands in a packet of the flow in `slot`: the packet
  /// enters the discipline under the slot id.
  void accept(const Packet& packet, std::uint32_t slot);

  /// The slot of `flow`, or -1 when the port does not carry it.
  [[nodiscard]] std::int64_t slot_of(FlowId flow) const;
  /// The global flow id in each slot.
  [[nodiscard]] std::span<const FlowId> flows() const { return flows_; }

  [[nodiscard]] const Link& link() const { return link_; }
  [[nodiscard]] const BufferManager& manager() const { return *manager_; }

  /// Observer invoked (after the port's drop metrics) for every packet the
  /// discipline refused — the fabric layer hangs end-to-end per-flow loss
  /// accounting here.  Replaces any previous tap; null clears it.
  void set_drop_tap(std::function<void(const Packet&, Time)> tap) {
    drop_tap_ = std::move(tap);
  }

  /// Checkpointable: the propagation wire (each arrival's (time, seq);
  /// restore re-arms the head), then the owned manager, discipline and
  /// link in that order.  `label` keeps section names unique across a
  /// topology ("node.<n>.port.<p>").
  void save_state(CheckpointWriter& w, const std::string& label) const;
  void restore_state(CheckpointReader& r, const std::string& label);

 private:
  /// One packet on the propagation wire, with the (time, seq) reserved
  /// for its arrival, which is filed once the packet reaches the head.
  struct Wire {
    Packet packet;
    Time arrives;
    std::uint64_t seq;
  };

  /// The packet as the rest of the fabric sees it: its slot id turned
  /// back into the global flow id.
  [[nodiscard]] Packet to_global(Packet packet) const;
  /// Files the wire's head arrival under its stored (time, seq).
  void arm_front();
  void deliver_front();

  Simulator& sim_;
  Time propagation_;
  std::unique_ptr<BufferManager> manager_;
  std::unique_ptr<QueueDiscipline> discipline_;
  Link link_;
  PacketSink* downstream_;
  std::vector<FlowId> flows_;  ///< slot -> global flow id, ascending
  /// Packets on the propagation wire, oldest first.  The delay is
  /// constant, so arrivals leave in FIFO order and only the head holds a
  /// calendar event; the rest keep the (time, seq) reserved on transmit
  /// until they reach the head.  The event captures only `this` (inside
  /// the InlineAction buffer) and pops the front.
  FifoRing<Wire> in_flight_;
  std::function<void(const Packet&, Time)> drop_tap_;
  obs::CounterHandle drops_metric_{obs::CounterHandle::lookup("net.drops")};
  obs::CounterHandle drop_bytes_metric_{obs::CounterHandle::lookup("net.drop_bytes")};
  /// Packets currently on propagation wires; the high-water mark sizes the
  /// in-flight population of a topology.
  obs::GaugeHandle wire_metric_{obs::GaugeHandle::lookup("net.wire_packets")};
};

/// A router: forwards packets to output ports by flow id.
class Node final : public PacketSink {
 public:
  explicit Node(std::string name);

  /// Adds a port and returns its index.  The node owns the port.
  std::size_t add_port(std::unique_ptr<OutputPort> port);

  /// Routes `flow` through port `port_index`, into that port's slot for
  /// it; the port must carry `flow`.  A flow without a route is dropped on
  /// arrival (counted in unrouted_packets).
  void route(FlowId flow, std::size_t port_index);

  void accept(const Packet& packet) override;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] OutputPort& port(std::size_t index);
  [[nodiscard]] const OutputPort& port(std::size_t index) const;
  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }
  [[nodiscard]] std::uint64_t unrouted_packets() const { return unrouted_packets_; }
  /// How many flows the node routes.
  [[nodiscard]] std::size_t routed_flows() const { return routed_; }
  /// The port `flow` is routed through, or -1 when the node does not
  /// route it.
  [[nodiscard]] std::int64_t port_of(FlowId flow) const;

  /// Checkpointable: own counters, then every port in index order.
  /// Routes are static topology configuration and are not serialized.
  void save_state(CheckpointWriter& w, std::size_t node_index) const;
  void restore_state(CheckpointReader& r, std::size_t node_index);

 private:
  /// A routed flow's port and its slot there.
  struct Hop {
    FlowId flow{-1};  ///< -1 marks an empty bucket
    std::uint32_t port{0};
    std::uint32_t slot{0};
  };

  /// The bucket `flow` hashes to in a table of `mask + 1` buckets
  /// (Fibonacci hashing).
  [[nodiscard]] static std::size_t bucket(FlowId flow, std::size_t mask);
  [[nodiscard]] const Hop* find(FlowId flow) const;
  /// Places `hop` in `table`, whose size is a power of two and which has
  /// an empty bucket, replacing the flow's previous hop.  Returns whether
  /// the flow is new to the table.
  static bool place(std::vector<Hop>& table, const Hop& hop);

  std::string name_;
  std::vector<std::unique_ptr<OutputPort>> ports_;
  /// The routed flows, open addressing with linear probing: a power-of-
  /// two table at most half full, so a lookup is O(1) expected and the
  /// node's memory follows the flows it carries, not the run's flow count.
  std::vector<Hop> hops_;
  std::size_t mask_{0};  ///< hops_.size() - 1 once the table exists
  std::size_t routed_{0};
  std::uint64_t unrouted_packets_{0};
  obs::CounterHandle unrouted_metric_{obs::CounterHandle::lookup("net.unrouted_packets")};
};

/// Envelope of a (sigma, rho)-conformant flow after it traverses a FIFO
/// hop with total buffer B served at rate R: burst grows by rho * B / R.
[[nodiscard]] FlowSpec output_envelope(const FlowSpec& input, ByteSize hop_buffer,
                                       Rate hop_rate);

}  // namespace bufq
