#include "net/node.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "sim/checkpoint.h"
#include "util/annotations.h"

namespace bufq {

OutputPort::OutputPort(Simulator& sim, Rate rate, Time propagation_delay,
                       std::unique_ptr<BufferManager> manager,
                       std::unique_ptr<QueueDiscipline> discipline, PacketSink* downstream,
                       std::vector<FlowId> flows)
    : sim_{sim},
      propagation_{propagation_delay},
      manager_{std::move(manager)},
      discipline_{std::move(discipline)},
      downstream_{downstream},
      flows_{std::move(flows)} {
  assert(manager_ != nullptr);
  assert(discipline_ != nullptr);
  assert(propagation_ >= Time::zero());
  assert(std::is_sorted(flows_.begin(), flows_.end()));
  discipline_->set_drop_handler([this](const Packet& p, Time t) {
    drops_metric_.add();
    drop_bytes_metric_.add(static_cast<std::uint64_t>(p.size_bytes));
    if (drop_tap_) drop_tap_(to_global(p), t);
  });
  link_ = std::make_unique<Link>(sim_, *discipline_, rate);
  if (downstream_ != nullptr) {
    link_->set_delivery_handler([this](const Packet& slotted, Time) {
      const Packet p = to_global(slotted);
      if (propagation_ == Time::zero()) {
        downstream_->accept(p);
      } else {
        // Constant delay => FIFO exit order, so only the wire's head is
        // on the calendar; the others wait with their reserved keys.
        const Time arrives = sim_.now() + propagation_;
        wire_metric_.add(1);
        const std::uint64_t seq = sim_.reserve(arrives);
        in_flight_.push_back(Wire{p, arrives, seq});
        if (in_flight_.size() == 1) arm_front();
      }
    });
  }
}

BUFQ_HOT void OutputPort::accept(const Packet& packet, std::uint32_t slot) {
  assert(slot < flows_.size() && flows_[slot] == packet.flow);
  Packet slotted = packet;
  slotted.flow = static_cast<FlowId>(slot);
  link_->accept(slotted);
}

BUFQ_HOT Packet OutputPort::to_global(Packet packet) const {
  assert(packet.flow >= 0 && static_cast<std::size_t>(packet.flow) < flows_.size());
  packet.flow = flows_[static_cast<std::size_t>(packet.flow)];
  return packet;
}

std::int64_t OutputPort::slot_of(FlowId flow) const {
  const auto it = std::lower_bound(flows_.begin(), flows_.end(), flow);
  return it != flows_.end() && *it == flow ? it - flows_.begin() : -1;
}

void OutputPort::arm_front() {
  const Wire& head = in_flight_.front();
  sim_.rearm(head.arrives, head.seq, [this] { deliver_front(); });
}

void OutputPort::deliver_front() {
  const Packet head = in_flight_.front().packet;
  in_flight_.pop_front();
  wire_metric_.add(-1);
  // The next head's key is larger than this one and is filed before any
  // other event pops, so the calendar pops the same (time, seq) order as
  // if every wire packet had been filed on transmit.
  if (!in_flight_.empty()) arm_front();
  downstream_->accept(head);
}

void OutputPort::save_state(CheckpointWriter& w, const std::string& label) const {
  w.begin_section(label);
  w.write_u64(in_flight_.size());
  for (const Wire& wire : in_flight_) {
    save_packet(w, wire.packet);
    w.write_time(wire.arrives);
    w.write_u64(wire.seq);
  }
  w.end_section();
  manager_->save_state(w);
  discipline_->save_state(w);
  link_->save_state(w);
}

void OutputPort::restore_state(CheckpointReader& r, const std::string& label) {
  r.begin_section(label);
  in_flight_.clear();
  const std::uint64_t count = r.read_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Packet p = load_packet(r);
    const Time arrives = r.read_time();
    const std::uint64_t seq = r.read_u64();
    in_flight_.push_back(Wire{p, arrives, seq});
  }
  if (!in_flight_.empty()) arm_front();
  r.end_section();
  manager_->restore_state(r);
  discipline_->restore_state(r);
  link_->restore_state(r);
}

Node::Node(std::string name) : name_{std::move(name)} {}

std::size_t Node::add_port(std::unique_ptr<OutputPort> port) {
  assert(port != nullptr);
  ports_.push_back(std::move(port));
  return ports_.size() - 1;
}

void Node::route(FlowId flow, std::size_t port_index) {
  assert(flow >= 0);
  assert(port_index < ports_.size());
  const std::int64_t slot = ports_[port_index]->slot_of(flow);
  assert(slot >= 0 && "the port has no slot for the flow");
  // Keep the table at most half full.
  if (2 * (routed_ + 1) > hops_.size()) {
    std::vector<Hop> grown(std::max<std::size_t>(8, 2 * hops_.size()));
    for (const Hop& hop : hops_) {
      if (hop.flow >= 0) place(grown, hop);
    }
    hops_ = std::move(grown);
    mask_ = hops_.size() - 1;
  }
  if (place(hops_, Hop{flow, static_cast<std::uint32_t>(port_index),
                       static_cast<std::uint32_t>(slot)})) {
    ++routed_;
  }
}

BUFQ_HOT std::size_t Node::bucket(FlowId flow, std::size_t mask) {
  const std::uint64_t h = static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow)) *
                          0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h >> 32) & mask;
}

bool Node::place(std::vector<Hop>& table, const Hop& hop) {
  const std::size_t mask = table.size() - 1;
  for (std::size_t i = bucket(hop.flow, mask);; i = (i + 1) & mask) {
    if (table[i].flow == hop.flow || table[i].flow < 0) {
      const bool fresh = table[i].flow < 0;
      table[i] = hop;
      return fresh;
    }
  }
}

BUFQ_HOT const Node::Hop* Node::find(FlowId flow) const {
  if (hops_.empty() || flow < 0) return nullptr;
  for (std::size_t i = bucket(flow, mask_);; i = (i + 1) & mask_) {
    if (hops_[i].flow == flow) return &hops_[i];
    if (hops_[i].flow < 0) return nullptr;
  }
}

std::int64_t Node::port_of(FlowId flow) const {
  const Hop* hop = find(flow);
  return hop == nullptr ? -1 : static_cast<std::int64_t>(hop->port);
}

BUFQ_HOT void Node::accept(const Packet& packet) {
  const Hop* hop = find(packet.flow);
  if (hop == nullptr) {
    ++unrouted_packets_;
    unrouted_metric_.add();
    return;
  }
  ports_[hop->port]->accept(packet, hop->slot);
}

OutputPort& Node::port(std::size_t index) {
  assert(index < ports_.size());
  return *ports_[index];
}

const OutputPort& Node::port(std::size_t index) const {
  assert(index < ports_.size());
  return *ports_[index];
}

void Node::save_state(CheckpointWriter& w, std::size_t node_index) const {
  const std::string prefix = "node." + std::to_string(node_index);
  w.begin_section(prefix);
  w.write_u64(unrouted_packets_);
  w.end_section();
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    ports_[p]->save_state(w, prefix + ".port." + std::to_string(p));
  }
}

void Node::restore_state(CheckpointReader& r, std::size_t node_index) {
  const std::string prefix = "node." + std::to_string(node_index);
  r.begin_section(prefix);
  unrouted_packets_ = r.read_u64();
  r.end_section();
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    ports_[p]->restore_state(r, prefix + ".port." + std::to_string(p));
  }
}

FlowSpec output_envelope(const FlowSpec& input, ByteSize hop_buffer, Rate hop_rate) {
  assert(hop_rate.bps() > 0.0);
  const double delay_bound_s =
      static_cast<double>(hop_buffer.count()) / hop_rate.bytes_per_second();
  const auto growth = static_cast<std::int64_t>(
      std::llround(input.rho.bytes_per_second() * delay_bound_s));
  return FlowSpec{input.rho, input.sigma + ByteSize::bytes(growth)};
}

}  // namespace bufq
