// The unit of work moved through the simulator.  Packets are small value
// types copied by the calendar; nothing in the system holds references to
// them across events.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace bufq {

/// Identifies a flow within one experiment.  Dense small integers so the
/// schedulers and managers can use vectors indexed by flow.
using FlowId = std::int32_t;

struct Packet {
  FlowId flow{0};
  std::int64_t size_bytes{0};
  /// Per-flow sequence number assigned by the source; used by tests to
  /// verify FIFO ordering and loss accounting.
  std::uint64_t seq{0};
  /// Time the source emitted the packet (after any shaping).
  Time created{Time::zero()};
};

/// Anything that consumes packets: a shaper, a link ingress, a stats tap.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void accept(const Packet& packet) = 0;
};

}  // namespace bufq
