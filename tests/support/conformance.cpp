#include "support/conformance.h"

#include <cmath>

namespace bufq {

ConformanceMeter::ConformanceMeter(Simulator& sim, PacketSink& downstream, ByteSize depth,
                                   Rate token_rate)
    : sim_{sim}, downstream_{downstream}, bucket_{depth, token_rate} {}

void ConformanceMeter::accept(const Packet& packet) {
  ++packets_seen_;
  const Time now = sim_.now();
  if (bucket_.conforms(packet.size_bytes, now)) {
    bucket_.consume(packet.size_bytes, now);
  } else {
    ++violations_;
    // Drain whatever tokens remain (never going negative) so one early
    // violation does not mark every later packet: the meter counts
    // violation *events*, it does not accumulate debt.
    const double remaining = bucket_.tokens_at(now);
    if (remaining > 0.0) {
      bucket_.consume(static_cast<std::int64_t>(std::floor(remaining)), now);
    }
  }
  downstream_.accept(packet);
}

}  // namespace bufq
