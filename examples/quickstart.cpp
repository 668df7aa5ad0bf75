// Quickstart: protect one flow's rate guarantee on a FIFO link using only
// buffer management — the core idea of the library in ~60 lines.
//
//   ./quickstart
//
// Sets up a 48 Mb/s link with a 1 MB buffer shared by a well-behaved
// 12 Mb/s flow and a greedy flow blasting at 3x the link rate, assigns
// the Proposition 1 thresholds, and shows that the conformant flow is
// lossless and receives its guaranteed rate.
#include <cstdio>

#include "core/threshold.h"
#include "sched/fifo.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "traffic/sources.h"

int main() {
  using namespace bufq;

  const Rate link_rate = Rate::megabits_per_second(48.0);
  const auto buffer = ByteSize::megabytes(1.0);
  const Rate guaranteed = Rate::megabits_per_second(12.0);

  // 1. Declare the flows' envelopes: flow 0 reserves 12 Mb/s (plus a
  //    one-packet burst allowance for packetization); flow 1 declares the
  //    remaining capacity.
  const std::vector<FlowSpec> specs{
      {guaranteed, ByteSize::bytes(1'000)},
      {link_rate - guaranteed, ByteSize::zero()},
  };

  // 2. Build the data path: threshold manager -> FIFO -> link.
  Simulator sim;
  ThresholdManager manager{buffer, link_rate, specs, ThresholdScaling::kExact};
  FifoScheduler fifo{manager};
  Link link{sim, fifo, link_rate};

  std::printf("thresholds: flow0 = %.1f KB, flow1 = %.1f KB  (B * rho/R + sigma)\n",
              static_cast<double>(manager.threshold(0)) * 1e-3,
              static_cast<double>(manager.threshold(1)) * 1e-3);

  // 3. Instrument deliveries and drops.
  std::int64_t delivered[2] = {0, 0};
  std::int64_t dropped[2] = {0, 0};
  link.set_delivery_handler([&](const Packet& p, Time) {
    delivered[p.flow] += p.size_bytes;
  });
  fifo.set_drop_handler([&](const Packet& p, Time) { dropped[p.flow] += p.size_bytes; });

  // 4. Traffic: a conformant CBR flow against a greedy source.
  CbrSource conformant{sim, link, /*flow=*/0, guaranteed};
  CbrSource adversary{sim, link, /*flow=*/1, link_rate * 3.0};
  conformant.start();
  adversary.start();

  // 5. Run 30 simulated seconds.
  const Time horizon = Time::seconds(30);
  sim.run_until(horizon);

  for (int f = 0; f < 2; ++f) {
    std::printf("flow %d: delivered %6.2f Mb/s, dropped %8.1f KB\n", f,
                static_cast<double>(delivered[f]) * 8.0 / horizon.to_seconds() * 1e-6,
                static_cast<double>(dropped[f]) * 1e-3);
  }
  std::printf("\nflow 0 kept its %.0f Mb/s guarantee with zero loss, on a plain FIFO\n"
              "queue, using only O(1) buffer-admission decisions.\n",
              guaranteed.mbps());
  return dropped[0] == 0 ? 0 : 1;
}
