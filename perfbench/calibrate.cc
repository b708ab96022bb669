// Fixed calibration kernel: the host-speed yardstick that wall_s and setup_s
// are normalised by (see harness.h).
//
// The kernel does the same kinds of work as the simulator's hot paths, in
// fixed amounts and from fixed pseudo-random inputs: ordered-map churn
// (event and state tables), hash-map lookups (page tables, TLBs), small
// heap buffers filled by memcpy (packets), and a priority queue of
// std::function callbacks (the event queue). It uses only the standard
// library, so a change to the simulator never changes it. On a shared host
// other tenants slow both the kernel and the workload at once; the ratio of
// the two moves far less than either.

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {
namespace {

uint64_t Next(uint64_t* x) {
  *x = *x * 6364136223846793005ull + 1442695040888963407ull;
  return *x >> 16;
}

uint64_t OrderedMapChurn(uint64_t* x) {
  std::map<uint64_t, uint64_t> m;
  for (uint64_t i = 0; i < 40000; ++i) {
    m[Next(x) >> 28] += i;
    if (m.size() > 4096) {
      m.erase(m.begin());
    }
  }
  return m.size();
}

uint64_t HashLookups(uint64_t* x) {
  constexpr uint64_t kPages = 1 << 16;
  std::unordered_map<uint64_t, uint64_t> pages;
  for (uint64_t p = 0; p < kPages; ++p) {
    pages[p << 12] = p;
  }
  uint64_t acc = 0;
  for (int i = 0; i < 300000; ++i) {
    acc += pages.find((Next(x) % kPages) << 12)->second;
  }
  return acc;
}

uint64_t PacketCopies(uint64_t* x) {
  constexpr size_t kPacket = 4096;
  static const std::vector<char> src(1024 * kPacket, 'c');
  std::vector<std::unique_ptr<char[]>> live(64);
  uint64_t acc = 0;
  for (int i = 0; i < 6000; ++i) {
    const uint64_t r = Next(x);
    std::unique_ptr<char[]>& slot = live[r % live.size()];
    slot = std::make_unique<char[]>(kPacket);
    std::memcpy(slot.get(), src.data() + (r >> 8) % 1024 * kPacket, kPacket);
    acc += static_cast<uint8_t>(slot[r % kPacket]);
  }
  return acc;
}

uint64_t EventQueue(uint64_t* x) {
  struct Event {
    uint64_t at;
    std::function<void()> fire;
    bool operator<(const Event& o) const { return at > o.at; }
  };
  std::priority_queue<Event> q;
  uint64_t acc = 0;
  for (int i = 0; i < 60000; ++i) {
    const uint64_t r = Next(x);
    q.push({r, [&acc, r] { acc += r & 1; }});
    if (q.size() > 2048) {
      q.top().fire();
      q.pop();
    }
  }
  return acc + q.size();
}

}  // namespace

double CalibrationSeconds() {
  static volatile uint64_t sink = 0;
  uint64_t x = 1;
  const double start = Now();
  sink = sink + OrderedMapChurn(&x) + HashLookups(&x) + PacketCopies(&x) + EventQueue(&x);
  return Now() - start;
}

}  // namespace perfbench
