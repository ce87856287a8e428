// MinHeap is the event queue under the whole simulator: it replaced
// std::priority_queue so drain() can move events out and reserve storage.
// The simulation's determinism rests on it popping exactly the same
// sequence the old queue did, so check it against std::priority_queue on
// randomized interleavings of pushes and pops, with (time, seq) keys that
// collide on time the way real events do. The runtime's event queue is a
// SlabHeap (keys sifted, payloads parked in a slab); it must pop exactly
// what a MinHeap of whole events pops.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "olden/support/min_heap.hpp"
#include "olden/support/rng.hpp"

namespace olden {
namespace {

struct Key {
  std::uint64_t time = 0;
  std::uint64_t seq = 0;
  bool operator>(const Key& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
  bool operator==(const Key& o) const {
    return time == o.time && seq == o.seq;
  }
};

TEST(MinHeap, MatchesPriorityQueueOnRandomInterleavings) {
  Rng rng(42);
  MinHeap<Key> mine;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ref;
  std::uint64_t seq = 0;
  for (int step = 0; step < 50000; ++step) {
    const bool push = ref.empty() || rng.next_below(3) != 0;
    if (push) {
      // Few distinct times, so seq ordering under collisions is exercised.
      const Key k{rng.next_below(64), seq++};
      mine.push(k);
      ref.push(k);
    } else {
      ASSERT_FALSE(mine.empty());
      const Key expect = ref.top();
      ref.pop();
      ASSERT_EQ(mine.pop_min(), expect) << "diverged at step " << step;
    }
    ASSERT_EQ(mine.size(), ref.size());
  }
  while (!ref.empty()) {
    const Key expect = ref.top();
    ref.pop();
    ASSERT_EQ(mine.pop_min(), expect);
  }
  EXPECT_TRUE(mine.empty());
}

TEST(MinHeap, ReserveDoesNotDisturbContents) {
  MinHeap<Key> h;
  for (std::uint64_t i = 0; i < 100; ++i) h.push({100 - i, i});
  h.reserve(4096);
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const Key k = h.pop_min();
    EXPECT_GE(k.time, last);
    last = k.time;
  }
}

/// An event-sized payload: the queue must carry every byte, not just the
/// key, through slot reuse.
struct Ev {
  std::uint64_t time = 0;
  std::uint64_t seq = 0;
  std::array<std::uint64_t, 13> body{};
  friend bool operator>(const Ev& a, const Ev& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
  bool operator==(const Ev& o) const = default;
};

TEST(SlabHeap, PopsInMinHeapOrderWithSlotReuse) {
  Rng rng(7);
  SlabHeap<Ev> slab;
  MinHeap<Ev> ref;
  std::uint64_t seq = 0;
  std::uint64_t now = 0;
  std::size_t peak = 0;
  for (int step = 0; step < 60000; ++step) {
    // Phases of net growth and net drain, so the slab fills, empties
    // and refills, and freed slots are reused in a scrambled order.
    const bool growing = (step / 5000) % 2 == 0;
    const bool push = ref.empty() || rng.next_below(4) < (growing ? 3u : 1u);
    if (push) {
      // Times stay at or after the last pop (as in drain()) and collide
      // heavily, so ordering among equal times rests on seq.
      Ev e{now + rng.next_below(8), seq++, {}};
      for (auto& w : e.body) w = rng.next_u64();
      slab.push(e);
      ref.push(e);
    } else {
      const Ev want = ref.pop_min();
      ASSERT_EQ(slab.pop_min(), want) << "diverged at step " << step;
      now = want.time;
    }
    ASSERT_EQ(slab.size(), ref.size());
    peak = std::max(peak, ref.size());
  }
  while (!ref.empty()) ASSERT_EQ(slab.pop_min(), ref.pop_min());
  EXPECT_TRUE(slab.empty());
  EXPECT_GT(peak, 1000u);
}

}  // namespace
}  // namespace olden
