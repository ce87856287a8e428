// The coroutine-frame pool behind Task<T> (detail::FramePool): a freed
// frame is handed to the next frame of its size class and is not given
// back to the global allocator, frames above the largest class bypass the
// lists, worker threads' pools are released when the threads exit (LSan
// holds the sanitized build to that), and under ASan a parked frame stays
// poisoned until it is handed out again.
#include <gtest/gtest.h>

#include <array>
#include <new>
#include <thread>
#include <vector>

#include "olden/olden.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace olden {
namespace {

using detail::FramePool;

Task<std::int64_t> leaf(Machine& m) {
  m.work(1);
  co_return 1;
}

/// A binary recursion of plain calls: 2^depth - 1 frames made and freed,
/// at most `depth` live at once.
Task<std::int64_t> calls(Machine& m, int depth) {
  if (depth == 0) co_return co_await leaf(m);
  const std::int64_t l = co_await calls(m, depth - 1);
  const std::int64_t r = co_await calls(m, depth - 1);
  co_return l + r;
}

/// Keeps a 4 KB array alive across a suspension, so it lives in the
/// frame: larger than FramePool::kMaxPooledBytes.
Task<std::int64_t> big_frame(Machine& m) {
  std::array<std::int64_t, 512> words{};
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = static_cast<std::int64_t>(i);
  }
  const std::int64_t one = co_await leaf(m);
  std::int64_t sum = 0;
  for (const std::int64_t w : words) sum += w;
  co_return sum + one;
}

std::int64_t run_calls(int depth) {
  Machine m({.nprocs = 1});
  m.set_site_mechanisms({});
  return run_program(m, calls(m, depth));
}

TEST(FramePool, FreedBlockServesItsSizeClassNotTheGlobalAllocator) {
  FramePool pool;
  void* p = pool.allocate(48);
  pool.deallocate(p, 48);
  // The block stays parked on the pool: the global allocator, which
  // would hand a just-freed block of this size straight back, cannot.
  void* other = ::operator new(48);
  EXPECT_NE(other, p);
  ::operator delete(other, 48);
  // 40 and 48 bytes share the 33..48-byte class.
  void* q = pool.allocate(40);
  EXPECT_EQ(q, p);
  pool.deallocate(q, 40);
}

TEST(FramePool, FreedFrameIsReusedBySameSizeClass) {
  Machine m({.nprocs = 1});
  void* first = nullptr;
  {
    Task<std::int64_t> t = leaf(m);  // never started: only made and freed
    first = t.handle().address();
  }
  Task<std::int64_t> again = leaf(m);
  EXPECT_EQ(again.handle().address(), first);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FramePool, ParkedFrameIsPoisonedUntilReused) {
  Machine m({.nprocs = 1});
  void* first = nullptr;
  {
    Task<std::int64_t> t = leaf(m);
    first = t.handle().address();
    EXPECT_FALSE(__asan_address_is_poisoned(first));
  }
  // A use of the recycled frame would now be reported.
  EXPECT_TRUE(__asan_address_is_poisoned(first));
  Task<std::int64_t> again = leaf(m);
  ASSERT_EQ(again.handle().address(), first);
  EXPECT_FALSE(__asan_address_is_poisoned(first));
}
#endif

TEST(FramePool, FrameAboveLargestClassRunsAndFrees) {
  Machine m({.nprocs = 1});
  m.set_site_mechanisms({});
  EXPECT_EQ(run_program(m, big_frame(m)), 511 * 512 / 2 + 1);
  // Made and freed without running: the sized delete goes straight to
  // the global allocator (ASan checks the size matches the allocation).
  { Task<std::int64_t> unstarted = big_frame(m); }
  EXPECT_EQ(run_calls(4), 16);
}

TEST(FramePool, WorkerThreadsRunOnTheirOwnPools) {
  // Worker threads, as in bench_cell --jobs: each fills its own pool and
  // gives every block back when it exits. A leaked list is reported by
  // LSan in the sanitized build; TSan checks the pools share no state.
  std::vector<std::thread> workers;
  std::vector<std::int64_t> sums(3, 0);
  for (std::size_t i = 0; i < sums.size(); ++i) {
    workers.emplace_back([&sums, i] { sums[i] = run_calls(8) + run_calls(8); });
  }
  for (std::thread& w : workers) w.join();
  for (const std::int64_t s : sums) EXPECT_EQ(s, 512);
}

}  // namespace
}  // namespace olden
