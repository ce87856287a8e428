// Task<T>: an Olden procedure.
//
// Every Olden procedure that can touch the heap is a coroutine returning
// Task<T>. Calling convention mirrors the paper's §3.1:
//
//  * `co_await some_procedure(...)` is a plain call — the callee starts
//    immediately on the caller's processor (symmetric transfer) and returns
//    control the same way, *unless* it migrated during execution, in which
//    case a return-stub migration carries control back to the caller's
//    processor (the frame does not come back).
//  * `co_await futurecall(some_procedure(...))` (see api.hpp) parks the
//    caller's continuation on the work list and runs the body inline; a
//    thread is created only if the body migrates away.
//
// Task frames live on the host heap; only the thread's execution point
// moves between virtual processors, matching "we send only the portion of
// the thread's state necessary for the current procedure". Every
// simulated call makes and frees one, so frames come from a per-host-
// thread recycling pool (detail::FramePool) instead of the general
// allocator.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "olden/runtime/machine.hpp"

namespace olden {

namespace detail {

/// Recycles coroutine frames on one host thread: a free list per 16-byte
/// size class up to kMaxPooledBytes, larger frames straight to the global
/// allocator. After warm-up a simulated call allocates nothing (the same
/// pattern as Machine's FutureCell pool). A pool is only ever touched by
/// its own thread, so `bench_cell --jobs` workers need no locking; a frame
/// freed on another thread than the one that made it simply joins that
/// thread's lists. Each thread's lists are returned to the global
/// allocator when the thread exits.
///
/// Under ASan a pooled frame is poisoned until it is handed out again, so
/// a use of a destroyed-and-recycled frame is still reported.
class FramePool {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kClasses = 64;
  static constexpr std::size_t kMaxPooledBytes = kGranule * kClasses;

  constexpr FramePool() = default;
  ~FramePool() { release(); }
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// The calling host thread's pool.
  static FramePool& local();

  void* allocate(std::size_t n) {
    if (n > kMaxPooledBytes) return ::operator new(n);
    const std::size_t c = class_of(n);
    if (Free* f = heads_[c]) {
      ASAN_UNPOISON_MEMORY_REGION(f, class_bytes(c));
      heads_[c] = f->next;
      return f;
    }
    return ::operator new(class_bytes(c));
  }

  void deallocate(void* p, std::size_t n) noexcept {
    if (n > kMaxPooledBytes) {
      ::operator delete(p, n);
      return;
    }
    const std::size_t c = class_of(n);
    Free* f = ::new (p) Free{heads_[c]};
    heads_[c] = f;
    ASAN_POISON_MEMORY_REGION(f, class_bytes(c));
  }

 private:
  struct Free {
    Free* next;
  };

  /// Frames are never empty, so n >= 1.
  static std::size_t class_of(std::size_t n) { return (n - 1) / kGranule; }
  static std::size_t class_bytes(std::size_t c) { return (c + 1) * kGranule; }

  void release() noexcept {
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (Free* f = heads_[c]) {
        ASAN_UNPOISON_MEMORY_REGION(f, class_bytes(c));
        heads_[c] = f->next;
        ::operator delete(f, class_bytes(c));
      }
    }
  }

  Free* heads_[kClasses] = {};
};

inline thread_local FramePool t_frame_pool;

// Sanitized builds reach the thread_local through a noinline accessor,
// for the reason given at Machine::current().
#if OLDEN_SYMMETRIC_TRANSFER
inline FramePool& FramePool::local() { return t_frame_pool; }
#else
[[gnu::noinline]] inline FramePool& FramePool::local() { return t_frame_pool; }
#endif

/// Holds the co_returned value; the void specialization swaps
/// return_value for return_void (a promise must declare exactly one).
template <class T>
struct PromiseStorage {
  T value{};
  void return_value(T v) { value = std::move(v); }
  T take() { return std::move(value); }
};

template <>
struct PromiseStorage<void> {
  void return_void() {}
  void take() {}
};

}  // namespace detail

template <class T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseStorage<T> {
    std::coroutine_handle<> cont;  ///< caller resumption (null for roots)
    ProcId call_proc = 0;          ///< caller's processor at invocation
    FutureCell* cell = nullptr;    ///< non-null for future bodies

    static void* operator new(std::size_t n) {
      return detail::FramePool::local().allocate(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      detail::FramePool::local().deallocate(p, n);
    }

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        // Symmetric transfer into whatever continues (the local caller or
        // an inlined future continuation), or a noop handle to unwind to
        // the scheduler loop when control goes through the event queue.
        // Either way the host stack stays flat (see machine.hpp).
        promise_type& p = h.promise();
        return Machine::current().on_task_final(p.cont, p.call_proc, p.cell);
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { std::terminate(); }
  };

  using handle_type = std::coroutine_handle<promise_type>;

  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  /// Plain procedure call: start the callee now, resume me when it
  /// returns (possibly via a return-stub migration).
  auto operator co_await() && {
    struct CallAwaiter {
      handle_type h;
      bool await_ready() { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
        Machine& m = Machine::current();
        promise_type& p = h.promise();
        p.cont = caller;
        p.call_proc = m.cur_proc();
        m.charge_call();
        return h;
      }
      T await_resume() { return h.promise().take(); }
    };
    return CallAwaiter{h_};
  }

  /// Transfer frame ownership (futurecall moves it into the cell; roots
  /// move it to the driver).
  handle_type release() { return std::exchange(h_, {}); }
  [[nodiscard]] handle_type handle() const { return h_; }

 private:
  handle_type h_;
};

/// Run `root` as thread 0 on processor 0 and drive the machine to
/// quiescence; returns the program's result.
template <class T>
T run_program(Machine& m, Task<T> root) {
  auto h = root.handle();  // Task keeps ownership; frame alive through drain
  m.post_root(h);
  m.drain();
  return h.promise().take();
}

}  // namespace olden
