// Allocation-free callbacks for the simulator hot path.
//
// Every event the engine retires carries a callable. With std::function the
// common captures on the data path — a shared_ptr to the op, a couple of
// integers, a stream pointer — routinely exceed the implementation's small
// buffer (16-32 bytes on mainstream standard libraries) and force one heap
// allocation per scheduled event, which dominates the schedule/fire cycle at
// the event rates the soak benches run at. InlineCallback is a move-only
// replacement with 48 bytes of inline storage: captures up to that size are
// stored in place and steady-state scheduling never touches the allocator.
// Larger captures (or throwing-move functors) fall back to the heap exactly
// like std::function, so nothing needs to change at call sites.
//
// Used as the callback type of sim::Engine, sim::Link and axi::Stream.
// Anything callable with signature void() converts implicitly, including an
// existing std::function<void()> (which then rides inline, since
// sizeof(std::function) <= 48 everywhere we build).

#ifndef SRC_SIM_CALLBACK_H_
#define SRC_SIM_CALLBACK_H_

#include <cstddef>
#include <new>  // placement new; lint: raw-alloc-ok
#include <type_traits>
#include <utility>

namespace coyote {
namespace sim {

class InlineCallback {
 public:
  // Inline capture budget. Sized for the simulator's common case: a `this`
  // pointer, a shared_ptr control block handle, and a few 64-bit scalars.
  static constexpr size_t kInlineBytes = 48;

  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineCallback> &&
                                        !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace<std::decay_t<F>>(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(&other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(&other);
    }
    return *this;
  }
  InlineCallback& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  // True if this callback's captures spilled to the heap (capture too large
  // or not nothrow-move-constructible). Exposed for tests and the perf bench.
  bool heap_allocated() const noexcept { return ops_ != nullptr && ops_->heap; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct into `dst` from `src` storage, then destroy src's object.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool heap;
    // Trivially copyable + trivially destructible capture: moves are a plain
    // 48-byte memcpy and destruction is a no-op, so the per-event hot path
    // (schedule -> pool slot -> fire) skips the indirect relocate/destroy
    // calls entirely. This is the common case for engine events — a couple
    // of pointers and scalars.
    bool trivial;
  };

  template <typename F>
  static constexpr bool kFitsInline = sizeof(F) <= kInlineBytes &&
                                      alignof(F) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  static const Ops* InlineOps() {
    static constexpr Ops ops = {
        [](void* s) { (*static_cast<F*>(static_cast<void*>(s)))(); },
        [](void* dst, void* src) noexcept {
          F* from = static_cast<F*>(src);
          ::new (dst) F(std::move(*from));  // placement new; lint: raw-alloc-ok
          from->~F();
        },
        [](void* s) noexcept { static_cast<F*>(s)->~F(); },
        /*heap=*/false,
        /*trivial=*/std::is_trivially_copyable_v<F> && std::is_trivially_destructible_v<F>,
    };
    return &ops;
  }

  template <typename F>
  static const Ops* HeapOps() {
    static constexpr Ops ops = {
        [](void* s) { (**static_cast<F**>(s))(); },
        [](void* dst, void* src) noexcept {
          *static_cast<F**>(dst) = *static_cast<F**>(src);
        },
        // InlineCallback is the simulator's allocator shim for callables;
        // ownership never escapes, so raw new/delete is contained here.
        [](void* s) noexcept { delete *static_cast<F**>(s); },  // lint: raw-alloc-ok
        /*heap=*/true,
        /*trivial=*/false,
    };
    return &ops;
  }

  template <typename F, typename Arg>
  void Emplace(Arg&& f) {
    if constexpr (kFitsInline<F>) {
      ::new (static_cast<void*>(storage_)) F(std::forward<Arg>(f));  // lint: raw-alloc-ok
      ops_ = InlineOps<F>();
    } else {
      *reinterpret_cast<F**>(storage_) = new F(std::forward<Arg>(f));  // lint: raw-alloc-ok
      ops_ = HeapOps<F>();
    }
  }

  void MoveFrom(InlineCallback* other) noexcept {
    if (other->ops_ != nullptr) {
      if (other->ops_->trivial) {
        __builtin_memcpy(storage_, other->storage_, kInlineBytes);
      } else {
        other->ops_->relocate(storage_, other->storage_);
      }
      ops_ = other->ops_;
      other->ops_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_CALLBACK_H_
