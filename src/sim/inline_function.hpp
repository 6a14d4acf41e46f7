#pragma once
// Small-buffer-optimized move-only callable, the event-callback type of
// the DES engine.
//
// std::function heap-allocates any callable larger than its tiny SBO
// (16 B on libstdc++), and every NIC/DMA/link/scheduler event callback
// captures at least `this` plus a packet or request (40-60 B) — so the
// simulator used to pay one malloc/free per scheduled event. An
// InlineFunction stores callables up to InlineBytes in-place and only
// falls back to the heap beyond that; the fallback is tracked via
// heap_allocated() so benchmarks and tests can assert the hot-path
// models never take it (bench/engine_perf, tests/test_sim.cpp).
//
// Moves of trivially-copyable callables (the common case: captures of
// pointers, integers, p4::Packet copies) are a memcpy with no manager
// call, which keeps the engine's push_heap/pop_heap shuffles cheap.
// Unlike std::function, callables only need to be MOVABLE, not
// copyable.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace netddt::sim {

template <typename Signature, std::size_t InlineBytes>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;
  /// True when a callable of type Fn is stored in place, without a heap
  /// allocation.
  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= InlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  InlineFunction() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = &invoke_inline<Fn>;
      if constexpr (!(std::is_trivially_copyable_v<Fn> &&
                      std::is_trivially_destructible_v<Fn>)) {
        manage_ = &manage_inline<Fn>;
      }
    } else {
      auto* p = new Fn(std::forward<F>(f));
      std::memcpy(storage_, &p, sizeof(p));
      invoke_ = &invoke_heap<Fn>;
      manage_ = &manage_heap<Fn>;
      heap_ = true;
    }
    size_ = static_cast<std::uint16_t>(
        sizeof(Fn) < 0xffff ? sizeof(Fn) : 0xffff);
  }

  InlineFunction(InlineFunction&& other) noexcept { adopt(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      adopt(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  R operator()(Args... args) {
    assert(invoke_ != nullptr && "calling an empty InlineFunction");
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// True when the callable was too large (or over-aligned) for the
  /// inline buffer and lives on the heap.
  bool heap_allocated() const noexcept { return heap_; }

  /// sizeof the stored callable (0 when empty; fits the padding after
  /// heap_, so tracking it costs no object growth). Feeds the engine's
  /// callback-size histogram (bench/engine_perf).
  std::uint16_t callable_size() const noexcept { return size_; }

  /// Destroy the stored callable and return to the empty state.
  void reset() noexcept {
    if (manage_ != nullptr) manage_(storage_, nullptr, Op::kDestroy);
    invoke_ = nullptr;
    manage_ = nullptr;
    heap_ = false;
    size_ = 0;
  }

 private:
  enum class Op { kDestroy, kRelocate };
  using Invoke = R (*)(void*, Args&&...);
  using Manage = void (*)(void* self, void* dst, Op);

  template <typename Fn>
  static R invoke_inline(void* self, Args&&... args) {
    return (*std::launder(reinterpret_cast<Fn*>(self)))(
        std::forward<Args>(args)...);
  }
  template <typename Fn>
  static R invoke_heap(void* self, Args&&... args) {
    Fn* p;
    std::memcpy(&p, self, sizeof(p));
    return (*p)(std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void manage_inline(void* self, void* dst, Op op) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(self));
    if (op == Op::kRelocate) ::new (dst) Fn(std::move(*f));
    f->~Fn();
  }
  template <typename Fn>
  static void manage_heap(void* self, void* /*dst*/, Op op) {
    // Relocation is a pointer memcpy done by adopt(); only destruction
    // reaches the manager.
    if (op == Op::kDestroy) {
      Fn* p;
      std::memcpy(&p, self, sizeof(p));
      delete p;
    }
  }

  /// Move `other`'s callable into *this (empty beforehand) and leave
  /// `other` empty.
  void adopt(InlineFunction& other) noexcept {
    if (other.invoke_ == nullptr) return;
    if (other.heap_ || other.manage_ == nullptr) {
      // Heap slot (pointer) or trivially-relocatable inline callable.
      std::memcpy(storage_, other.storage_, InlineBytes);
    } else {
      other.manage_(other.storage_, storage_, Op::kRelocate);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    heap_ = other.heap_;
    size_ = other.size_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
    other.heap_ = false;
    other.size_ = 0;
  }

  alignas(std::max_align_t) std::byte storage_[InlineBytes];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;  // null: trivial inline callable (memcpy moves)
  bool heap_ = false;
  std::uint16_t size_ = 0;
};

}  // namespace netddt::sim
