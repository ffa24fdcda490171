// callback.hpp - move-only type-erased `void()` callable for simulator events.
//
// Every simulated message and timer becomes one of these, so it is built to
// cost no allocation: a callable of up to kInlineBytes (and at most max_align_t
// alignment, nothrow-movable) lives inside the Callback itself. Larger ones
// fall back to one heap allocation, as std::function does for anything above
// its 16 bytes.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lmon::sim {

class Callback {
 public:
  /// Inline capacity. Sized for the simulator's hot closures: a channel
  /// arrival (channel ref, pid, message) or an ICCL frame handler wrapped by
  /// Process::post. Anything larger still works, through the heap.
  static constexpr std::size_t kInlineBytes = 112;

  Callback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callback(F&& fn) {  // NOLINT: implicit, like std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

  /// Destroys the held callable (if any), leaving the Callback empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// True when a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the callable at `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  /// The object of type T placement-constructed at `storage`.
  template <typename T>
  static T& object(void* storage) noexcept {
    return *std::launder(static_cast<T*>(storage));
  }

  template <typename F>
  static constexpr Ops kInlineOps{
      [](void* self) { object<F>(self)(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) F(std::move(object<F>(src)));
        object<F>(src).~F();
      },
      [](void* self) noexcept { object<F>(self).~F(); }};

  template <typename F>
  static constexpr Ops kHeapOps{
      [](void* self) { (*object<F*>(self))(); },
      [](void* dst, void* src) noexcept { ::new (dst) F*(object<F*>(src)); },
      [](void* self) noexcept { delete object<F*>(self); }};

  void take(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = std::exchange(other.ops_, nullptr);
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace lmon::sim
