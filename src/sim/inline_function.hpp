#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sf::sim {

/// Move-only `void()` callable with small-buffer optimisation.
///
/// The engine schedules millions of callbacks per run; almost all of them
/// capture a couple of pointers and an id. `std::function` heap-allocates
/// once the capture exceeds its (implementation-defined, often 16-byte)
/// inline buffer, which puts an allocator round-trip on the hottest path of
/// the simulator. InlineFunction stores any nothrow-movable callable of up
/// to kInlineSize bytes directly inside the object and only falls back to
/// the heap for oversized or throwing-move captures.
///
/// Unlike `std::function` it is move-only, so captured state (other
/// InlineFunctions, unique_ptrs) never needs to be copyable.
class InlineFunction {
 public:
  /// Inline capture budget: five pointers — enough for `this` + a handful
  /// of ids/doubles (and for a whole std::function, so wrapping one stays
  /// allocation-free), the common shape of every callback in the engine.
  /// 40 bytes keeps sizeof(InlineFunction) at exactly one cache line.
  static constexpr std::size_t kInlineSize = 40;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFunction(F&& f) {  // NOLINT(runtime/explicit)
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      // Trivially copyable, trivially destructible targets (the norm for
      // engine callbacks: `this` + a couple of ids) need no manager —
      // moves become a memcpy and destruction a no-op.
      if constexpr (!(std::is_trivially_copyable_v<D> &&
                      std::is_trivially_destructible_v<D>)) {
        manage_ = &inline_manage<D>;
      }
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      invoke_ = &heap_invoke<D>;
      manage_ = &heap_manage<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void operator()() {
    assert(invoke_ && "InlineFunction: calling an empty callback");
    invoke_(buf_);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  enum class Op { kMoveTo, kDestroy };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static void inline_invoke(void* buf) {
    (*std::launder(reinterpret_cast<D*>(buf)))();
  }

  template <typename D>
  static void inline_manage(Op op, void* self, void* other) noexcept {
    D* f = std::launder(reinterpret_cast<D*>(self));
    if (op == Op::kMoveTo) ::new (other) D(std::move(*f));
    f->~D();
  }

  template <typename D>
  static void heap_invoke(void* buf) {
    (**std::launder(reinterpret_cast<D**>(buf)))();
  }

  template <typename D>
  static void heap_manage(Op op, void* self, void* other) noexcept {
    D** slot = std::launder(reinterpret_cast<D**>(self));
    if (op == Op::kMoveTo) {
      ::new (other) D*(*slot);
    } else {
      delete *slot;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    if (!other.invoke_) return;
    if (other.manage_ != nullptr) {
      other.manage_(Op::kMoveTo, other.buf_, buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineSize);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() noexcept {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, buf_, nullptr);
      manage_ = nullptr;
    }
    invoke_ = nullptr;
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
  void (*invoke_)(void*) = nullptr;
  void (*manage_)(Op, void*, void*) noexcept = nullptr;
};

static_assert(sizeof(InlineFunction) == 64,
              "InlineFunction should occupy exactly one cache line");

}  // namespace sf::sim
