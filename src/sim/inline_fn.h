// InlineFn<R(Args...)>: the one callback type of the simulator — a move-only, type-erased
// callable tuned for the scheduler hot path. The engine's events, fabric deliveries, queue
// pair and channel handlers, future continuations and service completions all use it.
//
// A general-purpose copyable wrapper costs the hot path twice: callables larger than a tiny
// small-buffer (16 bytes on libstdc++) heap-allocate on every construction, and requiring
// copyability forbids capturing move-only state (a Payload handle, another InlineFn).
// InlineFn instead:
//   * stores callables up to kInlineBytes directly inside the object (no allocation at all
//     for the common `[this]`/small-capture timers), and
//   * parks larger callables in fixed-size blocks recycled through a freelist, so a steady
//     state soak allocates nothing per event no matter the capture size. Callables larger
//     than a pool block (rare) fall back to plain new/delete.
//
// operator() is const and invokes the stored callable as a non-const lvalue, so a stateful
// (`mutable`) lambda and a stateless one are wrapped alike. An InlineFn is empty when
// default-constructed, built from nullptr, reset, or moved from; calling an empty one is
// undefined.
//
// The freelist is per-thread (thread_local), so sharded parallel runs (DESIGN.md §4j) stay
// lock-free: a callback allocated on one shard thread and destroyed on another simply
// migrates its block to the destroyer's freelist.

#ifndef SRC_SIM_INLINE_FN_H_
#define SRC_SIM_INLINE_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace fractos {

namespace internal_inline_fn {

// Freelist of fixed-size overflow blocks. Owned by a function-local singleton so the blocks
// are reachable (and freed) at exit — leak-sanitizer clean.
constexpr size_t kPoolBlockBytes = 256;
constexpr size_t kPoolMaxFree = 4096;  // blocks parked before falling back to delete

struct Pool {
  std::vector<void*> free_blocks;
  ~Pool() {
    for (void* p : free_blocks) {
      ::operator delete(p);
    }
  }
};

inline Pool& pool() {
  static thread_local Pool p;
  return p;
}

inline void* pool_alloc() {
  Pool& p = pool();
  if (!p.free_blocks.empty()) {
    void* block = p.free_blocks.back();
    p.free_blocks.pop_back();
    return block;
  }
  return ::operator new(kPoolBlockBytes);
}

inline void pool_free(void* block) {
  Pool& p = pool();
  if (p.free_blocks.size() < kPoolMaxFree) {
    p.free_blocks.push_back(block);
  } else {
    ::operator delete(block);
  }
}

template <typename D>
constexpr bool fits_pool_block() {
  return kPoolBlockBytes >= sizeof(D) && alignof(D) <= alignof(std::max_align_t);
}

}  // namespace internal_inline_fn

template <typename Sig>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  // Inline capacity. Sized so a capture of a handful of pointers/handles fits without
  // touching the pool; a capture that holds another InlineFn goes to a pool block.
  static constexpr size_t kInlineBytes = 64;

  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor): `cb = nullptr`

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn> &&
                                        !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): callbacks convert implicitly
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      void* block = internal_inline_fn::fits_pool_block<D>()
                        ? internal_inline_fn::pool_alloc()
                        : ::operator new(sizeof(D), std::align_val_t{alignof(D)});
      ::new (block) D(std::forward<F>(f));
      *reinterpret_cast<void**>(storage_) = block;
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { steal(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  R operator()(Args... args) const { return ops_->invoke(storage_, std::forward<Args>(args)...); }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InlineFn& f, std::nullptr_t) { return f.ops_ == nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-constructs dst's storage from src's and destroys the src object. nullptr means
    // "relocatable by memcpy of the whole storage" — true for trivially-copyable inline
    // callables and for all pool/heap-backed ones (their storage is just a pointer), which
    // lets the scheduler shuffle events with a fixed-size memcpy instead of an indirect call.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage);  // nullptr when destruction is a no-op
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }
  template <typename D>
  static constexpr bool memcpy_relocatable() {
    return std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;
  }

  template <typename D>
  static D* inline_obj(void* storage) {
    return std::launder(reinterpret_cast<D*>(storage));
  }
  template <typename D>
  static D* heap_obj(void* storage) {
    return static_cast<D*>(*reinterpret_cast<void**>(storage));
  }

  // static_cast<void> discards the callable's result when R is void.
  template <typename D, D* (*Obj)(void*)>
  static R invoke(void* s, Args&&... args) {
    return static_cast<R>((*Obj(s))(std::forward<Args>(args)...));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      &invoke<D, &inline_obj<D>>,
      memcpy_relocatable<D>() ? nullptr
                              : +[](void* dst, void* src) noexcept {
                                  D* obj = inline_obj<D>(src);
                                  ::new (dst) D(std::move(*obj));
                                  obj->~D();
                                },
      std::is_trivially_destructible_v<D> ? nullptr
                                          : +[](void* s) { inline_obj<D>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      &invoke<D, &heap_obj<D>>,
      nullptr,  // storage holds a pointer: memcpy relocates it
      [](void* s) {
        D* obj = heap_obj<D>(s);
        obj->~D();
        if constexpr (internal_inline_fn::fits_pool_block<D>()) {
          internal_inline_fn::pool_free(*reinterpret_cast<void**>(s));
        } else {
          ::operator delete(*reinterpret_cast<void**>(s), std::align_val_t{alignof(D)});
        }
      },
  };

  void steal(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, kInlineBytes);
      }
      other.ops_ = nullptr;
    }
  }

  // Mutable: a const call still runs the stored callable as a non-const lvalue.
  alignas(std::max_align_t) mutable unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace fractos

#endif  // SRC_SIM_INLINE_FN_H_
