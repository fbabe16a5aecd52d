#pragma once

#include <ucontext.h>

#include <cstddef>

namespace pblpar::sim::detail {

/// Usable stack of every fiber, above its PROT_NONE guard page. It holds
/// the deepest virtual-thread body in the test suite under ASan, whose
/// redzones grow every frame. A body that recurses past it dies with
/// SIGSEGV on the guard page instead of writing into a neighbour's stack.
inline constexpr std::size_t kFiberStackBytes = std::size_t{1} << 20;

/// A user-space execution context on the calling OS thread: the thread's
/// own context (the one that calls switch_to first), or a fiber with its
/// own stack from a process-wide cache.
///
/// A switch swaps the thread's C++ exception state (the caught-exception
/// stack and std::uncaught_exceptions()), so an exception caught or in
/// flight in one fiber stays with that fiber. Under ASan and TSan every
/// switch is annotated, so the sanitizers follow the stack change.
class Fiber {
 public:
  using Entry = void (*)(void* arg);

  /// The calling context itself, so fibers can switch back to it.
  Fiber();

  /// A suspended fiber that runs entry(arg) at its first resume. When
  /// entry returns, the fiber is finished and control goes back to the
  /// context that resumed it last. entry must not throw. Throws
  /// std::bad_alloc when no stack can be mapped, and std::system_error
  /// when the context cannot be made.
  Fiber(Entry entry, void* arg);

  /// Returns the stack to the cache. A fiber must be finished or never
  /// resumed when it is destroyed: a suspended one still holds frames.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Suspend *this, which must be the running context, and run `next`
  /// until it switches back to *this or finishes.
  void switch_to(Fiber& next);

 private:
  /// Mirror of the C++ ABI's per-thread __cxa_eh_globals (libstdc++ and
  /// libc++abi share the layout).
  struct EhGlobals {
    void* caught_exceptions = nullptr;
    unsigned int uncaught_exceptions = 0;
#ifdef __ARM_EABI_UNWINDER__
    void* propagating_exceptions = nullptr;
#endif
  };

  static void trampoline(unsigned int high, unsigned int low);
  void leave_for(Fiber& next, void** fake_stack_save);

  ucontext_t context_{};
  EhGlobals eh_;
  char* mapping_ = nullptr;  // guard page + stack; null for a thread
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  Fiber* resumer_ = nullptr;  // the context that resumed this one last
  // Sanitizer bookkeeping (unused in plain builds): the stack bounds ASan
  // switches to, the fake stack it parks while this context is
  // suspended, and the TSan fiber this context runs as.
  const void* stack_bottom_ = nullptr;
  std::size_t stack_size_ = 0;
  void* fake_stack_ = nullptr;
  void* tsan_fiber_ = nullptr;
};

}  // namespace pblpar::sim::detail
