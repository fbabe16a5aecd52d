#include "sim/fiber.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <system_error>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define PBLPAR_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define PBLPAR_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PBLPAR_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define PBLPAR_FIBER_TSAN 1
#endif
#endif

#ifdef PBLPAR_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef PBLPAR_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace pblpar::sim::detail {

namespace {

/// Stacks kept for reuse; past this many, a released stack is unmapped.
constexpr std::size_t kMaxCachedStacks = 64;

std::size_t page_bytes() {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

std::size_t mapping_bytes() { return page_bytes() + kFiberStackBytes; }

/// Process-wide cache of fiber stacks. Each mapping is one PROT_NONE
/// guard page followed by kFiberStackBytes of stack. The service lanes
/// run Sim jobs on several host threads at once, so the cache is shared
/// and locked.
class StackCache {
 public:
  static StackCache& instance() {
    // Never destroyed, so a Machine may still run during static teardown.
    static StackCache* const cache = new StackCache;
    return *cache;
  }

  char* take() {
    {
      std::lock_guard guard(mu_);
      if (!free_.empty()) {
        char* mapping = free_.back();
        free_.pop_back();
        return mapping;
      }
    }
    void* mapping =
        mmap(nullptr, mapping_bytes(), PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (mapping == MAP_FAILED) {
      throw std::bad_alloc();
    }
    if (mprotect(mapping, page_bytes(), PROT_NONE) != 0) {
      munmap(mapping, mapping_bytes());
      throw std::bad_alloc();
    }
    return static_cast<char*>(mapping);
  }

  void give(char* mapping) {
    {
      std::lock_guard guard(mu_);
      if (free_.size() < kMaxCachedStacks) {
        free_.push_back(mapping);  // capacity reserved: cannot throw
        return;
      }
    }
    munmap(mapping, mapping_bytes());
  }

 private:
  StackCache() { free_.reserve(kMaxCachedStacks); }

  std::mutex mu_;
  std::vector<char*> free_;
};

void start_switch(void** fake_stack_save, const void* bottom,
                  std::size_t size) {
#ifdef PBLPAR_FIBER_ASAN
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save;
  (void)bottom;
  (void)size;
#endif
}

void finish_switch(void* fake_stack_save, const void** bottom_old,
                   std::size_t* size_old) {
#ifdef PBLPAR_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
  (void)fake_stack_save;
  (void)bottom_old;
  (void)size_old;
#endif
}

}  // namespace

Fiber::Fiber() {
#ifdef PBLPAR_FIBER_TSAN
  tsan_fiber_ = __tsan_get_current_fiber();
#endif
}

Fiber::Fiber(Entry entry, void* arg)
    : mapping_(StackCache::instance().take()), entry_(entry), arg_(arg) {
  char* stack = mapping_ + page_bytes();
  stack_bottom_ = stack;
  stack_size_ = kFiberStackBytes;
#ifdef PBLPAR_FIBER_ASAN
  // A finished fiber never returns from its last frames, so their
  // redzones stay poisoned on a cached stack.
  ASAN_UNPOISON_MEMORY_REGION(stack, kFiberStackBytes);
#endif
  if (getcontext(&context_) != 0) {
    StackCache::instance().give(mapping_);
    throw std::system_error(errno, std::generic_category(), "getcontext");
  }
  context_.uc_stack.ss_sp = stack;
  context_.uc_stack.ss_size = kFiberStackBytes;
  context_.uc_link = nullptr;
  // makecontext passes int arguments, so the pointer travels in halves.
  const auto self =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned int>(self >> 32),
              static_cast<unsigned int>(self));
#ifdef PBLPAR_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  if (mapping_ == nullptr) {
    return;
  }
#ifdef PBLPAR_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  StackCache::instance().give(mapping_);
}

void Fiber::switch_to(Fiber& next) {
  next.resumer_ = this;
  leave_for(next, &fake_stack_);
  swapcontext(&context_, &next.context_);
  // Resumed by a switch back to this context.
  finish_switch(fake_stack_, nullptr, nullptr);
}

void Fiber::leave_for(Fiber& next, void** fake_stack_save) {
  void* globals = abi::__cxa_get_globals();
  std::memcpy(&eh_, globals, sizeof eh_);
  std::memcpy(globals, &next.eh_, sizeof next.eh_);
  start_switch(fake_stack_save, next.stack_bottom_, next.stack_size_);
#ifdef PBLPAR_FIBER_TSAN
  __tsan_switch_to_fiber(next.tsan_fiber_, 0);
#endif
}

void Fiber::trampoline(unsigned int high, unsigned int low) {
  auto* self = reinterpret_cast<Fiber*>(static_cast<std::uintptr_t>(
      (static_cast<std::uint64_t>(high) << 32) | low));
  // First landing on this stack. ASan reports the bounds of the stack we
  // came from, which it needs again to switch back there.
  finish_switch(nullptr, &self->resumer_->stack_bottom_,
                &self->resumer_->stack_size_);
  self->entry_(self->arg_);
  // Finished: leave for good. The null fake-stack save tells ASan to
  // free this fiber's fake stack.
  Fiber& back = *self->resumer_;
  self->leave_for(back, nullptr);
  setcontext(&back.context_);
}

}  // namespace pblpar::sim::detail
