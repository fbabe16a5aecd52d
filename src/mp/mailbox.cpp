#include "mp/mailbox.hpp"

#include <cassert>
#include <chrono>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace pblpar::mp {

namespace {

constexpr int kAnyValue = -1;

/// Timeouts at or beyond this (about 3 years, and +infinity) mean "wait
/// forever": the pop blocks on an untimed wait instead of computing a
/// deadline. The old code fed any timeout through
/// duration_cast<nanoseconds>(duration<double>), which overflows the
/// 64-bit nanosecond rep around 292 years — signed-overflow UB and a
/// deadline in the past, so a huge timeout returned instantly instead of
/// waiting. Below the threshold the nanosecond product is at most ~1e17,
/// comfortably inside the rep.
constexpr double kWaitForeverSeconds = 1e8;

/// Yields a blocked consumer spends watching the queue before parking on
/// the condvar. Sized like the rt pool's spin phases: a ping-pong pair on
/// a busy host hands messages over entirely in user space, and a yielding
/// spinner cedes its core to the sender it is waiting on.
constexpr int kMailboxSpins = 1024;

bool matches(const RawMessage& message, int source, int tag) {
  return (source == kAnyValue || message.source == source) &&
         (tag == kAnyValue || message.tag == tag);
}

void describe_endpoint(std::ostream& os, const char* label, int value) {
  if (value == kAnyValue) {
    os << label << "=ANY";
  } else {
    os << label << "=" << value;
  }
}

}  // namespace

Mailbox::Mailbox(AbortState& abort, double timeout_s, int owner_rank)
    : abort_(&abort), timeout_s_(timeout_s), owner_rank_(owner_rank) {
  // Vyukov stub: head_ and tail_ start on the same empty node, so push
  // never special-cases an empty queue and the consumer always has a
  // node to follow `next` from.
  Node* stub = new Node;
  head_.store(stub, std::memory_order_relaxed);
  tail_ = stub;
}

Mailbox::~Mailbox() {
  // All ranks have joined by the time a mailbox dies (the world joins its
  // threads before destroying state), so the chain is quiescent.
  Node* node = tail_;
  while (node != nullptr) {
    Node* next = node->next.load(std::memory_order_relaxed);
    delete node;
    node = next;
  }
}

void Mailbox::push(RawMessage message) {
  Node* node = new Node;
  node->message = std::move(message);
  // The exchange is the serialization point: it fixes this message's slot
  // in the arrival order and hands us the unique predecessor to link
  // from. seq_cst (not just acq_rel) so it is ordered against the
  // consumer_waiting_ store/load protocol below.
  Node* prev = head_.exchange(node, std::memory_order_seq_cst);
  // Publish the node to the consumer. Between the exchange and this store
  // the list is momentarily split; the consumer detects that window
  // (head_ moved but next still null) and spins it out.
  prev->next.store(node, std::memory_order_release);
  // Dekker-style wakeup handshake, both sides seq_cst: either this load
  // sees the consumer's waiting flag (we notify), or the consumer's
  // queue_nonempty() check — which follows its flag store — sees our
  // exchange (it never parks). The empty lock section serializes with
  // the consumer's predicate evaluation under park_mu_, so the notify
  // cannot slip between its last check and its sleep. Single consumer
  // (documented invariant), hence notify_one, not notify_all: there is
  // exactly one waiter to wake, and waking it once is enough.
  if (consumer_waiting_.load(std::memory_order_seq_cst)) {
    { std::lock_guard guard(park_mu_); }
    park_cv_.notify_one();
  }
}

bool Mailbox::queue_nonempty() const {
  // head_ still pointing at the last node the consumer drained (tail_)
  // means nothing new arrived. tail_ is consumer-private, but reading it
  // here is safe for any thread: the pointer value only changes under the
  // consumer's own feet, and this method is only meaningful to the
  // consumer and its waker protocol.
  return head_.load(std::memory_order_seq_cst) != tail_;
}

void Mailbox::drain_to_pending() {
  // Drain only up to the newest node published when the drain started.
  // An unbounded drain never returns while senders refill the queue
  // faster than it empties, and then pop_impl never re-checks abort or
  // its deadline. Every node up to `last` has already been exchanged in,
  // so the walk below reaches it.
  Node* const last = head_.load(std::memory_order_acquire);
  while (tail_ != last) {
    Node* next = tail_->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      // A sender is between its head_ exchange and its next link — two
      // instructions of its timeline. Yield (it may need our core) and
      // re-read.
      std::this_thread::yield();
      continue;
    }
    pending_.push_back(std::move(next->message));
    delete tail_;
    tail_ = next;  // next's message is moved out; it is the new stub
  }
}

bool Mailbox::take_pending(int source, int tag, RawMessage* out) {
  // pending_ is in arrival order (the exchange order of the pushes), so
  // the first match is the earliest — per-(source, tag) FIFO, as MPI
  // requires. Wildcards fall out of the same scan.
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (matches(*it, source, tag)) {
      *out = std::move(*it);
      pending_.erase(it);
      return true;
    }
  }
  return false;
}

void Mailbox::assert_single_consumer() {
#ifndef NDEBUG
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id expected{};
  if (!consumer_id_.compare_exchange_strong(expected, self,
                                            std::memory_order_relaxed)) {
    // expected now holds the recorded consumer. Only the thread running
    // owner_rank_ may pop: the MPSC queue and pending_ are single-
    // consumer by construction.
    assert(expected == self &&
           "Mailbox: pop from a thread other than the owning rank's — "
           "single-consumer invariant violated");
  }
#endif
}

void Mailbox::throw_deadlock(int source, int tag, double timeout_s) {
  // Name the blocked endpoint and every pending-but-unmatched message so
  // a mismatched send/recv pair is identifiable from the text.
  std::ostringstream detail;
  detail << "TeachMPI deadlock: rank "
         << (owner_rank_ >= 0 ? std::to_string(owner_rank_)
                              : std::string("?"))
         << " blocked in recv(";
  describe_endpoint(detail, "source", source);
  detail << ", ";
  describe_endpoint(detail, "tag", tag);
  detail << ") for " << timeout_s << "s; " << pending_.size()
         << " unmatched message(s) queued";
  if (!pending_.empty()) {
    detail << ":";
    constexpr std::size_t kMaxListed = 8;
    std::size_t listed = 0;
    for (const RawMessage& pending : pending_) {
      if (listed++ == kMaxListed) {
        detail << " ...";
        break;
      }
      detail << " (source=" << pending.source << ", tag=" << pending.tag
             << ", " << pending.payload.size() << "B)";
    }
  }
  detail << " — likely deadlock or mismatched send/recv";
  throw MpDeadlockError(detail.str());
}

bool Mailbox::pop_impl(int source, int tag, double timeout_s,
                       RawMessage* out, bool throw_on_timeout) {
  assert_single_consumer();
  util::require(!std::isnan(timeout_s),
                "Mailbox: receive timeout must not be NaN");
  const bool poll_only = timeout_s <= 0.0;
  const bool wait_forever = timeout_s >= kWaitForeverSeconds;
  std::chrono::steady_clock::time_point deadline{};
  if (!poll_only && !wait_forever) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(timeout_s));
  }
  const auto expired = [&] {
    return !wait_forever &&
           (poll_only || std::chrono::steady_clock::now() >= deadline);
  };

  for (;;) {
    if (abort_->aborted.load(std::memory_order_acquire)) {
      throw WorldAborted{};
    }
    drain_to_pending();
    if (take_pending(source, tag, out)) {
      return true;
    }
    if (expired()) {
      if (!throw_on_timeout) {
        return false;
      }
      throw_deadlock(source, tag, timeout_s);
    }
    // Nothing matching yet: wait for a push. Spin first — on a busy host
    // the sender is typically a yield away — then park on the condvar.
    bool activity = false;
    for (int spin = 0; spin < kMailboxSpins; ++spin) {
      if (queue_nonempty() ||
          abort_->aborted.load(std::memory_order_acquire)) {
        activity = true;
        break;
      }
      // The deadline check reads the clock; once per 64 yields keeps it
      // off the hot hand-over path (a yield is microseconds anyway, so
      // timeout precision is unaffected).
      if ((spin & 63) == 63 && expired()) {
        break;
      }
      std::this_thread::yield();
    }
    if (activity) {
      continue;
    }
    // Park. The flag must be raised before the predicate's queue check so
    // a sender that missed the flag is guaranteed to have pushed early
    // enough for the check (or an earlier spin probe) to see its message.
    consumer_waiting_.store(true, std::memory_order_seq_cst);
    {
      std::unique_lock lk(park_mu_);
      const auto wakeup = [&] {
        return queue_nonempty() ||
               abort_->aborted.load(std::memory_order_acquire);
      };
      if (wait_forever) {
        park_cv_.wait(lk, wakeup);
      } else {
        park_cv_.wait_until(lk, deadline, wakeup);
      }
    }
    consumer_waiting_.store(false, std::memory_order_seq_cst);
    // Loop re-drains and re-checks abort/deadline whatever woke us.
  }
}

RawMessage Mailbox::pop_matching(int source, int tag) {
  RawMessage out;
  pop_impl(source, tag, timeout_s_, &out, /*throw_on_timeout=*/true);
  return out;
}

bool Mailbox::pop_matching_timed(int source, int tag, double timeout_s,
                                 RawMessage* out) {
  return pop_impl(source, tag, timeout_s, out, /*throw_on_timeout=*/false);
}

void Mailbox::interrupt() {
  // The world sets AbortState::aborted before calling this; the lock
  // section serializes with a parked consumer's predicate evaluation so
  // the wake cannot be lost, exactly like push's handshake.
  { std::lock_guard guard(park_mu_); }
  park_cv_.notify_one();
}

}  // namespace pblpar::mp
