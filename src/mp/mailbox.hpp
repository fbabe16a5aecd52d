#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "mp/message.hpp"

namespace pblpar::mp {

/// Internal unwinding signal when the world aborts (a rank threw).
class WorldAborted : public std::exception {
 public:
  const char* what() const noexcept override {
    return "pblpar::mp::WorldAborted: world is shutting down";
  }
};

/// Shared shutdown flag for all mailboxes of a world.
struct AbortState {
  std::atomic<bool> aborted{false};
};

/// One rank's incoming message queue. Senders push; the owning rank pops
/// the first message matching (source, tag), preserving per-(source, tag)
/// FIFO order as MPI requires.
///
/// Single-consumer invariant: only the thread running the owning rank
/// (`owner_rank_`) may call pop_matching / pop_matching_timed. Any rank's
/// thread may push concurrently. Debug builds assert the invariant by
/// remembering the first popping thread.
///
/// Implementation: an intrusive lock-free MPSC queue in Vyukov's style.
/// A sender allocates a node, swings the shared `head_` to it with one
/// atomic exchange (this is the total arrival order), and links the
/// previous head to it with a release store; push never takes a lock.
/// The consumer follows `next` pointers from its private `tail_` (a stub
/// node) and moves messages into `pending_`, a consumer-local list where
/// (source, tag) matching happens — keeping matching out of the shared
/// structure is what preserves per-(source, tag) FIFO order without any
/// consumer-side CAS. Blocking is consumer-only: the condvar and its
/// mutex are touched by a sender only when the consumer has declared
/// itself parked via `consumer_waiting_` (Dekker-style seq_cst
/// store/load), so the message fast path stays lock-free.
class Mailbox {
 public:
  Mailbox(AbortState& abort, double timeout_s, int owner_rank = -1);
  ~Mailbox();
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deliver a message (called by the sending rank's thread). Lock-free.
  void push(RawMessage message);

  /// Block until a message matching (source, tag) is available and return
  /// it. Pass kAnySource / kAnyTag (-1) as wildcards. Throws
  /// MpDeadlockError on timeout and WorldAborted when the world aborts.
  RawMessage pop_matching(int source, int tag);

  /// Like pop_matching but with a caller-supplied timeout: returns true
  /// and fills *out when a match arrives within `timeout_s`, false on
  /// timeout (no exception). Still throws WorldAborted on abort. A zero
  /// or negative timeout is a non-blocking poll; a timeout of ~3 years or
  /// more (including +infinity) waits forever; NaN is rejected loudly.
  bool pop_matching_timed(int source, int tag, double timeout_s,
                          RawMessage* out);

  /// Wake a blocked pop (used on abort, after AbortState::aborted is set).
  void interrupt();

 private:
  /// One queued message. `next` is null until the sender links it —
  /// a consumer seeing head_ != tail_ with a null next is observing the
  /// sender's two-instruction push window and spins it out.
  struct Node {
    std::atomic<Node*> next{nullptr};
    RawMessage message;
  };

  bool pop_impl(int source, int tag, double timeout_s, RawMessage* out,
                bool throw_on_timeout);
  /// Move the messages pushed before the call into pending_ (consumer
  /// only); later pushes wait for the next drain.
  void drain_to_pending();
  /// Pop the earliest pending message matching (source, tag).
  bool take_pending(int source, int tag, RawMessage* out);
  /// True when at least one push has landed since the last full drain.
  bool queue_nonempty() const;
  void assert_single_consumer();
  [[noreturn]] void throw_deadlock(int source, int tag, double timeout_s);

  AbortState* abort_;
  double timeout_s_;
  int owner_rank_;

  std::atomic<Node*> head_;  // most recently pushed node (shared)
  Node* tail_;               // consumer-private; stub/last-consumed node

  /// Drained-but-unmatched messages in arrival order (consumer-private).
  std::deque<RawMessage> pending_;

  /// Consumer parking. consumer_waiting_ is the Dekker flag: a sender
  /// takes park_mu_/park_cv_ only when it reads the flag as true, so an
  /// unblocked consumer costs senders one seq_cst load, not a lock.
  std::atomic<bool> consumer_waiting_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;

#ifndef NDEBUG
  /// First thread that popped; all later pops must be the same thread.
  std::atomic<std::thread::id> consumer_id_{};
#endif
};

}  // namespace pblpar::mp
