// The lock-free MPSC mailbox: the timeout-overflow regression (huge and
// infinite timeouts must block, not return instantly), NaN rejection,
// poll semantics, per-(source, tag) FIFO order under concurrent senders
// with wildcard and exact matches interleaved, abort mid-wait (also
// while senders flood the queue), and an exactly-once delivery stress.

#include "mp/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "mp/comm.hpp"
#include "mp/message.hpp"
#include "util/error.hpp"

namespace pblpar::mp {
namespace {

RawMessage make_message(int source, int tag, int seq) {
  RawMessage message;
  message.source = source;
  message.tag = tag;
  message.type_hash = type_hash_of<int>();
  message.payload = Codec<int>::encode(seq);
  return message;
}

int seq_of(const RawMessage& message) {
  return Codec<int>::decode(message.payload);
}

// --- Timeout handling (the overflow regression) -----------------------

/// The old deadline computation overflowed the nanosecond rep for huge
/// timeouts — UB, a deadline in the past, and an instant (wrong) timeout.
/// A huge timeout must behave like "wait forever": block until the
/// delayed message arrives and return it.
TEST(MailboxTimeoutTest, HugeTimeoutBlocksUntilAMessageArrives) {
  AbortState abort;
  Mailbox box(abort, 2.0, 0);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    box.push(make_message(1, 7, 42));
  });
  RawMessage out;
  EXPECT_TRUE(box.pop_matching_timed(1, 7, 1e9, &out));
  EXPECT_EQ(seq_of(out), 42);
  sender.join();
}

TEST(MailboxTimeoutTest, InfiniteTimeoutBlocksUntilAMessageArrives) {
  AbortState abort;
  Mailbox box(abort, 2.0, 0);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    box.push(make_message(2, 3, 7));
  });
  RawMessage out;
  EXPECT_TRUE(box.pop_matching_timed(
      kAnySource, kAnyTag, std::numeric_limits<double>::infinity(), &out));
  EXPECT_EQ(seq_of(out), 7);
  sender.join();
}

TEST(MailboxTimeoutTest, NanTimeoutIsRejectedLoudly) {
  AbortState abort;
  Mailbox box(abort, 2.0, 0);
  RawMessage out;
  EXPECT_THROW(box.pop_matching_timed(
                   kAnySource, kAnyTag,
                   std::numeric_limits<double>::quiet_NaN(), &out),
               util::PreconditionError);
}

TEST(MailboxTimeoutTest, ZeroAndNegativeTimeoutsArePolls) {
  AbortState abort;
  Mailbox box(abort, 2.0, 0);
  box.push(make_message(0, 5, 1));
  RawMessage out;
  // No match for tag 9: both polls return immediately, empty-handed.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.pop_matching_timed(0, 9, 0.0, &out));
  EXPECT_FALSE(box.pop_matching_timed(0, 9, -1.0, &out));
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_s, 1.0);
  // The queued message is still there for a matching poll.
  EXPECT_TRUE(box.pop_matching_timed(0, 5, 0.0, &out));
  EXPECT_EQ(seq_of(out), 1);
}

TEST(MailboxTimeoutTest, ShortTimeoutStillTimesOut) {
  AbortState abort;
  Mailbox box(abort, 2.0, 0);
  RawMessage out;
  EXPECT_FALSE(box.pop_matching_timed(kAnySource, kAnyTag, 0.05, &out));
}

TEST(MailboxTimeoutTest, PopMatchingTimeoutNamesPendingMessages) {
  AbortState abort;
  Mailbox box(abort, 0.05, 3);
  box.push(make_message(1, 8, 0));
  try {
    box.pop_matching(1, 9);
    FAIL() << "expected MpDeadlockError";
  } catch (const MpDeadlockError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("rank 3"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=9"), std::string::npos) << what;
    EXPECT_NE(what.find("(source=1, tag=8"), std::string::npos) << what;
  }
}

// --- FIFO and exactly-once under concurrency --------------------------

/// Four concurrent senders, two tags each, while the consumer interleaves
/// wildcard receives with exact (source, tag) receives. Whatever the
/// interleaving, messages of one (source, tag) pair must arrive in send
/// order — MPI's non-overtaking guarantee.
TEST(MailboxFifoTest, PerSourceTagOrderSurvivesWildcardInterleaving) {
  constexpr int kSenders = 4;
  constexpr int kTags = 2;
  constexpr int kEach = 200;  // messages per (source, tag) pair
  AbortState abort;
  Mailbox box(abort, 10.0, 0);

  std::vector<std::thread> senders;
  for (int source = 0; source < kSenders; ++source) {
    senders.emplace_back([&, source] {
      // Tags interleaved within one sender: seq s fixes the per-pair
      // send order the consumer must observe.
      for (int seq = 0; seq < kEach; ++seq) {
        for (int tag = 0; tag < kTags; ++tag) {
          box.push(make_message(source, tag, seq));
        }
      }
    });
  }

  std::map<std::pair<int, int>, int> next_seq;       // expected per pair
  std::map<std::pair<int, int>, int> remaining;      // not yet received
  for (int source = 0; source < kSenders; ++source) {
    for (int tag = 0; tag < kTags; ++tag) {
      next_seq[{source, tag}] = 0;
      remaining[{source, tag}] = kEach;
    }
  }
  const int total = kSenders * kTags * kEach;
  for (int i = 0; i < total; ++i) {
    RawMessage got;
    if (i % 2 == 0) {
      got = box.pop_matching(kAnySource, kAnyTag);
    } else {
      // Exact receive from some pair that still has messages in flight;
      // rotate so every pair gets exact-matched eventually.
      std::pair<int, int> target{-1, -1};
      for (const auto& [pair, left] : remaining) {
        if (left > 0) {
          target = pair;
          break;
        }
      }
      ASSERT_NE(target.first, -1);
      got = box.pop_matching(target.first, target.second);
      EXPECT_EQ(got.source, target.first);
      EXPECT_EQ(got.tag, target.second);
    }
    const std::pair<int, int> pair{got.source, got.tag};
    ASSERT_GT(remaining[pair], 0);
    --remaining[pair];
    // The FIFO check: each pair's stream arrives in exactly send order.
    ASSERT_EQ(seq_of(got), next_seq[pair])
        << "out-of-order delivery for (source=" << got.source
        << ", tag=" << got.tag << ")";
    ++next_seq[pair];
  }
  for (std::thread& sender : senders) {
    sender.join();
  }
  // Nothing left: a poll comes back empty.
  RawMessage leftover;
  EXPECT_FALSE(
      box.pop_matching_timed(kAnySource, kAnyTag, 0.0, &leftover));
}

/// Eight concurrent senders, distinct payloads; every message is
/// delivered exactly once, none lost, none duplicated.
TEST(MailboxStressTest, ConcurrentSendersDeliverExactlyOnce) {
  constexpr int kSenders = 8;
  constexpr int kEach = 500;
  AbortState abort;
  Mailbox box(abort, 10.0, 0);
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (int i = 0; i < kEach; ++i) {
        box.push(make_message(s, 1, s * kEach + i));
      }
    });
  }
  std::set<int> seen;
  for (int i = 0; i < kSenders * kEach; ++i) {
    const RawMessage got = box.pop_matching(kAnySource, 1);
    EXPECT_TRUE(seen.insert(seq_of(got)).second)
        << "duplicate delivery of " << seq_of(got);
  }
  for (std::thread& sender : senders) {
    sender.join();
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kSenders * kEach));
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), kSenders * kEach - 1);
}

// --- Abort ------------------------------------------------------------

TEST(MailboxAbortTest, AbortWakesABlockedPop) {
  AbortState abort;
  Mailbox box(abort, 60.0, 0);
  std::atomic<bool> threw{false};
  std::thread consumer([&] {
    RawMessage out;
    try {
      box.pop_matching(kAnySource, kAnyTag);
    } catch (const WorldAborted&) {
      threw.store(true, std::memory_order_release);
    }
    (void)out;
  });
  // Give the consumer a moment to park, then abort — the same order the
  // world uses: flag first, then interrupt.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  abort.aborted.store(true);
  box.interrupt();
  consumer.join();
  EXPECT_TRUE(threw.load(std::memory_order_acquire));
}

TEST(MailboxAbortTest, AbortWinsOverConcurrentSenders) {
  AbortState abort;
  Mailbox box(abort, 60.0, 0);
  std::atomic<bool> stop{false};
  // Senders hammer the queue with non-matching messages so the consumer
  // keeps draining (never idle-parks for long) while the abort lands.
  std::vector<std::thread> senders;
  for (int s = 0; s < 2; ++s) {
    senders.emplace_back([&, s] {
      int seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        box.push(make_message(s, 1, seq++));
        std::this_thread::yield();
      }
    });
  }
  std::atomic<bool> threw{false};
  std::thread consumer([&] {
    try {
      // Tag 99 never arrives; only the abort can end this wait.
      box.pop_matching(kAnySource, 99);
    } catch (const WorldAborted&) {
      threw.store(true, std::memory_order_release);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  abort.aborted.store(true);
  box.interrupt();
  consumer.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& sender : senders) {
    sender.join();
  }
  EXPECT_TRUE(threw.load(std::memory_order_acquire));
}

TEST(MailboxAbortTest, AbortEndsAWaitWhileSendersFloodWithoutYielding) {
  // A drain that runs until the queue is empty never returns while
  // senders refill it faster than the consumer empties it, so pop would
  // never re-check abort. These senders never yield and keep pushing
  // after the abort, as peers that have not noticed it yet would; the
  // consumer must still unwind within a fixed bound.
  constexpr auto kBound = std::chrono::seconds(1);
  AbortState abort;
  Mailbox box(abort, 60.0, 0);
  std::atomic<bool> stop{false};
  std::atomic<bool> unwound{false};
  std::vector<std::thread> senders;
  for (int s = 0; s < 2; ++s) {
    senders.emplace_back([&, s] {
      int seq = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        box.push(make_message(s, 1, seq++));
      }
    });
  }
  std::atomic<bool> threw{false};
  std::thread consumer([&] {
    try {
      // Tag 99 never arrives; only the abort can end this wait.
      box.pop_matching(kAnySource, 99);
    } catch (const WorldAborted&) {
      threw.store(true, std::memory_order_release);
    }
    unwound.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  abort.aborted.store(true);
  box.interrupt();
  const auto aborted_at = std::chrono::steady_clock::now();
  while (!unwound.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() - aborted_at < kBound) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool within_bound = unwound.load(std::memory_order_acquire);
  // Stopping the senders lets a consumer stuck in a drain finish it, so
  // a failure reports instead of hanging.
  stop.store(true, std::memory_order_relaxed);
  consumer.join();
  for (std::thread& sender : senders) {
    sender.join();
  }
  EXPECT_TRUE(within_bound) << "abort took longer than the bound";
  EXPECT_TRUE(threw.load(std::memory_order_acquire));
}

}  // namespace
}  // namespace pblpar::mp
