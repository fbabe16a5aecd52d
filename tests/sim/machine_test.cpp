#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "util/error.hpp"

namespace pblpar::sim {
namespace {

/// Machine with every overhead zeroed and a 1 GHz clock so timing math is
/// exact: 1e9 ops == 1 virtual second.
MachineSpec exact_spec(int cores) {
  MachineSpec spec;
  spec.name = "exact";
  spec.cores = cores;
  spec.clock_ghz = 1.0;
  spec.ops_per_cycle = 1.0;
  spec.fork_cost_us = 0.0;
  spec.join_cost_us = 0.0;
  spec.barrier_cost_us_per_thread = 0.0;
  spec.mutex_acquire_cost_us = 0.0;
  spec.sched_chunk_cost_us = 0.0;
  spec.oversub_penalty = 0.0;
  spec.mem_contention_beta = 0.0;
  return spec;
}

TEST(MachineTest, RootBodyRunsAndReturns) {
  Machine machine(exact_spec(4));
  bool ran = false;
  const ExecutionReport report = machine.run([&](Context& ctx) {
    EXPECT_EQ(ctx.tid(), 0);
    ran = true;
  });
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(report.makespan_s, 0.0);
  EXPECT_EQ(report.spawns, 0u);
}

TEST(MachineTest, SpawnedChildrenRunWithDistinctTids) {
  Machine machine(exact_spec(4));
  std::vector<int> seen;
  machine.run([&](Context& root) {
    std::vector<ThreadHandle> children;
    for (int i = 0; i < 3; ++i) {
      children.push_back(root.spawn([&](Context& child) {
        seen.push_back(child.tid());  // serialized real code: safe
      }));
    }
    for (const ThreadHandle child : children) {
      root.join(child);
    }
  });
  ASSERT_EQ(seen.size(), 3u);
  // tids 1..3 in some deterministic order
  std::vector<int> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3}));
}

TEST(MachineTest, JoinWaitsForChildWork) {
  Machine machine(exact_spec(4));
  double child_done_at = -1.0;
  double after_join = -1.0;
  machine.run([&](Context& root) {
    const ThreadHandle child = root.spawn([&](Context& ctx) {
      ctx.compute(1e9);
      child_done_at = ctx.now();
    });
    root.join(child);
    after_join = root.now();
  });
  EXPECT_DOUBLE_EQ(child_done_at, 1.0);
  EXPECT_GE(after_join, child_done_at);
}

TEST(MachineTest, JoinOfFinishedChildReturnsImmediately) {
  Machine machine(exact_spec(4));
  machine.run([&](Context& root) {
    const ThreadHandle child = root.spawn([](Context&) {});
    root.compute(1e9);  // child certainly done by now
    root.join(child);
    SUCCEED();
  });
}

TEST(MachineTest, SelfJoinIsRejected) {
  Machine machine(exact_spec(4));
  EXPECT_THROW(machine.run([](Context& root) {
                 root.join(ThreadHandle{0});
               }),
               util::PreconditionError);
}

TEST(MachineTest, BarrierSynchronizesParticipants) {
  Machine machine(exact_spec(4));
  const BarrierHandle barrier = machine.make_barrier(2);
  double slow_release = -1.0;
  double fast_release = -1.0;
  machine.run([&](Context& root) {
    const ThreadHandle child = root.spawn([&](Context& ctx) {
      ctx.barrier(barrier);  // arrives instantly, waits for root
      fast_release = ctx.now();
    });
    root.compute(2e9);
    root.barrier(barrier);
    slow_release = root.now();
    root.join(child);
  });
  EXPECT_DOUBLE_EQ(slow_release, 2.0);
  EXPECT_DOUBLE_EQ(fast_release, 2.0);
}

TEST(MachineTest, MutexProvidesMutualExclusionInVirtualTime) {
  Machine machine(exact_spec(4));
  const MutexHandle mutex = machine.make_mutex();
  std::vector<double> section_starts;
  machine.run([&](Context& root) {
    auto worker = [&](Context& ctx) {
      ctx.lock(mutex);
      section_starts.push_back(ctx.now());
      ctx.compute(1e9);
      ctx.unlock(mutex);
    };
    const ThreadHandle a = root.spawn(worker);
    const ThreadHandle b = root.spawn(worker);
    root.join(a);
    root.join(b);
  });
  ASSERT_EQ(section_starts.size(), 2u);
  // Second critical section cannot start before the first ends.
  EXPECT_DOUBLE_EQ(section_starts[0], 0.0);
  EXPECT_DOUBLE_EQ(section_starts[1], 1.0);
}

TEST(MachineTest, ScopedLockReleasesOnScopeExit) {
  Machine machine(exact_spec(4));
  const MutexHandle mutex = machine.make_mutex();
  machine.run([&](Context& root) {
    {
      ScopedLock lock(root, mutex);
      root.compute(1e6);
    }
    // Re-acquire must succeed (would self-deadlock if still held).
    ScopedLock again(root, mutex);
  });
}

TEST(MachineTest, UnlockWithoutOwnershipIsRejected) {
  Machine machine(exact_spec(4));
  const MutexHandle mutex = machine.make_mutex();
  EXPECT_THROW(
      machine.run([&](Context& root) { root.unlock(mutex); }),
      util::PreconditionError);
}

TEST(MachineTest, RecursiveLockIsRejected) {
  Machine machine(exact_spec(4));
  const MutexHandle mutex = machine.make_mutex();
  EXPECT_THROW(machine.run([&](Context& root) {
                 root.lock(mutex);
                 root.lock(mutex);
               }),
               util::PreconditionError);
}

TEST(MachineTest, DeadlockIsDetected) {
  Machine machine(exact_spec(4));
  const MutexHandle mutex = machine.make_mutex();
  EXPECT_THROW(machine.run([&](Context& root) {
                 const ThreadHandle child = root.spawn([&](Context& ctx) {
                   ctx.lock(mutex);  // never unlocked
                 });
                 root.join(child);
                 root.lock(mutex);  // blocks forever
               }),
               DeadlockError);
}

TEST(MachineTest, BarrierWithMissingParticipantDeadlocks) {
  Machine machine(exact_spec(4));
  const BarrierHandle barrier = machine.make_barrier(3);
  EXPECT_THROW(machine.run([&](Context& root) {
                 const ThreadHandle child =
                     root.spawn([&](Context& ctx) { ctx.barrier(barrier); });
                 root.barrier(barrier);  // only 2 of 3 ever arrive
                 root.join(child);
               }),
               DeadlockError);
}

TEST(MachineTest, ExceptionInRootPropagates) {
  Machine machine(exact_spec(4));
  EXPECT_THROW(machine.run([](Context&) {
                 throw std::runtime_error("boom");
               }),
               std::runtime_error);
}

TEST(MachineTest, ExceptionInChildPropagatesAndUnblocksOthers) {
  Machine machine(exact_spec(4));
  const BarrierHandle barrier = machine.make_barrier(2);
  EXPECT_THROW(machine.run([&](Context& root) {
                 const ThreadHandle child = root.spawn([](Context&) -> void {
                   throw std::runtime_error("child failed");
                 });
                 root.barrier(barrier);  // would deadlock if not aborted
                 root.join(child);
               }),
               std::runtime_error);
}

TEST(MachineTest, MachineIsReusableAfterException) {
  Machine machine(exact_spec(4));
  EXPECT_THROW(machine.run([](Context&) {
                 throw std::runtime_error("first");
               }),
               std::runtime_error);
  const ExecutionReport report =
      machine.run([](Context& ctx) { ctx.compute(1e9); });
  EXPECT_DOUBLE_EQ(report.makespan_s, 1.0);
}

TEST(MachineTest, MachineIsReusableAfterNormalRun) {
  Machine machine(exact_spec(2));
  const ExecutionReport first =
      machine.run([](Context& ctx) { ctx.compute(1e9); });
  const ExecutionReport second =
      machine.run([](Context& ctx) { ctx.compute(2e9); });
  EXPECT_DOUBLE_EQ(first.makespan_s, 1.0);
  EXPECT_DOUBLE_EQ(second.makespan_s, 2.0);  // clock restarts per run
}

TEST(MachineTest, CountersTrackEvents) {
  Machine machine(exact_spec(4));
  const BarrierHandle barrier = machine.make_barrier(2);
  const MutexHandle mutex = machine.make_mutex();
  const ExecutionReport report = machine.run([&](Context& root) {
    const ThreadHandle child = root.spawn([&](Context& ctx) {
      ctx.lock(mutex);
      ctx.unlock(mutex);
      ctx.barrier(barrier);
    });
    root.barrier(barrier);
    root.compute(1e6);
    root.join(child);
  });
  EXPECT_EQ(report.spawns, 1u);
  EXPECT_EQ(report.joins, 1u);
  EXPECT_EQ(report.barrier_episodes, 1u);
  EXPECT_EQ(report.mutex_acquires, 1u);
  EXPECT_EQ(report.compute_calls, 1u);
  EXPECT_DOUBLE_EQ(report.total_ops, 1e6);
}

TEST(MachineTest, DeterministicAcrossRepeatedRuns) {
  const auto run_once = [] {
    Machine machine(MachineSpec::raspberry_pi_3bplus());
    return machine.run([](Context& root) {
      std::vector<ThreadHandle> children;
      for (int i = 0; i < 4; ++i) {
        children.push_back(root.spawn([i](Context& ctx) {
          ctx.compute(1e8 * (i + 1), 0.3);
        }));
      }
      for (const ThreadHandle child : children) {
        root.join(child);
      }
    });
  };
  const ExecutionReport a = run_once();
  const ExecutionReport b = run_once();
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.spawns, b.spawns);
  EXPECT_EQ(a.total_ops, b.total_ops);
  ASSERT_EQ(a.busy_s.size(), b.busy_s.size());
  for (std::size_t i = 0; i < a.busy_s.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.busy_s[i], b.busy_s[i]);
  }
}

TEST(MachineTest, TraceRecordsSegmentsWhenEnabled) {
  MachineSpec spec = exact_spec(2);
  spec.record_trace = true;
  Machine machine(spec);
  const ExecutionReport report = machine.run([](Context& root) {
    const ThreadHandle child =
        root.spawn([](Context& ctx) { ctx.compute(5e8); });
    root.compute(1e9);
    root.join(child);
  });
  ASSERT_FALSE(report.trace.empty());
  double traced_ops = 0.0;
  for (const TraceSegment& segment : report.trace) {
    EXPECT_LE(segment.start_s, segment.end_s);
    traced_ops += segment.ops;
  }
  EXPECT_NEAR(traced_ops, 1.5e9, 1.0);
}

TEST(MachineTest, YieldAllowsInterleavingOfReadyThreads) {
  Machine machine(exact_spec(4));
  std::vector<int> order;
  machine.run([&](Context& root) {
    const ThreadHandle a = root.spawn([&](Context& ctx) {
      order.push_back(ctx.tid());
      ctx.yield();
      order.push_back(ctx.tid());
    });
    const ThreadHandle b = root.spawn([&](Context& ctx) {
      order.push_back(ctx.tid());
      ctx.yield();
      order.push_back(ctx.tid());
    });
    root.join(a);
    root.join(b);
  });
  ASSERT_EQ(order.size(), 4u);
  // With yields, the two threads interleave: 1,2,1,2.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(MachineTest, RunRejectsNullBody) {
  Machine machine(exact_spec(1));
  EXPECT_THROW(machine.run(nullptr), util::PreconditionError);
}

TEST(MachineTest, InvalidHandlesAreRejected) {
  Machine machine(exact_spec(1));
  EXPECT_THROW(machine.run([](Context& root) {
                 root.barrier(BarrierHandle{99});
               }),
               util::PreconditionError);
  EXPECT_THROW(machine.run([](Context& root) { root.lock(MutexHandle{5}); }),
               util::PreconditionError);
  EXPECT_THROW(machine.run([](Context& root) {
                 root.join(ThreadHandle{42});
               }),
               util::PreconditionError);
}

TEST(MachineTest, MakeBarrierRejectsNonPositiveParticipants) {
  Machine machine(exact_spec(1));
  EXPECT_THROW(machine.make_barrier(0), util::PreconditionError);
}

// ---------------------------------------------------------------------------
// Fibers: each virtual thread keeps its own exception state and stack
// ---------------------------------------------------------------------------

/// The int that std::current_exception() holds, or -1 for anything else.
int held_int() {
  try {
    std::rethrow_exception(std::current_exception());
  } catch (int value) {
    return value;
  } catch (...) {
    return -1;
  }
}

/// The string that std::current_exception() holds, or "?" otherwise.
std::string held_string() {
  try {
    std::rethrow_exception(std::current_exception());
  } catch (const std::string& value) {
    return value;
  } catch (...) {
    return "?";
  }
}

TEST(MachineTest, CaughtExceptionStaysWithItsFiber) {
  Machine machine(exact_spec(2));
  std::vector<int> a_held;
  std::string b_held;
  machine.run([&](Context& root) {
    const ThreadHandle a = root.spawn([&](Context& ctx) {
      try {
        throw 7;
      } catch (int) {
        ctx.yield();  // B enters its handler and yields inside it
        a_held.push_back(held_int());
        ctx.yield();  // B leaves its handler and finishes
        a_held.push_back(held_int());
      }
    });
    const ThreadHandle b = root.spawn([&](Context& ctx) {
      try {
        throw std::string("b");
      } catch (const std::string&) {
        ctx.yield();
        b_held = held_string();
      }
    });
    root.join(a);
    root.join(b);
  });
  EXPECT_EQ(a_held, (std::vector<int>{7, 7}));
  EXPECT_EQ(b_held, "b");
}

/// Yields from its destructor, so a fiber switch happens mid-unwind.
struct YieldOnUnwind {
  Context& ctx;
  int& uncaught_seen;
  ~YieldOnUnwind() {
    ctx.yield();
    uncaught_seen = std::uncaught_exceptions();
  }
};

TEST(MachineTest, UncaughtExceptionCountStaysWithItsFiber) {
  Machine machine(exact_spec(2));
  int a_seen = -1;
  int b_seen = -1;
  machine.run([&](Context& root) {
    const ThreadHandle a = root.spawn([&](Context& ctx) {
      try {
        const YieldOnUnwind guard{ctx, a_seen};
        throw std::runtime_error("a");
      } catch (const std::runtime_error&) {
      }
    });
    // Runs while A is suspended in its destructor, mid-unwind.
    const ThreadHandle b = root.spawn(
        [&](Context&) { b_seen = std::uncaught_exceptions(); });
    root.join(a);
    root.join(b);
  });
  EXPECT_EQ(a_seen, 1);
  EXPECT_EQ(b_seen, 0);
}

/// Recurse until the frame sits `depth` bytes below `top`. Each frame
/// writes a 256-byte pad, so the stack is touched a page at a time and an
/// overflow lands on the guard page, not past it.
std::size_t recurse_to(const char* top, std::size_t depth) {
  volatile char pad[256];
  pad[0] = 1;
  pad[sizeof pad - 1] = 1;
  const auto* here = static_cast<const char*>(__builtin_frame_address(0));
  if (static_cast<std::size_t>(top - here) >= depth) {
    return 1;
  }
  return recurse_to(top, depth) + static_cast<std::size_t>(pad[0]);
}

TEST(MachineTest, BodyMayRecurseToNearItsStackSize) {
  Machine machine(exact_spec(1));
  std::size_t frames = 0;
  machine.run([&](Context&) {
    const auto* top = static_cast<const char*>(__builtin_frame_address(0));
    frames = recurse_to(top, detail::kFiberStackBytes - 64 * 1024);
  });
  EXPECT_GT(frames, 0u);
}

TEST(MachineDeathTest, RecursionPastTheStackDiesOnTheGuardPage) {
  EXPECT_DEATH(
      {
        Machine machine(exact_spec(1));
        machine.run([](Context&) {
          const auto* top =
              static_cast<const char*>(__builtin_frame_address(0));
          recurse_to(top, 2 * detail::kFiberStackBytes);
        });
      },
      "");
}

TEST(MachineTest, RunNestsInsideAVirtualThread) {
  Machine outer(exact_spec(2));
  Machine inner(exact_spec(2));
  std::vector<std::string> order;
  double inner_makespan = -1.0;
  const ExecutionReport report = outer.run([&](Context& root) {
    const ThreadHandle peer = root.spawn([&](Context& ctx) {
      order.push_back("outer peer");
      ctx.compute(2e9);
    });
    inner_makespan = inner
                         .run([&](Context& inner_root) {
                           const ThreadHandle child =
                               inner_root.spawn([&](Context& ctx) {
                                 order.push_back("inner child");
                                 ctx.compute(5e8);
                               });
                           inner_root.yield();
                           order.push_back("inner root");
                           inner_root.join(child);
                         })
                         .makespan_s;
    // An exception out of the nested run reaches this virtual thread.
    EXPECT_THROW(inner.run([](Context&) { throw std::runtime_error("x"); }),
                 std::runtime_error);
    root.compute(1e9);
    root.join(peer);
  });
  EXPECT_DOUBLE_EQ(inner_makespan, 0.5);
  EXPECT_DOUBLE_EQ(report.makespan_s, 2.0);
  EXPECT_EQ(order, (std::vector<std::string>{"inner child", "inner root",
                                             "outer peer"}));
}

/// Counts the virtual-thread bodies that have been unwound or returned.
struct CountOnExit {
  int& count;
  ~CountOnExit() { ++count; }
};

TEST(MachineTest, DeadlockUnwindsEveryFiberBeforeThrowing) {
  Machine machine(exact_spec(4));
  const BarrierHandle barrier = machine.make_barrier(5);  // one too many
  int exited = 0;
  try {
    machine.run([&](Context& root) {
      const CountOnExit count{exited};
      for (int i = 0; i < 3; ++i) {
        root.spawn([&](Context& ctx) {
          const CountOnExit child_count{exited};
          ctx.barrier(barrier);
        });
      }
      root.barrier(barrier);
    });
    FAIL() << "expected a DeadlockError";
  } catch (const DeadlockError&) {
    EXPECT_EQ(exited, 4);
  }
}

TEST(MachineTest, ThrowingRunUnwindsEveryFiberBeforeRethrowing) {
  Machine machine(exact_spec(4));
  const BarrierHandle barrier = machine.make_barrier(4);
  int exited = 0;
  bool late_child_ran = false;
  try {
    machine.run([&](Context& root) {
      const CountOnExit count{exited};
      for (int i = 0; i < 3; ++i) {
        root.spawn([&](Context& ctx) {
          const CountOnExit child_count{exited};
          ctx.barrier(barrier);
        });
      }
      root.compute(1e6);  // the children run and block on the barrier
      root.spawn([&](Context&) { late_child_ran = true; });  // never starts
      throw std::runtime_error("root failed");
    });
    FAIL() << "expected the root's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "root failed");
    EXPECT_EQ(exited, 4);
    EXPECT_FALSE(late_child_ran);
  }
}

}  // namespace
}  // namespace pblpar::sim
