#include "patternlets/patternlets.hpp"

#include <algorithm>

#include "race/detector.hpp"
#include "race/shared.hpp"
#include "rt/for_each.hpp"
#include "sim/machine.hpp"
#include "util/error.hpp"

namespace pblpar::patternlets {

ForkJoinResult fork_join(const rt::ParallelConfig& config) {
  ForkJoinResult result;
  result.run = rt::parallel(config, [&](rt::TeamContext& tc) {
    tc.critical([&] { result.greeting_order.push_back(tc.thread_num()); });
  });
  return result;
}

SpmdResult spmd(const rt::ParallelConfig& config) {
  SpmdResult result;
  result.reports.resize(static_cast<std::size_t>(config.num_threads));
  result.run = rt::parallel(config, [&](rt::TeamContext& tc) {
    // Each member writes its own slot: no sharing, no race.
    result.reports[static_cast<std::size_t>(tc.thread_num())] = {
        tc.thread_num(), tc.num_threads()};
  });
  return result;
}

DataRaceDemoResult shared_memory_race_demo(int threads,
                                           int increments_per_thread) {
  util::require(threads >= 2,
                "shared_memory_race_demo: races need at least two threads");
  util::require(increments_per_thread >= 1,
                "shared_memory_race_demo: need at least one increment");
  DataRaceDemoResult demo;

  // --- Racy version: every thread hammers one shared counter.
  {
    sim::Machine machine(sim::MachineSpec::raspberry_pi_3bplus());
    race::Detector detector;
    machine.set_observer(&detector);
    race::Shared<long> counter(0);
    detector.label_address(counter.address(), "shared counter");

    machine.run([&](sim::Context& root) {
      std::vector<sim::ThreadHandle> workers;
      for (int t = 0; t < threads; ++t) {
        workers.push_back(root.spawn([&](sim::Context& ctx) {
          for (int i = 0; i < increments_per_thread; ++i) {
            counter.add(ctx, 1);
            ctx.yield();  // interleave with the other workers
          }
        }));
      }
      for (const sim::ThreadHandle worker : workers) {
        root.join(worker);
      }
    });
    demo.racy_final = counter.unsafe_value();
    demo.races_in_racy_version = detector.races().size();
  }

  // --- Fixed version: private accumulation, one locked publish.
  {
    sim::Machine machine(sim::MachineSpec::raspberry_pi_3bplus());
    race::Detector detector;
    machine.set_observer(&detector);
    const sim::MutexHandle mutex = machine.make_mutex();
    race::Shared<long> counter(0);
    detector.label_address(counter.address(), "shared counter");

    machine.run([&](sim::Context& root) {
      std::vector<sim::ThreadHandle> workers;
      for (int t = 0; t < threads; ++t) {
        workers.push_back(root.spawn([&](sim::Context& ctx) {
          long private_sum = 0;  // scope matters: thread-private
          for (int i = 0; i < increments_per_thread; ++i) {
            private_sum += 1;
          }
          sim::ScopedLock lock(ctx, mutex);
          counter.add(ctx, private_sum);
        }));
      }
      for (const sim::ThreadHandle worker : workers) {
        root.join(worker);
      }
    });
    demo.fixed_final = counter.unsafe_value();
    demo.races_in_fixed_version = detector.races().size();
  }
  return demo;
}

std::vector<std::int64_t> LoopAssignment::iterations_of(int thread) const {
  std::vector<std::int64_t> mine;
  for (const auto& [tid, iteration] : executed) {
    if (tid == thread) {
      mine.push_back(iteration);
    }
  }
  return mine;
}

namespace {

LoopAssignment run_loop(const rt::ParallelConfig& config,
                        std::int64_t iterations, rt::Schedule schedule,
                        const rt::CostModel& cost) {
  LoopAssignment assignment;
  assignment.run = rt::parallel(config, [&](rt::TeamContext& tc) {
    rt::for_each(
        tc, rt::Range::upto(iterations), schedule,
        [&](std::int64_t i) {
          tc.critical(
              [&] { assignment.executed.emplace_back(tc.thread_num(), i); });
        },
        cost);
  });
  return assignment;
}

}  // namespace

LoopAssignment parallel_loop_equal_chunks(const rt::ParallelConfig& config,
                                          std::int64_t iterations,
                                          const rt::CostModel& cost) {
  return run_loop(config, iterations, rt::Schedule::static_block(), cost);
}

LoopAssignment parallel_loop_chunks(const rt::ParallelConfig& config,
                                    std::int64_t iterations,
                                    rt::Schedule schedule,
                                    const rt::CostModel& cost) {
  return run_loop(config, iterations, schedule, cost);
}

ReductionResult reduction_sum(const rt::ParallelConfig& config,
                              std::int64_t n, rt::ReduceStrategy strategy,
                              const rt::CostModel& cost) {
  ReductionResult result;
  const auto reduced = rt::parallel_reduce<long>(
      config, rt::Range::upto(n), rt::Schedule::static_block(), 0L,
      [](std::int64_t i) { return static_cast<long>(i); },
      [](long a, long b) { return a + b; }, cost, strategy);
  result.sum = reduced.value;
  result.run = reduced.run;
  return result;
}

TrapezoidResult trapezoid_integration(const rt::ParallelConfig& config,
                                      double (*f)(double), double a,
                                      double b, std::int64_t n,
                                      rt::Schedule schedule,
                                      rt::ReduceStrategy strategy) {
  util::require(f != nullptr, "trapezoid_integration: f must be callable");
  util::require(n >= 1, "trapezoid_integration: need at least one trapezoid");
  util::require(b > a, "trapezoid_integration: b must exceed a");

  const double h = (b - a) / static_cast<double>(n);
  // ~10 abstract flops per trapezoid on the simulated Pi.
  const rt::CostModel cost = rt::CostModel::uniform(10.0);

  TrapezoidResult result;
  const auto reduced = rt::parallel_reduce<double>(
      config, rt::Range::upto(n), schedule, 0.0,
      [&](std::int64_t i) {
        const double x0 = a + h * static_cast<double>(i);
        return 0.5 * h * (f(x0) + f(x0 + h));
      },
      [](double lhs, double rhs) { return lhs + rhs; }, cost, strategy);
  result.integral = reduced.value;
  result.run = reduced.run;
  return result;
}

BarrierDemoResult barrier_coordination(const rt::ParallelConfig& config) {
  BarrierDemoResult result;
  std::vector<int> phase_one_marks(
      static_cast<std::size_t>(config.num_threads), 0);
  bool all_saw_everything = true;

  result.run = rt::parallel(config, [&](rt::TeamContext& tc) {
    // Phase 1: leave a mark.
    phase_one_marks[static_cast<std::size_t>(tc.thread_num())] = 1;
    tc.barrier();
    // Phase 2: every member must see every mark.
    bool saw_all = true;
    for (const int mark : phase_one_marks) {
      saw_all = saw_all && mark == 1;
    }
    tc.critical([&] { all_saw_everything = all_saw_everything && saw_all; });
  });
  result.phases_separated = all_saw_everything;
  return result;
}

MasterWorkerResult master_worker(const rt::ParallelConfig& config,
                                 std::int64_t num_tasks,
                                 const rt::CostModel& cost) {
  util::require(config.num_threads >= 2,
                "master_worker: need a master and at least one worker");
  MasterWorkerResult result;
  result.tasks_per_thread.assign(
      static_cast<std::size_t>(config.num_threads), 0);

  result.run = rt::parallel(config, [&](rt::TeamContext& tc) {
    const int loop_id = tc.next_loop_id();  // consistent across members
    if (tc.thread_num() == 0) {
      // The master hands out work by owning the queue; in this shared
      // memory formulation the queue is self-service, so the master only
      // coordinates (and could monitor progress).
      tc.barrier();
      return;
    }
    for (;;) {
      const auto [start, count] =
          tc.claim(loop_id, num_tasks, rt::Schedule::dynamic(1));
      if (count == 0) {
        break;
      }
      tc.critical([&] {
        result.tasks_per_thread[static_cast<std::size_t>(tc.thread_num())] +=
            count;
        result.tasks_processed += count;
      });
      if (!cost.empty()) {
        tc.compute(cost.total_ops(start, start + count),
                   cost.mem_intensity);
      }
    }
    tc.barrier();
  });
  return result;
}

}  // namespace pblpar::patternlets
