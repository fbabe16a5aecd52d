// Microbenchmarks of the TeachMP runtime and the machine simulator:
// region fork/join cost, loop scheduling overhead per schedule (traced
// and untraced, so the observability layer's cost is visible), and the
// simulator's event throughput.
//
// Before the benchmarks run, this binary prints the trace showcase: a
// per-thread chunk timeline for static/dynamic/guided/steal schedules on
// both the Host and the Sim backend, with the load-imbalance ratio and
// barrier-wait fraction the tracing layer computes (steal timelines also
// list each chunk migration).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "rt/host_backend.hpp"
#include "rt/parallel.hpp"
#include "rt/reduce.hpp"
#include "rt/trace.hpp"

namespace {

using namespace pblpar;

rt::Schedule schedule_for(int kind) {
  return kind == 0   ? rt::Schedule::static_chunk(4)
         : kind == 1 ? rt::Schedule::dynamic(2)
         : kind == 2 ? rt::Schedule::guided(1)
                     : rt::Schedule::steal(2);
}

void print_timeline(const char* backend_name, const rt::ParallelConfig& base,
                    rt::Schedule schedule) {
  // Triangular cost: later iterations are heavier, so static schedules
  // show visible imbalance while dynamic/guided rebalance.
  rt::CostModel cost;
  cost.ops_fn = [](std::int64_t i) { return 2e4 * (1.0 + double(i)); };
  const auto spin = [](std::int64_t i) {
    // Real work for the host backend, proportional to the modelled cost.
    volatile double sink = 0.0;
    for (std::int64_t k = 0; k < 60 * (1 + i); ++k) {
      sink = sink + double(k);
    }
  };
  const rt::RunResult result = rt::parallel_for(
      base.traced(), rt::Range::upto(48), schedule, spin, cost);
  std::printf("--- %s, schedule(%s) ---\n", backend_name,
              schedule.to_string().c_str());
  std::printf("%s", result.profile->timeline_chart(0).c_str());
  std::printf("load imbalance %.3f, barrier-wait fraction %.3f\n\n",
              result.profile->load_imbalance(),
              result.profile->barrier_wait_fraction());
}

void print_trace_showcase() {
  std::printf(
      "==== TeachMP trace showcase: 48 triangular iterations, 4 threads "
      "====\n\n");
  for (const int kind : {0, 1, 2, 3}) {
    print_timeline("Host (real time)", rt::ParallelConfig::host(4),
                   schedule_for(kind));
  }
  for (const int kind : {0, 1, 2, 3}) {
    print_timeline("Sim (virtual Pi time)", rt::ParallelConfig::sim_pi(4),
                   schedule_for(kind));
  }
  std::printf("==== end trace showcase ====\n\n");
}

void BM_HostRegionForkJoin(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const rt::RunResult result =
        rt::parallel(rt::ParallelConfig::host(threads),
                     [](rt::TeamContext&) {});
    benchmark::DoNotOptimize(result.host_seconds);
  }
}
BENCHMARK(BM_HostRegionForkJoin)->Arg(2)->Arg(4)->Arg(8);

void BM_HostParallelForSchedule(benchmark::State& state) {
  const int schedule_kind = static_cast<int>(state.range(0));
  const rt::Schedule schedule =
      schedule_kind == 0   ? rt::Schedule::static_block()
      : schedule_kind == 1 ? rt::Schedule::dynamic(1)
                           : rt::Schedule::guided(1);
  std::vector<double> data(4096, 1.0);
  for (auto _ : state) {
    const auto reduced = rt::parallel_reduce<double>(
        rt::ParallelConfig::host(4),
        rt::Range::upto(static_cast<std::int64_t>(data.size())), schedule,
        0.0,
        [&](std::int64_t i) { return data[static_cast<std::size_t>(i)]; },
        [](double a, double b) { return a + b; });
    benchmark::DoNotOptimize(reduced.value);
  }
}
BENCHMARK(BM_HostParallelForSchedule)->Arg(0)->Arg(1)->Arg(2);

void BM_HostParallelForTracing(benchmark::State& state) {
  // Arg: 0 = tracing off, 1 = tracing on. Comparing the two rows shows
  // what the observability layer costs (off must match the pre-trace
  // baseline: the hot path is a single null check per chunk).
  const bool traced = state.range(0) != 0;
  rt::ParallelConfig config = rt::ParallelConfig::host(4);
  config.record_trace = traced;
  for (auto _ : state) {
    const rt::RunResult result =
        rt::parallel_for(config, rt::Range::upto(4096),
                         rt::Schedule::dynamic(16), [](std::int64_t) {});
    benchmark::DoNotOptimize(result.host_seconds);
    if (traced) {
      benchmark::DoNotOptimize(result.profile->chunks.size());
    }
  }
}
BENCHMARK(BM_HostParallelForTracing)->Arg(0)->Arg(1);

void BM_PoolSnapshot(benchmark::State& state) {
  // Whole-pool stats sample from outside any region: a handful of relaxed
  // loads plus the seqlocked live-counter cut. This is the "free to call
  // from a dashboard thread" claim, measured.
  rt::warm_up(rt::ParallelConfig::host(4));
  for (auto _ : state) {
    const rt::PoolSnapshot snap = rt::pool_snapshot();
    benchmark::DoNotOptimize(snap.pooled_regions);
    benchmark::DoNotOptimize(snap.live.coherent);
  }
}
BENCHMARK(BM_PoolSnapshot);

void BM_SimMachineEventThroughput(benchmark::State& state) {
  // How fast the simulator retires compute events (the practical limit on
  // experiment sizes).
  const std::int64_t events = state.range(0);
  for (auto _ : state) {
    sim::Machine machine(sim::MachineSpec::raspberry_pi_3bplus());
    const sim::ExecutionReport report =
        machine.run([events](sim::Context& root) {
          for (std::int64_t i = 0; i < events; ++i) {
            root.compute(100.0);
          }
        });
    benchmark::DoNotOptimize(report.makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimMachineEventThroughput)->Arg(1000);

void BM_SimParallelForDynamic(benchmark::State& state) {
  const std::int64_t iterations = state.range(0);
  for (auto _ : state) {
    const rt::RunResult result = rt::parallel_for(
        rt::ParallelConfig::sim_pi(4), rt::Range::upto(iterations),
        rt::Schedule::dynamic(8), [](std::int64_t) {},
        rt::CostModel::uniform(1e4));
    benchmark::DoNotOptimize(result.elapsed_seconds());
  }
  state.SetItemsProcessed(state.iterations() * iterations);
}
BENCHMARK(BM_SimParallelForDynamic)->Arg(512);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  print_trace_showcase();
  benchmark::RunSpecifiedBenchmarks();
  const rt::PoolSnapshot pool = rt::pool_snapshot();
  std::printf(
      "\npool snapshot: %d persistent workers, %llu pooled regions, "
      "%llu regions that started threads\n",
      pool.workers, static_cast<unsigned long long>(pool.pooled_regions),
      static_cast<unsigned long long>(pool.spawned_regions));
  benchmark::Shutdown();
  return 0;
}
