// Microbenchmarks of the MapReduce framework: word count scaling with
// threads, the combiner's effect on shuffle volume, and the distributed
// driver on the simulated cluster engine. main() also emits
// BENCH_mapreduce.json with the deterministic virtual-time fault-
// tolerance numbers (clean / straggler / crash) before running the
// google-benchmark suite; --benchmark_filter='^$' runs only that phase.

#include <benchmark/benchmark.h>

#include "cluster/jobs.hpp"
#include "harness.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/jobs.hpp"
#include "mp/sim_world.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace {

using namespace pblpar;

std::vector<std::string> corpus(int documents) {
  static const char* kWords[] = {"parallel", "openmp",  "threads", "memory",
                                 "shared",   "barrier", "reduce",  "team",
                                 "pi",       "core"};
  util::Rng rng(99);
  std::vector<std::string> docs;
  docs.reserve(static_cast<std::size_t>(documents));
  for (int d = 0; d < documents; ++d) {
    std::string text;
    for (int w = 0; w < 60; ++w) {
      text += kWords[rng.next_below(10)];
      text += ' ';
    }
    docs.push_back(std::move(text));
  }
  return docs;
}

void BM_WordCountThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto docs = corpus(200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapreduce::word_count(docs, threads));
  }
}
BENCHMARK(BM_WordCountThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_WordCountCombinerEffect(benchmark::State& state) {
  const bool use_combiner = state.range(0) != 0;
  const auto docs = corpus(200);
  std::vector<std::pair<int, std::string>> inputs;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    inputs.emplace_back(static_cast<int>(d), docs[d]);
  }
  for (auto _ : state) {
    mapreduce::Job<int, std::string, std::string, long> job;
    job.threads(4).map([](const int&, const std::string& text,
                          mapreduce::Emitter<std::string, long>& out) {
      for (std::string& word : util::tokenize_words(text)) {
        out.emit(std::move(word), 1L);
      }
    });
    const auto sum = [](const std::string&, const std::vector<long>& v) {
      long total = 0;
      for (const long c : v) {
        total += c;
      }
      return total;
    };
    if (use_combiner) {
      job.combine(sum);
    }
    job.reduce(sum);
    benchmark::DoNotOptimize(job.run(inputs));
  }
}
BENCHMARK(BM_WordCountCombinerEffect)->Arg(0)->Arg(1);

void BM_InvertedIndex(benchmark::State& state) {
  const auto docs = corpus(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapreduce::inverted_index(docs, 4));
  }
}
BENCHMARK(BM_InvertedIndex);

// Host wall time of one whole simulated distributed word count (engine
// scheduling + shuffle + reduce on a 4-node virtual Pi cluster).
void BM_DistWordCountSimCluster(benchmark::State& state) {
  const auto docs = corpus(60);
  for (auto _ : state) {
    mp::SimWorld::run(4, [&](mp::SimComm& comm) {
      benchmark::DoNotOptimize(cluster::jobs::word_count(comm, docs));
    });
  }
}
BENCHMARK(BM_DistWordCountSimCluster);

/// One fault-injection scenario of the distributed word count, measured
/// in deterministic virtual seconds.
struct ClusterScenario {
  const char* name;
  cluster::FaultPlan faults;
};

cluster::ClusterProfile run_scenario(const ClusterScenario& scenario,
                                     const std::vector<std::string>& docs) {
  cluster::ClusterProfile profile;
  cluster::jobs::JobTuning tuning;
  tuning.map_cost_ops = 2e6;  // make map work visible against the network
  mp::SimWorld::run(4, [&](mp::SimComm& comm) {
    (void)cluster::jobs::word_count(comm, docs, tuning, {},
                                    &scenario.faults,
                                    comm.rank() == 0 ? &profile : nullptr);
  });
  return profile;
}

/// The scenarios' virtual makespans (seconds of Sim time) and engine
/// counters; no host timing, so every number is exact.
void emit_bench_json(const char* path) {
  const auto docs = corpus(120);
  ClusterScenario clean{"wordcount_clean", {}};
  ClusterScenario straggler{"wordcount_straggler_10x", {}};
  straggler.faults.stragglers.push_back(cluster::StragglerFault{1, 10.0});
  ClusterScenario crash{"wordcount_worker_crash", {}};
  crash.faults.crashes.push_back(cluster::CrashFault{2, 1});

  bench::Json scenarios = bench::Json::array();
  for (const ClusterScenario* scenario : {&clean, &straggler, &crash}) {
    const cluster::ClusterStats stats = run_scenario(*scenario, docs).stats;
    scenarios.push(bench::Json::object(
        {{"name", scenario->name},
         {"makespan_s", stats.makespan_s},
         {"completion_s", stats.completion_s},
         {"attempts", stats.attempts},
         {"speculative_attempts", stats.speculative_attempts},
         {"requeues", stats.requeues},
         {"dead_workers", stats.dead_workers}}));
  }
  // Flags belong to google-benchmark here; there is no --smoke shape.
  bench::Json doc = bench::document("ubench_mapreduce", false);
  doc.set("scenarios", std::move(scenarios));
  bench::write_json(path, doc);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  emit_bench_json("BENCH_mapreduce.json");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
