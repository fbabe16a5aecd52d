// Microbenchmarks of the MapReduce framework: word count scaling with
// threads, the combiner's effect on shuffle volume, and the distributed
// driver on the simulated cluster engine. main() also emits
// BENCH_mapreduce.json before running the google-benchmark suite: the
// deterministic virtual-time fault-tolerance numbers (clean / straggler
// / crash) and the shuffle's grouping core, detail::group_and_apply,
// timed against the stable-sort grouping it replaced on duplicate-heavy
// and all-unique keys. --benchmark_filter='^$' runs only that phase;
// --smoke (the bench-smoke ctest) shrinks the grouping shapes and drops
// its timing bars.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

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

// --- grouping: detail::group_and_apply vs a sort-then-run-length pass ---

/// The grouping the shuffle used before hash grouping, kept here as the
/// baseline: stable-sort every pair by key, then one run-length pass.
template <class K, class V, class Fn, class Out>
void sort_group_and_apply(std::vector<std::pair<K, V>>& flat, const Fn& fn,
                          std::vector<Out>& out) {
  std::stable_sort(
      flat.begin(), flat.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<V> values;
  std::size_t i = 0;
  while (i < flat.size()) {
    std::size_t j = i;
    values.clear();
    while (j < flat.size() && !(flat[i].first < flat[j].first)) {
      values.push_back(std::move(flat[j].second));
      ++j;
    }
    auto result = fn(flat[i].first, values);
    out.emplace_back(std::move(flat[i].first), std::move(result));
    i = j;
  }
}

/// One grouping shape: `batches` are the separate calls one trial makes
/// (a map task's buckets, or a reducer's partitions).
template <class K>
using Batches = std::vector<std::vector<std::pair<K, long>>>;

/// Word-count pairs in `batches` of `pairs` each, with words drawn by
/// Zipf(1.1) over an 8000-word vocabulary: most pairs repeat a few keys.
Batches<std::string> zipf_batches(int batches, int pairs) {
  constexpr int kVocabulary = 8000;
  std::vector<double> cdf;
  double total = 0.0;
  for (int rank = 1; rank <= kVocabulary; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), 1.1);
    cdf.push_back(total);
  }
  util::Rng rng(31);
  Batches<std::string> out(static_cast<std::size_t>(batches));
  for (auto& batch : out) {
    for (int i = 0; i < pairs; ++i) {
      const auto rank = std::lower_bound(cdf.begin(), cdf.end(),
                                         rng.next_double() * total) -
                        cdf.begin();
      batch.emplace_back("w" + std::to_string(rank), 1L);
    }
  }
  return out;
}

/// Distinct string keys, in random order, in `batches` of `pairs` each.
Batches<std::string> unique_string_batches(int batches, int pairs) {
  util::Rng rng(37);
  Batches<std::string> out(static_cast<std::size_t>(batches));
  long next = 0;
  for (auto& batch : out) {
    for (int i = 0; i < pairs; ++i) {
      batch.emplace_back("k" + std::to_string(next), next);
      ++next;
    }
    for (std::size_t i = batch.size() - 1; i > 0; --i) {
      std::swap(batch[i], batch[rng.next_below(i + 1)]);
    }
  }
  return out;
}

/// Distinct int keys in ascending order, as distributed grep emits its
/// document indices into each partition.
Batches<int> unique_int_batches(int batches, int pairs) {
  Batches<int> out(static_cast<std::size_t>(batches));
  int next = 0;
  for (auto& batch : out) {
    for (int i = 0; i < pairs; ++i) {
      batch.emplace_back(next, static_cast<long>(next));
      ++next;
    }
  }
  return out;
}

struct GroupingRow {
  bench::Samples hash;
  bench::Samples sort;
  bool identical = true;
};

/// Seconds one grouping takes over every batch of `input`; the copy of
/// the input it consumes is made outside the timed span.
template <class K, class Group>
double time_grouping(const Batches<K>& input, Group group,
                     std::vector<std::pair<K, long>>& result) {
  const auto sum = [](const K&, const std::vector<long>& values) {
    long total = 0;
    for (const long v : values) {
      total += v;
    }
    return total;
  };
  Batches<K> batches = input;
  result.clear();
  return bench::elapsed_s([&] {
    for (auto& batch : batches) {
      group(batch, sum, result);
    }
  });
}

/// `trials` timings of each grouping over `input`, the two sides
/// alternating trial by trial so host drift hits both alike, and whether
/// they agreed on every trial.
template <class K>
GroupingRow run_grouping(const Batches<K>& input, int trials) {
  const auto hash_group = [](auto& flat, const auto& fn, auto& out) {
    mapreduce::detail::group_and_apply(flat, fn, out);
  };
  const auto sort_group = [](auto& flat, const auto& fn, auto& out) {
    sort_group_and_apply(flat, fn, out);
  };
  GroupingRow row;
  std::vector<std::pair<K, long>> hashed;
  std::vector<std::pair<K, long>> sorted;
  for (int t = 0; t < trials; ++t) {
    row.hash.append(bench::trials(
        1, [&] { return time_grouping(input, hash_group, hashed); }));
    row.sort.append(bench::trials(
        1, [&] { return time_grouping(input, sort_group, sorted); }));
    row.identical = row.identical && hashed == sorted;
  }
  return row;
}

bench::Json grouping_json(const char* shape, int batches, int pairs,
                          const GroupingRow& row) {
  bench::Json json = bench::Json::object(
      {{"shape", shape}, {"batches", batches}, {"pairs_per_batch", pairs}});
  bench::put_timing(json, "hash_", row.hash.min(), row.hash);
  bench::put_timing(json, "sort_", row.sort.min(), row.sort);
  return json.set("hash_over_sort", row.hash.min() / row.sort.min())
      .set("identical", row.identical);
}

/// The scenarios' virtual makespans (seconds of Sim time) and engine
/// counters; no host timing, so every number is exact.
bench::Json cluster_scenarios() {
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
  return scenarios;
}

/// Writes BENCH_mapreduce.json and returns whether every check held.
bool emit_bench_json(const char* path, bool smoke) {
  bench::Json doc = bench::document("ubench_mapreduce", smoke);
  doc.set("scenarios", cluster_scenarios());

  // Shapes: a DistJob map task's combine (250 pairs per call), and a
  // reducer's partitions of distinct keys (strings; grep's ints).
  const int trials = smoke ? 3 : 15;
  const int scale = smoke ? 10 : 1;
  const int zipf_calls = 800 / scale;
  const int unique_calls = 4;
  const int unique_pairs = 50000 / scale;
  const GroupingRow zipf = run_grouping(zipf_batches(zipf_calls, 250), trials);
  const GroupingRow strings = run_grouping(
      unique_string_batches(unique_calls, unique_pairs), trials);
  const GroupingRow ints =
      run_grouping(unique_int_batches(unique_calls, unique_pairs), trials);
  bench::Json grouping = bench::Json::array();
  grouping.push(bench::show(
      "grouping", grouping_json("zipf_duplicates", zipf_calls, 250, zipf)));
  grouping.push(bench::show(
      "grouping", grouping_json("unique_strings", unique_calls, unique_pairs,
                                strings)));
  grouping.push(bench::show(
      "grouping",
      grouping_json("unique_ints", unique_calls, unique_pairs, ints)));
  doc.set("grouping", std::move(grouping));

  // Bars on the min of the trials; --smoke keeps only the output check.
  const double infinity = std::numeric_limits<double>::infinity();
  const double duplicate_bar = smoke ? infinity : 0.5;
  const double unique_bar = smoke ? infinity : 1.10;
  bench::Checks checks;
  checks.add("grouping_identical",
             zipf.identical && strings.identical && ints.identical);
  checks.add("grouping_faster_on_duplicate_keys",
             zipf.hash.min() <= duplicate_bar * zipf.sort.min());
  checks.add("grouping_not_slower_on_unique_keys",
             strings.hash.min() <= unique_bar * strings.sort.min() &&
                 ints.hash.min() <= unique_bar * ints.sort.min());
  checks.print();
  doc.set("checks", checks.json());
  doc.set("pass", checks.all());
  bench::write_json(path, doc);
  return checks.all();
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke is this bench's flag; every other one goes to
  // google-benchmark.
  const bool smoke = bench::smoke_flag(argc, argv);
  argc = static_cast<int>(
      std::remove_if(argv + 1, argv + argc,
                     [](const char* arg) {
                       return std::strcmp(arg, "--smoke") == 0;
                     }) -
      argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  const bool pass = emit_bench_json("BENCH_mapreduce.json", smoke);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return pass ? 0 : 1;
}
