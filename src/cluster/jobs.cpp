#include "cluster/jobs.hpp"

#include "cluster/dist_mapreduce.hpp"
#include "mapreduce/defs.hpp"

namespace pblpar::cluster::jobs {

namespace {

template <class K1, class V1, class K2, class V2, class VOut, class DefT>
std::vector<std::pair<K2, VOut>> run_def(
    mp::Endpoint& comm, const DefT& def,
    const std::vector<std::pair<K1, V1>>& inputs, const JobTuning& tuning,
    const ClusterOptions& options, const FaultPlan* faults,
    ClusterProfile* profile) {
  DistJob<K1, V1, K2, V2, VOut> job;
  def.configure(job);
  job.reducers(tuning.reducers)
      .records_per_task(tuning.records_per_task)
      .map_cost_ops(tuning.map_cost_ops)
      .reduce_cost_ops(tuning.reduce_cost_ops);
  return job.run(comm, inputs, options, faults, profile);
}

}  // namespace

std::vector<std::pair<std::string, long>> word_count(
    mp::Endpoint& comm, const std::vector<std::string>& documents,
    const JobTuning& tuning, const ClusterOptions& options,
    const FaultPlan* faults, ClusterProfile* profile) {
  return run_def<int, std::string, std::string, long, long>(
      comm, mapreduce::defs::WordCountDef{},
      mapreduce::defs::indexed(documents), tuning, options, faults, profile);
}

std::vector<std::pair<std::string, std::vector<int>>> inverted_index(
    mp::Endpoint& comm, const std::vector<std::string>& documents,
    const JobTuning& tuning, const ClusterOptions& options,
    const FaultPlan* faults, ClusterProfile* profile) {
  return run_def<int, std::string, std::string, int, std::vector<int>>(
      comm, mapreduce::defs::InvertedIndexDef{},
      mapreduce::defs::indexed(documents), tuning, options, faults, profile);
}

std::vector<std::pair<std::string, long>> url_access_counts(
    mp::Endpoint& comm, const std::vector<std::string>& log_lines,
    const JobTuning& tuning, const ClusterOptions& options,
    const FaultPlan* faults, ClusterProfile* profile) {
  return run_def<int, std::string, std::string, long, long>(
      comm, mapreduce::defs::UrlAccessCountsDef{},
      mapreduce::defs::indexed(log_lines), tuning, options, faults, profile);
}

std::vector<std::pair<int, std::string>> distributed_grep(
    mp::Endpoint& comm, const std::vector<std::string>& lines,
    const std::string& pattern, const JobTuning& tuning,
    const ClusterOptions& options, const FaultPlan* faults,
    ClusterProfile* profile) {
  return run_def<int, std::string, int, std::string, std::string>(
      comm, mapreduce::defs::DistributedGrepDef{pattern},
      mapreduce::defs::indexed(lines), tuning, options, faults, profile);
}

std::vector<std::pair<std::string, double>> mean_per_key(
    mp::Endpoint& comm,
    const std::vector<std::pair<std::string, double>>& samples,
    const JobTuning& tuning, const ClusterOptions& options,
    const FaultPlan* faults, ClusterProfile* profile) {
  return run_def<std::string, double, std::string, double, double>(
      comm, mapreduce::defs::MeanPerKeyDef{}, samples, tuning, options,
      faults, profile);
}

}  // namespace pblpar::cluster::jobs
