#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cluster/engine.hpp"

namespace pblpar::cluster::jobs {

/// Distributed ports of the Assignment-5 MapReduce jobs, running the
/// exact map/combine/reduce definitions from mapreduce/defs.hpp on the
/// fault-tolerant cluster engine. Each returns the same bytes as its
/// thread-local counterpart in mapreduce/jobs.hpp, on every rank, even
/// under injected worker crashes and stragglers.

/// Per-job knobs shared by all ports; defaults match DistJob.
struct JobTuning {
  int reducers = 4;
  int records_per_task = 0;  // 0 = ~4 tasks per worker
  double map_cost_ops = 4e4;
  double reduce_cost_ops = 2e3;
};

std::vector<std::pair<std::string, long>> word_count(
    mp::Endpoint& comm, const std::vector<std::string>& documents,
    const JobTuning& tuning = {}, const ClusterOptions& options = {},
    const FaultPlan* faults = nullptr, ClusterProfile* profile = nullptr);

std::vector<std::pair<std::string, std::vector<int>>> inverted_index(
    mp::Endpoint& comm, const std::vector<std::string>& documents,
    const JobTuning& tuning = {}, const ClusterOptions& options = {},
    const FaultPlan* faults = nullptr, ClusterProfile* profile = nullptr);

std::vector<std::pair<std::string, long>> url_access_counts(
    mp::Endpoint& comm, const std::vector<std::string>& log_lines,
    const JobTuning& tuning = {}, const ClusterOptions& options = {},
    const FaultPlan* faults = nullptr, ClusterProfile* profile = nullptr);

std::vector<std::pair<int, std::string>> distributed_grep(
    mp::Endpoint& comm, const std::vector<std::string>& lines,
    const std::string& pattern, const JobTuning& tuning = {},
    const ClusterOptions& options = {}, const FaultPlan* faults = nullptr,
    ClusterProfile* profile = nullptr);

std::vector<std::pair<std::string, double>> mean_per_key(
    mp::Endpoint& comm,
    const std::vector<std::pair<std::string, double>>& samples,
    const JobTuning& tuning = {}, const ClusterOptions& options = {},
    const FaultPlan* faults = nullptr, ClusterProfile* profile = nullptr);

}  // namespace pblpar::cluster::jobs
