// Chaotic-wire benchmark: the ack/retry/dedup reliability layer against
// seeded transport chaos on the deterministic SimWorld. Results go to
// BENCH_chaos.json in the working directory.
//
// Phases:
//
//   1. goodput under drop — a fixed fan-in workload (every worker rank
//      streams payload messages to rank 0 through cluster::ReliableComm)
//      at 0%, 1% and 5% symmetric drop (data and acks both ride the
//      lossy wire). Goodput is payload bytes over virtual completion
//      time; every run must deliver exactly once, in order, with
//      nothing abandoned.
//   2. bounded retransmit overhead — retransmits / data_sent must stay
//      under a generous bound per drop level (a dropped data frame or a
//      dropped ack each cost one retransmit, so the expected overhead
//      is ~2p plus timer slack; the bars leave ~4x headroom).
//   3. byte-identity — the 5%-drop run repeated from the same seed must
//      replay its whole trajectory exactly: delivered contents, every
//      retry counter, and the virtual completion instant.
//
// Everything here is virtual-time and seeded, so the numbers are exact
// and --smoke (the bench-smoke ctest) only shrinks the workload.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/reliable.hpp"
#include "mp/chaos.hpp"
#include "mp/sim_world.hpp"

namespace {

using pblpar::cluster::ReliabilityOptions;
using pblpar::cluster::ReliableComm;
using pblpar::cluster::RetryStats;
using pblpar::mp::ClusterSpec;
using pblpar::mp::SimComm;
using pblpar::mp::SimWorld;

ReliabilityOptions bench_reliability() {
  ReliabilityOptions options;
  options.enabled = true;
  options.ack_timeout_s = 0.01;
  options.max_backoff_s = 0.1;
  options.jitter_s = 0.001;
  options.recv_timeout_s = 120.0;
  return options;
}

/// Keep servicing the wire after this rank's own work is flushed so a
/// peer whose last ack chaos ate can still finish its flush.
void linger(ReliableComm& reliable) {
  pblpar::mp::RawMessage raw;
  while (reliable.recv_raw_timed(pblpar::mp::kAnySource, /*tag=*/1 << 28,
                                 /*timeout_s=*/2.0, &raw)) {
  }
}

struct DropRun {
  double drop = 0.0;
  std::int64_t payload_bytes = 0;   // logical payload delivered
  double completion_s = 0.0;        // virtual time of the last delivery
  double goodput_mb_s = 0.0;
  std::uint64_t data_sent = 0;      // summed over sender ranks
  std::uint64_t retransmits = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t duplicates_dropped = 0;
  double overhead = 0.0;            // retransmits / data_sent
  bool delivered_exactly_once = false;
  bool pass = false;
};

/// Fingerprint of one run: retry counters per sender, a content
/// checksum, and the bit pattern of the completion instant.
struct RunTrace {
  DropRun row;
  std::vector<std::uint64_t> fingerprint;
};

RunTrace run_drop_level(double drop, int ranks, int messages_per_sender,
                        int doubles_per_message, double overhead_bar) {
  RunTrace trace;
  DropRun& row = trace.row;
  row.drop = drop;
  const int senders = ranks - 1;
  row.payload_bytes = static_cast<std::int64_t>(senders) *
                      messages_per_sender * doubles_per_message *
                      static_cast<std::int64_t>(sizeof(double));

  ClusterSpec spec;
  spec.chaos.seed = 42;
  spec.chaos.all.drop = drop;

  std::vector<RetryStats> stats(static_cast<std::size_t>(ranks));
  bool exactly_once = true;
  std::uint64_t checksum = 0;
  double completion = 0.0;
  SimWorld::run(
      ranks,
      [&](SimComm& comm) {
        ReliableComm reliable(comm, bench_reliability());
        if (comm.rank() != 0) {
          std::vector<double> payload(
              static_cast<std::size_t>(doubles_per_message));
          for (int m = 0; m < messages_per_sender; ++m) {
            for (std::size_t i = 0; i < payload.size(); ++i) {
              payload[i] = comm.rank() * 1e6 + m + static_cast<double>(i);
            }
            reliable.send(0, 7, payload);
          }
          if (reliable.flush() != 0) {
            exactly_once = false;  // abandoned payload never landed
          }
        } else {
          // In-order per link: drain each sender round-robin and verify
          // both ordering and contents as they arrive.
          for (int m = 0; m < messages_per_sender; ++m) {
            for (int s = 1; s < ranks; ++s) {
              const std::vector<double> payload =
                  reliable.recv<std::vector<double>>(s, 7);
              if (payload.size() !=
                      static_cast<std::size_t>(doubles_per_message) ||
                  payload[0] != s * 1e6 + m) {
                exactly_once = false;
              }
              checksum = checksum * 1099511628211ULL +
                         static_cast<std::uint64_t>(payload[0]);
            }
          }
          completion = comm.context().now();
        }
        stats[static_cast<std::size_t>(comm.rank())] = reliable.retry_stats();
        linger(reliable);
      },
      spec);

  for (const RetryStats& s : stats) {
    row.data_sent += s.data_sent;
    row.retransmits += s.retransmits;
    row.abandoned += s.abandoned;
    row.duplicates_dropped += s.duplicates_dropped;
  }
  row.completion_s = completion;
  row.goodput_mb_s =
      static_cast<double>(row.payload_bytes) / 1.0e6 / completion;
  row.overhead = row.data_sent > 0 ? static_cast<double>(row.retransmits) /
                                         static_cast<double>(row.data_sent)
                                   : 0.0;
  row.delivered_exactly_once = exactly_once;
  row.pass = exactly_once && row.abandoned == 0 &&
             row.overhead <= overhead_bar;

  for (const RetryStats& s : stats) {
    trace.fingerprint.push_back(s.data_sent);
    trace.fingerprint.push_back(s.retransmits);
    trace.fingerprint.push_back(s.acks_sent);
    trace.fingerprint.push_back(s.acks_received);
    trace.fingerprint.push_back(s.duplicates_dropped);
    trace.fingerprint.push_back(s.out_of_order_stashed);
  }
  trace.fingerprint.push_back(checksum);
  std::uint64_t time_bits = 0;
  std::memcpy(&time_bits, &completion, sizeof(time_bits));
  trace.fingerprint.push_back(time_bits);
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  const int ranks = 4;
  const int messages = smoke ? 40 : 400;
  const int doubles = smoke ? 256 : 1024;  // 2 KiB / 8 KiB per message

  // Expected retransmit fraction at symmetric drop p is ~2p (a lost
  // data frame or a lost ack each cost one resend), cascading a little;
  // the bars leave ~4x headroom so only a broken retry loop trips them.
  const double kDrops[3] = {0.0, 0.01, 0.05};
  const double kOverheadBars[3] = {0.02, 0.10, 0.40};

  RunTrace traces[3];
  for (int i = 0; i < 3; ++i) {
    traces[i] =
        run_drop_level(kDrops[i], ranks, messages, doubles, kOverheadBars[i]);
    const DropRun& row = traces[i].row;
    std::printf(
        "drop %.0f%%: %lld KiB in %.4fs virtual -> %.2f MB/s goodput, "
        "%llu data + %llu retransmit(s) (overhead %.4f, bar %.2f), "
        "%llu dup(s) dropped, abandoned=%llu exactly_once=%s pass=%s\n",
        row.drop * 100.0, static_cast<long long>(row.payload_bytes >> 10),
        row.completion_s, row.goodput_mb_s,
        static_cast<unsigned long long>(row.data_sent),
        static_cast<unsigned long long>(row.retransmits), row.overhead,
        kOverheadBars[i],
        static_cast<unsigned long long>(row.duplicates_dropped),
        static_cast<unsigned long long>(row.abandoned),
        row.delivered_exactly_once ? "yes" : "no", row.pass ? "yes" : "no");
  }

  // Chaos must actually bite at 5% — otherwise the overhead bars above
  // are vacuous.
  const bool chaos_bit = traces[2].row.retransmits > 0;

  // Byte-identity: the 5%-drop trajectory replays exactly from its seed.
  const RunTrace replay =
      run_drop_level(kDrops[2], ranks, messages, doubles, kOverheadBars[2]);
  const bool identical = replay.fingerprint == traces[2].fingerprint;
  std::printf("replay: 5%%-drop run repeated -> %s (%zu fingerprint words)\n",
              identical ? "bit-identical" : "DIVERGED",
              replay.fingerprint.size());

  const bool pass = traces[0].row.pass && traces[1].row.pass &&
                    traces[2].row.pass && chaos_bit && identical;
  std::printf("checks: goodput_rows=%s chaos_bit=%s replay_identical=%s\n",
              (traces[0].row.pass && traces[1].row.pass && traces[2].row.pass)
                  ? "yes"
                  : "no",
              chaos_bit ? "yes" : "no", identical ? "yes" : "no");

  std::string json = "{\n  \"bench\": \"ubench_chaos\",\n";
  json += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  json += "  \"drop_levels\": [\n";
  char buffer[512];
  for (int i = 0; i < 3; ++i) {
    const DropRun& row = traces[i].row;
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"drop\":%.2f,\"payload_bytes\":%lld,\"completion_s\":%.6f,"
        "\"goodput_mb_s\":%.3f,\"data_sent\":%llu,\"retransmits\":%llu,"
        "\"duplicates_dropped\":%llu,\"abandoned\":%llu,\"overhead\":%.4f,"
        "\"overhead_bar\":%.2f,\"exactly_once\":%s,\"pass\":%s}%s\n",
        row.drop, static_cast<long long>(row.payload_bytes),
        row.completion_s, row.goodput_mb_s,
        static_cast<unsigned long long>(row.data_sent),
        static_cast<unsigned long long>(row.retransmits),
        static_cast<unsigned long long>(row.duplicates_dropped),
        static_cast<unsigned long long>(row.abandoned), row.overhead,
        kOverheadBars[i], row.delivered_exactly_once ? "true" : "false",
        row.pass ? "true" : "false", i < 2 ? "," : "");
    json += buffer;
  }
  json += "  ],\n";
  std::snprintf(buffer, sizeof(buffer),
                "  \"chaos_bit\": %s,\n  \"replay_identical\": %s,\n"
                "  \"pass\": %s\n}\n",
                chaos_bit ? "true" : "false", identical ? "true" : "false",
                pass ? "true" : "false");
  json += buffer;

  std::ofstream out("BENCH_chaos.json");
  out << json;
  out.close();
  std::printf("wrote BENCH_chaos.json\n");
  return pass ? 0 : 1;
}
