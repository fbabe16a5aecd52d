// TeachMPI data-path benchmark: the zero-copy payload pipeline and the
// large-payload collectives against in-bench naive baselines that
// replicate the old per-hop decode/re-encode algorithms. Results go to
// BENCH_mp.json in the working directory.
//
// Phases:
//
//   1. large bcast — the zero-copy consumer path (a payload already in
//      wire form, broadcast raw through refcounted frames, read through
//      a typed view) vs a naive binomial tree that decodes and
//      re-encodes the payload at every hop (the pre-overhaul
//      algorithm). Bar: >= 2x at 8 ranks, 2 MiB.
//   2. large allgather — allgather_view (move-in, O(n) messages, one
//      packed broadcast frame aliased by every view) vs the old
//      algorithm verbatim: typed gather, non-root prefill of the result
//      with n copies of the local value, then one per-hop-copy bcast
//      per rank. Same bar.
//   3. copy discipline — instrumented codec counters prove the new
//      bcast copies each payload byte at most once per rank, and a
//      move-send -> recv_view round trip copies nothing at all.
//   4. ring allreduce — the generalized ring on a count that does not
//      divide by the world size, checked for exact int64 sums.
//   5. allgather message count — on the deterministic SimWorld, the new
//      allgather must cost exactly 2(n-1) messages (O(n), down from
//      n*ceil(log2 n)).
//
// Timing bars only hold on an otherwise-idle box; --smoke (the
// bench-smoke ctest) keeps every structural/counter check and drops the
// speedup ratios.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mp/sim_world.hpp"
#include "mp/world.hpp"

namespace {

namespace bench = pblpar::bench;
using pblpar::mp::Buffer;
using pblpar::mp::Codec;
using pblpar::mp::Comm;
using pblpar::mp::CopyStats;
using pblpar::mp::PayloadView;
using pblpar::mp::SimComm;
using pblpar::mp::SimWorld;
using pblpar::mp::World;
using pblpar::mp::WorldOptions;

WorldOptions bench_options() {
  WorldOptions options;
  options.recv_timeout_s = 60.0;
  return options;
}

// --- naive baselines: the pre-overhaul collective algorithms ---------------
//
// Same binomial tree shape as the current code, but every hop receives
// into a fresh container (decode copy + allocation) and re-encodes for
// each child (encode copy + allocation) — store-and-forward with two
// copies per edge, exactly what the element-wise bcast used to do.

constexpr int kNaiveTag = 1001;

template <class T>
void naive_bcast(Comm& comm, T& value, int root) {
  const int size = comm.size();
  const int relative = (comm.rank() - root + size) % size;
  int mask = 1;
  int parent = -1;
  while (mask < size) {
    if ((relative & mask) != 0) {
      parent = ((relative ^ mask) + root) % size;
      break;
    }
    mask <<= 1;
  }
  if (parent >= 0) {
    value = comm.recv<T>(parent, kNaiveTag);
  }
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (relative + m < size) {
      const int child = (relative + m + root) % size;
      comm.send(child, kNaiveTag, value);  // lvalue: encode copy per child
    }
  }
}

// The seed allgather, replicated faithfully: a typed gather to rank 0
// (encode + decode copy per message), a prefill of the non-root result
// vectors with n copies of the local value (the old gather returned {}
// off-root, so the old allgather shaped its result by assignment), then
// one naive bcast per result slot rooted at 0, each hop paying its
// decode + re-encode.
template <class T>
std::vector<T> naive_allgather(Comm& comm, const T& value) {
  std::vector<T> collected;
  if (comm.rank() == 0) {
    collected.assign(static_cast<std::size_t>(comm.size()), value);
    for (int r = 1; r < comm.size(); ++r) {
      collected[static_cast<std::size_t>(r)] = comm.recv<T>(r, kNaiveTag);
    }
  } else {
    comm.send(0, kNaiveTag, value);  // lvalue: encode copy
    collected.assign(static_cast<std::size_t>(comm.size()), value);
  }
  for (int r = 0; r < comm.size(); ++r) {
    naive_bcast(comm, collected[static_cast<std::size_t>(r)], 0);
  }
  return collected;
}

/// Per-repetition wall time of `op` (rank 0's samples are reported),
/// with barriers fencing every repetition so all ranks enter and leave
/// together.
template <class Op>
bench::Samples timed_collective(Comm& comm, int reps, Op&& op) {
  return bench::trials(reps, [&] {
    comm.barrier();
    return bench::elapsed_s([&] {
      op();
      comm.barrier();
    });
  });
}

/// naive vs new, each the best of its repetitions.
struct SpeedupRow {
  int ranks = 0;
  std::int64_t payload_bytes = 0;
  bench::Samples naive;
  bench::Samples fresh;
  double speedup = 0.0;
  bool correct = false;
  bool pass = false;
};

SpeedupRow run_bcast_phase(int ranks, std::size_t doubles, int reps,
                           double bar) {
  SpeedupRow row;
  row.ranks = ranks;
  row.payload_bytes =
      static_cast<std::int64_t>(doubles * sizeof(double));
  bool correct = true;
  World::run(
      ranks,
      [&](Comm& comm) {
        std::vector<double> seed(doubles);
        for (std::size_t i = 0; i < doubles; ++i) {
          seed[i] = static_cast<double>(i % 8191) * 0.5;
        }
        // The new consumer keeps its payload in wire form, as the
        // MapReduce shuffle does: a refcounted Buffer, broadcast raw and
        // read through a typed view at every rank.
        Buffer blob;
        if (comm.rank() == 0) {
          blob = Codec<std::vector<double>>::encode(
              std::vector<double>(seed));
        }

        bench::Samples naive = timed_collective(comm, reps, [&] {
          std::vector<double> data;
          if (comm.rank() == 0) {
            data = seed;
          }
          naive_bcast(comm, data, 0);
          if (data.size() != doubles || data[1] != seed[1]) {
            correct = false;
          }
        });
        bench::Samples fresh = timed_collective(comm, reps, [&] {
          Buffer data = comm.rank() == 0 ? blob : Buffer{};
          comm.bcast_raw(data, 0);
          const std::span<const double> view =
              Codec<std::vector<double>>::view(data);
          if (view.size() != doubles || view[1] != seed[1]) {
            correct = false;
          }
        });
        if (comm.rank() == 0) {
          row.naive = std::move(naive);
          row.fresh = std::move(fresh);
        }
      },
      bench_options());
  row.speedup = row.naive.min() / row.fresh.min();
  row.correct = correct;
  row.pass = correct && row.speedup >= bar;
  return row;
}

SpeedupRow run_allgather_phase(int ranks, std::size_t doubles_per_rank,
                               int reps, double bar) {
  SpeedupRow row;
  row.ranks = ranks;
  row.payload_bytes =
      static_cast<std::int64_t>(doubles_per_rank * sizeof(double));
  bool correct = true;
  World::run(
      ranks,
      [&](Comm& comm) {
        std::vector<double> mine(doubles_per_rank);
        for (std::size_t i = 0; i < doubles_per_rank; ++i) {
          mine[i] = comm.rank() + static_cast<double>(i % 509);
        }
        const auto check = [&](const std::vector<std::vector<double>>& all) {
          if (all.size() != static_cast<std::size_t>(comm.size())) {
            correct = false;
            return;
          }
          for (int r = 0; r < comm.size(); ++r) {
            const auto& got = all[static_cast<std::size_t>(r)];
            if (got.size() != doubles_per_rank ||
                got[1] != r + static_cast<double>(1 % 509)) {
              correct = false;
            }
          }
        };

        bench::Samples naive = timed_collective(
            comm, reps, [&] { check(naive_allgather(comm, mine)); });
        // The new consumer moves its vector in and reads every rank's
        // elements through views of the one packed broadcast frame. The
        // scratch copy keeps `mine` reusable across reps and is charged
        // to the new path's time.
        bench::Samples fresh = timed_collective(comm, reps, [&] {
          std::vector<double> scratch = mine;
          const std::vector<PayloadView<double>> views =
              comm.allgather_view(std::move(scratch));
          if (views.size() != static_cast<std::size_t>(comm.size())) {
            correct = false;
            return;
          }
          for (int r = 0; r < comm.size(); ++r) {
            const PayloadView<double>& view =
                views[static_cast<std::size_t>(r)];
            if (view.size() != doubles_per_rank ||
                view[1] != r + static_cast<double>(1 % 509)) {
              correct = false;
            }
          }
        });
        if (comm.rank() == 0) {
          row.naive = std::move(naive);
          row.fresh = std::move(fresh);
        }
      },
      bench_options());
  row.speedup = row.naive.min() / row.fresh.min();
  row.correct = correct;
  row.pass = correct && row.speedup >= bar;
  return row;
}

struct CopyDisciplineResult {
  int ranks = 0;
  std::int64_t payload_bytes = 0;
  double bcast_copies_per_rank = 0.0;  // copied bytes / (ranks * payload)
  std::uint64_t zero_copy_copies = 0;  // move-send -> recv_view round
  bool pass = false;
};

CopyDisciplineResult run_copy_discipline(int ranks, std::size_t bytes) {
  CopyDisciplineResult result;
  result.ranks = ranks;
  result.payload_bytes = static_cast<std::int64_t>(bytes);

  // Instrumented bcast: one encode at the root plus one assembly per
  // non-root rank — `ranks` whole-payload copies in total, nothing per
  // tree edge. The counters are process-global, so the whole world is
  // accounted at once (barrier frames carry empty payloads).
  double copied = 0.0;
  World::run(
      ranks,
      [&](Comm& comm) {
        std::string text;
        if (comm.rank() == 0) {
          text.assign(bytes, 'b');
        }
        comm.barrier();
        if (comm.rank() == 0) {
          pblpar::mp::payload_copy_reset_stats();
        }
        comm.bcast(text, 0);
        comm.barrier();
        if (comm.rank() == 0) {
          copied = static_cast<double>(pblpar::mp::payload_copy_stats().bytes);
        }
      },
      bench_options());
  result.bcast_copies_per_rank =
      copied / (static_cast<double>(ranks) * static_cast<double>(bytes));

  // Move-of-ownership send into a zero-copy typed view: no counted
  // payload copy anywhere on the path.
  std::uint64_t copies = ~std::uint64_t{0};
  World::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          std::vector<std::uint64_t> values(bytes / sizeof(std::uint64_t), 7);
          pblpar::mp::payload_copy_reset_stats();
          comm.send(1, 1, std::move(values));
          (void)comm.recv<std::int32_t>(1, 2);  // ack: view consumed
          copies = pblpar::mp::payload_copy_stats().copies;
          // The ack decode above counted one tiny scalar copy.
          copies -= 1;
        } else {
          const PayloadView<std::uint64_t> view =
              comm.recv_view<std::uint64_t>(0, 1);
          std::uint64_t sum = 0;
          for (const std::uint64_t v : view) {
            sum += v;
          }
          comm.send(0, 2, static_cast<std::int32_t>(sum % 97));
        }
      },
      bench_options());
  result.zero_copy_copies = copies;

  // The ack encode on rank 1 also counts one scalar copy; allow the two
  // 4-byte frames, nothing payload-sized.
  result.pass = result.bcast_copies_per_rank <= 1.01 &&
                result.zero_copy_copies <= 1;
  return result;
}

struct RingResult {
  int ranks = 0;
  std::int64_t elements = 0;
  bool exact = false;
  bool pass = false;
};

RingResult run_ring_phase(int ranks, std::int64_t elements) {
  RingResult result;
  result.ranks = ranks;
  result.elements = elements;
  bool exact = true;
  World::run(
      ranks,
      [&](Comm& comm) {
        std::vector<std::int64_t> data(static_cast<std::size_t>(elements));
        for (std::size_t i = 0; i < data.size(); ++i) {
          data[i] = comm.rank() + 1 + static_cast<std::int64_t>(i % 13);
        }
        comm.ring_allreduce(
            data, [](std::int64_t a, std::int64_t b) { return a + b; });
        const std::int64_t n = comm.size();
        for (std::size_t i = 0; i < data.size(); ++i) {
          const std::int64_t expected =
              n * (n + 1) / 2 + n * static_cast<std::int64_t>(i % 13);
          if (data[i] != expected) {
            exact = false;
            break;
          }
        }
      },
      bench_options());
  result.exact = exact;
  result.pass = exact;
  return result;
}

struct MessageCountResult {
  int ranks = 0;
  std::uint64_t messages = 0;
  std::uint64_t expected = 0;
  bool pass = false;
};

MessageCountResult run_message_count(int ranks) {
  MessageCountResult result;
  result.ranks = ranks;
  result.expected = static_cast<std::uint64_t>(2 * (ranks - 1));
  const pblpar::mp::ClusterReport report =
      SimWorld::run(ranks, [](SimComm& comm) {
        const std::vector<std::int32_t> all = comm.allgather(comm.rank());
        if (all.size() != static_cast<std::size_t>(comm.size())) {
          std::abort();
        }
      });
  result.messages = report.messages;
  result.pass = result.messages == result.expected;
  return result;
}

/// A speedup row: naive vs new, each the min over its repetitions.
bench::Json speedup_json(const SpeedupRow& row) {
  bench::Json json = bench::Json::object(
      {{"ranks", row.ranks}, {"payload_bytes", row.payload_bytes}});
  bench::put_timing(json, "naive_", row.naive.min(), row.naive);
  bench::put_timing(json, "new_", row.fresh.min(), row.fresh);
  return json.set("speedup", row.speedup)
      .set("correct", row.correct)
      .set("pass", row.pass);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::Json doc = bench::document("ubench_mp", smoke);

  const int ranks = 8;
  const double bar =
      smoke ? 0.0 : 2.0;  // --smoke keeps correctness, drops the ratio
  const std::size_t bcast_doubles =
      smoke ? (std::size_t{1} << 16) : (std::size_t{1} << 18);  // 2 MiB full
  const std::size_t gather_doubles =
      smoke ? (std::size_t{1} << 13) : (std::size_t{1} << 15);  // 256 KiB/rank
  const int reps = smoke ? 1 : 5;

  const SpeedupRow bcast =
      run_bcast_phase(ranks, bcast_doubles, reps, bar);
  doc.set("bcast", bench::show("bcast", speedup_json(bcast)));

  const SpeedupRow gather =
      run_allgather_phase(ranks, gather_doubles, reps, bar);
  doc.set("allgather", bench::show("allgather", speedup_json(gather)));

  // Bars: <= 1.01 whole-payload copies per rank for the bcast, and at
  // most the one 4-byte ack frame for the move-send -> view round trip.
  const CopyDisciplineResult copies = run_copy_discipline(
      4, smoke ? (std::size_t{1} << 19) : (std::size_t{1} << 21));
  doc.set("copy_discipline",
          bench::show("copy_discipline",
                      bench::Json::object(
                          {{"ranks", copies.ranks},
                           {"payload_bytes", copies.payload_bytes},
                           {"bcast_copies_per_rank",
                            copies.bcast_copies_per_rank},
                           {"zero_copy_copies", copies.zero_copy_copies},
                           {"pass", copies.pass}})));

  // A count that does not divide by the world size.
  const RingResult ring = run_ring_phase(ranks, 100'003);
  doc.set("ring_allreduce",
          bench::show("ring_allreduce",
                      bench::Json::object({{"ranks", ring.ranks},
                                           {"elements", ring.elements},
                                           {"exact", ring.exact},
                                           {"pass", ring.pass}})));

  // Expected: 2(n-1) messages on n Sim ranks.
  const MessageCountResult messages = run_message_count(ranks);
  doc.set("allgather_messages",
          bench::show("allgather_messages",
                      bench::Json::object({{"ranks", messages.ranks},
                                           {"messages", messages.messages},
                                           {"expected", messages.expected},
                                           {"pass", messages.pass}})));

  bench::Checks checks;
  checks.add("bcast>=2x", bcast.pass);
  checks.add("allgather>=2x", gather.pass);
  checks.add("copies<=1/hop", copies.pass);
  checks.add("ring_exact", ring.pass);
  checks.add("messages_linear", messages.pass);
  checks.print();
  doc.set("pass", checks.all());
  bench::write_json("BENCH_mp.json", doc);
  return checks.all() ? 0 : 1;
}
