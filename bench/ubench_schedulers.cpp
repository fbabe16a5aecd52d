// Scheduler shoot-out for the TeachMP runtime: static / dynamic / guided
// against the work-stealing schedule, on a uniform and a tail-heavy cost
// profile, across thread counts — plus region-launch latency (persistent
// pool vs per-region spawn) and the devirtualized for_each against the
// std::function-based for_loop on a trivial body.
//
// Host rows are real time (min over repeats); launch rows are medians of
// per-region samples (launch cost is paid on every region, so the typical
// cost is the honest number, and the median shrugs off the occasional
// region that eats a scheduler preemption mid-handoff); Sim rows are
// deterministic virtual Pi time, where dynamic,1's
// serialized shared-counter claims and steal's mostly-local deque pops
// are modelled explicitly. Results go to BENCH_rt.json in the working
// directory.
//
// --smoke runs a tiny shape in well under a second; the bench-smoke ctest
// label uses it so the bench binary itself stays exercised by the suite.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness.hpp"
#include "mp/comm.hpp"
#include "mp/mailbox.hpp"
#include "rt/cancel.hpp"
#include "rt/for_each.hpp"
#include "rt/parallel.hpp"

namespace {

using namespace pblpar;
using bench::Samples;

/// Busy work proportional to `units`; volatile so the optimizer keeps it.
void spin(std::int64_t units) {
  volatile double sink = 0.0;
  for (std::int64_t k = 0; k < units; ++k) {
    sink = sink + static_cast<double>(k);
  }
}

/// Host run of `total` iterations where [heavy_from, total) spin
/// `heavy_units` and the rest `base_units`; one sample per repeat (the
/// row reports the min). The warm pool is part of what is measured:
/// regions launch on parked workers, exactly like the second and later
/// regions of any real program.
Samples time_host_loop(int threads, rt::Schedule schedule, std::int64_t total,
                       std::int64_t heavy_from, std::int64_t base_units,
                       std::int64_t heavy_units, int repeats) {
  rt::warm_up(rt::ParallelConfig::host(threads));
  return bench::trials(repeats, [&] {
    rt::parallel(rt::ParallelConfig::host(threads), [&](rt::TeamContext& tc) {
      rt::for_each(tc, rt::Range::upto(total), schedule,
                   [&](std::int64_t i) {
                     spin(i >= heavy_from ? heavy_units : base_units);
                   });
    });
  });
}

/// A host team whose pool workers already exist: one untimed region
/// first, so the timed ones launch on parked workers.
rt::ParallelConfig warm_config(int threads) {
  const rt::ParallelConfig config = rt::ParallelConfig::host(threads);
  rt::parallel(config, [](rt::TeamContext&) {});
  return config;
}

/// Latency of an empty parallel region — the pure launch + join cost.
/// Each region is timed individually and the row reports the median: on
/// a loaded machine a few samples absorb a preemption mid-handoff, and
/// those tails say nothing about what a region launch costs.
Samples time_region_launch(int threads, int repeats) {
  const rt::ParallelConfig config = warm_config(threads);
  return bench::trials(repeats,
                       [&] { rt::parallel(config, [](rt::TeamContext&) {}); });
}

/// The spawn baseline: what one empty region cost before pools existed.
/// Start threads - 1 fresh jthreads, run member 0's empty body on the
/// caller, and join — after one untimed round so the allocator and
/// thread stacks are warm.
Samples time_spawn_launch(int threads, int repeats) {
  const auto spawn_team = [threads] {
    std::vector<std::jthread> members;
    members.reserve(static_cast<std::size_t>(threads - 1));
    for (int tid = 1; tid < threads; ++tid) {
      members.emplace_back([] {});
    }
  };  // the caller's member 0 body is empty; the jthreads join here
  spawn_team();
  return bench::trials(repeats, spawn_team);
}

/// Latency from an external cancel() to rt::Cancelled surfacing out of
/// the region — the cooperative drain cost the runtime promises.
/// A helper thread waits until the loop has demonstrably started, stamps
/// the clock, and cancels; the region runs dynamic,1 over a range far too
/// large to finish, so every sample measures the drain, not completion.
Samples time_cancel_drain(int threads, int repeats) {
  const rt::ParallelConfig base = warm_config(threads);
  return bench::trials(repeats, [&] {
    double sample = 0.0;
    rt::CancelSource source;
    std::atomic<bool> started{false};
    std::atomic<std::int64_t> cancelled_at_ns{0};
    std::thread canceller([&] {
      while (!started.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      cancelled_at_ns.store(std::chrono::steady_clock::now()
                                .time_since_epoch()
                                .count(),
                            std::memory_order_release);
      source.cancel();
    });
    try {
      rt::parallel(
          base.cancellable(source.token()), [&](rt::TeamContext& tc) {
            rt::for_each(tc, rt::Range::upto(std::int64_t{1} << 30),
                         rt::Schedule::dynamic(1), [&](std::int64_t) {
                           started.store(true, std::memory_order_release);
                           spin(16);
                         });
          });
    } catch (const rt::Cancelled&) {
      const auto end_ns =
          std::chrono::steady_clock::now().time_since_epoch().count();
      sample = static_cast<double>(
                   end_ns - cancelled_at_ns.load(std::memory_order_acquire)) *
               1e-9;
    }
    canceller.join();
    return sample;
  });
}

/// Deterministic Sim run of the same shape: the body is free, the cost
/// model charges the per-iteration ops, and the backend charges its own
/// claim costs (serialized shared counter vs mostly-local deque pops).
double sim_loop_makespan(int threads, rt::Schedule schedule,
                         std::int64_t total, std::int64_t heavy_from,
                         double base_ops, double heavy_ops) {
  rt::CostModel cost;
  cost.ops_fn = [=](std::int64_t i) {
    return i >= heavy_from ? heavy_ops : base_ops;
  };
  const rt::RunResult run = rt::parallel_for(
      rt::ParallelConfig::sim_pi(threads), rt::Range::upto(total), schedule,
      [](std::int64_t) {}, cost);
  return run.elapsed_seconds();
}

/// Trivial-body loop through either the templated for_each (body inlined)
/// or the std::function for_loop (one indirect call per iteration).
Samples time_trivial_loop(bool devirtualized, std::int64_t total,
                          int repeats) {
  std::vector<double> data(static_cast<std::size_t>(total), 0.0);
  const auto body = [&data](std::int64_t i) {
    data[static_cast<std::size_t>(i)] =
        0.5 * static_cast<double>(i) + 1.0;
  };
  const Samples samples = bench::trials(repeats, [&] {
    rt::parallel(rt::ParallelConfig::host(1), [&](rt::TeamContext& tc) {
      if (devirtualized) {
        rt::for_each(tc, rt::Range::upto(total), rt::Schedule::static_block(),
                     body);
      } else {
        rt::for_loop(tc, rt::Range::upto(total), rt::Schedule::static_block(),
                     body);
      }
    });
  });
  volatile double keep = data[static_cast<std::size_t>(total / 2)];
  (void)keep;
  return samples;
}

// --- Lock-free core baselines -----------------------------------------

/// The mutex+condvar mailbox the lock-free MPSC queue replaced, reduced
/// to what the ping-pong needs: push with notify_all (the old behaviour)
/// and a timed any-message pop under the same lock.
class LockedMailbox {
 public:
  void push(mp::RawMessage message) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      queue_.push_back(std::move(message));
    }
    cv_.notify_all();
  }

  bool pop(mp::RawMessage* out, double timeout_s) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_s));
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_until(lock, deadline, [&] { return !queue_.empty(); })) {
      return false;
    }
    *out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<mp::RawMessage> queue_;
};

mp::RawMessage ping_message() {
  mp::RawMessage message;
  message.source = 0;
  message.tag = 0;
  message.type_hash = mp::type_hash_of<int>();
  message.payload = mp::Codec<int>::encode(1);
  return message;
}

/// Per-round-trip latency of a two-mailbox ping-pong through the locked
/// baseline: one sample per block of `round_trips` exchanges, and the
/// check reads the min (the same min-over-repeats the loop rows use — a
/// context-switch storm in one block should not masquerade as mailbox
/// cost). One untimed warm-up exchange parks/wakes both sides before any
/// clock starts.
Samples time_mailbox_rtt_locked(int round_trips, int repeats) {
  LockedMailbox to_echo;
  LockedMailbox to_origin;
  std::thread echo([&] {
    mp::RawMessage message;
    for (int i = 0; i < repeats * round_trips + 1; ++i) {
      to_echo.pop(&message, 60.0);
      to_origin.push(message);
    }
  });
  mp::RawMessage back;
  to_echo.push(ping_message());
  to_origin.pop(&back, 60.0);  // warm-up exchange
  const Samples samples = bench::trials(repeats, [&] {
    return bench::elapsed_s([&] {
             for (int i = 0; i < round_trips; ++i) {
               to_echo.push(ping_message());
               to_origin.pop(&back, 60.0);
             }
           }) /
           round_trips;
  });
  echo.join();
  return samples;
}

/// Same ping-pong through the real lock-free mp::Mailbox. Each box has
/// exactly one consumer (echo drains to_echo, main drains to_origin), so
/// the MPSC single-consumer invariant holds.
Samples time_mailbox_rtt_lockfree(int round_trips, int repeats) {
  mp::AbortState abort;
  mp::Mailbox to_echo(abort, 60.0, 1);
  mp::Mailbox to_origin(abort, 60.0, 0);
  std::thread echo([&] {
    mp::RawMessage message;
    for (int i = 0; i < repeats * round_trips + 1; ++i) {
      to_echo.pop_matching_timed(mp::kAnySource, mp::kAnyTag, 60.0,
                                 &message);
      to_origin.push(message);
    }
  });
  mp::RawMessage back;
  to_echo.push(ping_message());
  to_origin.pop_matching_timed(mp::kAnySource, mp::kAnyTag, 60.0, &back);
  const Samples samples = bench::trials(repeats, [&] {
    return bench::elapsed_s([&] {
             for (int i = 0; i < round_trips; ++i) {
               to_echo.push(ping_message());
               to_origin.pop_matching_timed(mp::kAnySource, mp::kAnyTag,
                                            60.0, &back);
             }
           }) /
           round_trips;
  });
  echo.join();
  return samples;
}

/// A launch row: spawn vs pool at one team width, as medians.
bench::Json spawn_pool_json(int threads, const Samples& spawn,
                            const Samples& pool) {
  bench::Json json = bench::Json::object({{"threads", threads}});
  bench::put_timing(json, "spawn_", spawn.median(), spawn);
  bench::put_timing(json, "pool_", pool.median(), pool);
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::Json doc = bench::document("ubench_schedulers", smoke);

  // Shape: `total` iterations of a small spin; the skewed profile makes
  // the last eighth `kHeavyFactor` times heavier — the tail a static
  // block split dumps on the last thread, and enough cheap iterations
  // that dynamic,1's per-iteration claim overhead is visible.
  const std::int64_t total = smoke ? 4096 : (1 << 17);
  const std::int64_t base_units = 16;
  constexpr std::int64_t kHeavyFactor = 24;
  const int repeats = smoke ? 2 : 15;
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{2, 4} : std::vector<int>{1, 2, 4, 8};

  const std::vector<rt::Schedule> schedules = {
      rt::Schedule::static_block(), rt::Schedule::dynamic(1),
      rt::Schedule::dynamic(16), rt::Schedule::guided(1),
      rt::Schedule::steal()};

  // Each loop row's seconds (host: min over repeats; sim: virtual time),
  // keyed by (backend, profile, threads, schedule) for the checks.
  std::map<std::tuple<std::string, std::string, int, std::string>, double>
      loop_seconds;
  bench::Json loops = bench::Json::array();
  const auto add_loop = [&](const char* backend, const char* profile,
                            int threads, const rt::Schedule& schedule,
                            double seconds, const Samples* samples) {
    loop_seconds[{backend, profile, threads, schedule.to_string()}] = seconds;
    bench::Json row = bench::Json::object({{"backend", backend},
                                           {"profile", profile},
                                           {"threads", threads},
                                           {"schedule", schedule.to_string()}});
    if (samples != nullptr) {
      bench::put_timing(row, "", seconds, *samples);
    } else {
      row.set("seconds", seconds);
    }
    loops.push(bench::show("loop", std::move(row)));
  };
  for (const char* profile : {"uniform", "skewed"}) {
    const bool skewed = std::strcmp(profile, "skewed") == 0;
    const std::int64_t heavy_from = skewed ? total - total / 8 : total;
    for (const int threads : thread_counts) {
      for (const rt::Schedule& schedule : schedules) {
        const Samples samples =
            time_host_loop(threads, schedule, total, heavy_from, base_units,
                           base_units * kHeavyFactor, repeats);
        add_loop("host", profile, threads, schedule, samples.min(), &samples);
      }
    }
  }

  // Sim rows: virtual Pi time, deterministic. Same shape scaled down (the
  // simulator retires one event per claim/chunk, so fewer iterations keep
  // the bench quick) with ops chosen so claim overhead matters.
  const std::int64_t sim_total = smoke ? 1024 : 8192;
  const std::int64_t sim_heavy_from = sim_total - sim_total / 8;
  for (const int threads : thread_counts) {
    for (const rt::Schedule& schedule : schedules) {
      add_loop("sim", "skewed", threads, schedule,
               sim_loop_makespan(threads, schedule, sim_total, sim_heavy_from,
                                 2e3, 2e3 * kHeavyFactor),
               nullptr);
    }
  }
  doc.set("loops", std::move(loops));

  // The pool and cancel checks read the Pi-class team width.
  const int pool_check_threads =
      std::find(thread_counts.begin(), thread_counts.end(), 4) !=
              thread_counts.end()
          ? 4
          : thread_counts.back();

  // Region-launch latency: what one empty parallel() costs on the
  // persistent pool (parked workers, generation handoff) vs spawning
  // fresh threads per region — the number that decides whether a
  // thread-count sweep measures the loop or the fork.
  const int launch_repeats = smoke ? 50 : 500;
  bench::Json launch = bench::Json::array();
  double spawn_launch_s = 0.0;
  double pool_launch_s = 0.0;
  for (const int threads : thread_counts) {
    const Samples spawn = time_spawn_launch(threads, launch_repeats);
    const Samples pool = time_region_launch(threads, launch_repeats);
    launch.push(bench::show("launch", spawn_pool_json(threads, spawn, pool)));
    if (threads == pool_check_threads) {
      spawn_launch_s = spawn.median();
      pool_launch_s = pool.median();
    }
  }
  doc.set("launch", std::move(launch));

  // Cancellation-drain latency: how long after an external cancel() the
  // region actually returns control (as rt::Cancelled) on the pool.
  // Chunk-boundary polling means this is roughly one dynamic,1 chunk plus
  // the abortable-barrier drain — it must stay in launch-latency
  // territory, not loop-runtime territory.
  const int cancel_repeats = smoke ? 10 : 100;
  bench::Json cancel = bench::Json::array();
  double pool_cancel_s = 0.0;
  for (const int threads : thread_counts) {
    const Samples pool = time_cancel_drain(threads, cancel_repeats);
    bench::Json row = bench::Json::object({{"threads", threads}});
    bench::put_timing(row, "pool_", pool.median(), pool);
    cancel.push(bench::show("cancel", std::move(row)));
    if (threads == pool_check_threads) {
      pool_cancel_s = pool.median();
    }
  }
  doc.set("cancel", std::move(cancel));

  // Devirtualization: identical trivial body through both drivers.
  const std::int64_t devirt_total = smoke ? (1 << 16) : (1 << 21);
  const int devirt_repeats = smoke ? 2 : 7;
  const Samples wrapper = time_trivial_loop(false, devirt_total,
                                            devirt_repeats);
  const Samples inlined = time_trivial_loop(true, devirt_total,
                                            devirt_repeats);
  bench::Json devirt = bench::Json::object({{"iterations", devirt_total}});
  bench::put_timing(devirt, "for_loop_", wrapper.min(), wrapper);
  bench::put_timing(devirt, "for_each_", inlined.min(), inlined);
  doc.set("devirt", bench::show("devirt", std::move(devirt)));

  // Lock-free core: the lock-free mailbox round trip against the locked
  // one. "Not worse" is the bar — the rewrite exists to remove lock
  // convoys, so regressing past the margin means something is wrong with
  // the parking path.
  const int round_trips = smoke ? 256 : 4096;
  const int rtt_repeats = smoke ? 3 : 9;
  // Up to three measurement attempts, pooling every attempt's trials so
  // the min per implementation is the min over all of them (the same
  // min-over-repeats policy every row uses): under a parallel ctest run,
  // one side of a comparison can get starved for a whole attempt, and a
  // guard verdict from a single attempt would flake. A genuine convoy
  // regression reproduces on every attempt.
  Samples lockfree_rtt;
  Samples locked_rtt;
  for (int attempt = 0; attempt < 3; ++attempt) {
    lockfree_rtt.append(time_mailbox_rtt_lockfree(round_trips, rtt_repeats));
    locked_rtt.append(time_mailbox_rtt_locked(round_trips, rtt_repeats));
    if (lockfree_rtt.min() <= 2.0 * locked_rtt.min()) {
      break;
    }
  }
  bench::Json rtt = bench::Json::object({{"round_trips", round_trips}});
  bench::put_timing(rtt, "lockfree_", lockfree_rtt.min(), lockfree_rtt);
  bench::put_timing(rtt, "locked_", locked_rtt.min(), locked_rtt);
  doc.set("lockfree", bench::Json::object(
                          {{"mailbox_rtt", bench::show("mailbox_rtt", rtt)}}));

  // Acceptance probes: does steal beat dynamic,1 on the skewed loop at
  // every measured thread count >= 4 (host real time and sim virtual
  // time), and does the inlined driver beat the type-erased one?
  bool steal_wins_host = true;
  bool steal_wins_sim = true;
  for (const int threads : thread_counts) {
    if (threads < 4) {
      continue;
    }
    steal_wins_host = steal_wins_host &&
                      loop_seconds.at({"host", "skewed", threads, "steal"}) <
                          loop_seconds.at({"host", "skewed", threads,
                                           "dynamic,1"});
    steal_wins_sim = steal_wins_sim &&
                     loop_seconds.at({"sim", "skewed", threads, "steal"}) <
                         loop_seconds.at({"sim", "skewed", threads,
                                          "dynamic,1"});
  }
  // Pool checks: launching on parked workers must beat spawning by >= 5x
  // at 4 threads (the Pi-class team width); uniform host loops must not
  // degrade from 1 to 4 threads any more (launch off the critical path);
  // and dynamic,1's wait-free inlined claims must sit within 1.25x of
  // static on the uniform loop at 1 thread — the pure per-iteration
  // claim-overhead margin, measured without any multi-thread scheduling
  // noise.
  const int t_lo = thread_counts.front();
  const auto uniform = [&](int threads, const char* schedule) {
    return loop_seconds.at({"host", "uniform", threads, schedule});
  };
  // "More threads must not be slower" is only a property the hardware
  // can deliver when the box is at least as wide as the team; a 1-core
  // container serializes every member onto the same CPU and the check
  // would measure the OS scheduler, not the runtime. Gate it on the
  // machine width and pass it vacuously on narrow boxes.
  const bool static_check_applicable =
      rt::hardware_threads() >= pool_check_threads;

  bench::Checks checks;
  checks.add("steal_beats_dynamic1_skewed_host", steal_wins_host);
  checks.add("steal_beats_dynamic1_skewed_sim", steal_wins_sim);
  checks.add("for_each_beats_for_loop", inlined.min() < wrapper.min());
  checks.add("pool_launch_beats_spawn",
             pool_launch_s > 0.0 && spawn_launch_s >= 5.0 * pool_launch_s);
  checks.add("static_uniform_no_degradation",
             !static_check_applicable ||
                 uniform(pool_check_threads, "static") <=
                     uniform(t_lo, "static"));
  checks.add("dynamic1_within_1p25x_static_uniform",
             uniform(t_lo, "dynamic,1") <= 1.25 * uniform(t_lo, "static"));
  // Cancellation must drain in launch-latency territory: the pooled
  // cancel drain at the Pi-class team width stays within 100x of a
  // pooled empty-region launch (a deliberately loose multiple — the
  // drain includes one in-flight chunk and an OS-scheduler wakeup — but
  // tight enough to catch a drain that degenerates into running the
  // rest of the loop).
  checks.add("cancel_drain_within_100x_pool_launch",
             pool_launch_s > 0.0 && pool_cancel_s <= 100.0 * pool_launch_s);
  // The committed lock-free boolean uses a 1.25x margin: lock-free must
  // sit at or below the locked baseline, give or take scheduler noise.
  checks.add("mailbox_rtt_not_worse_than_locked",
             lockfree_rtt.min() <= 1.25 * locked_rtt.min());
  checks.print();
  bench::Json verdicts = checks.json();
  verdicts.set("hardware_threads", rt::hardware_threads())
      .set("static_check_applicable", static_check_applicable);
  doc.set("checks", std::move(verdicts));
  bench::write_json("BENCH_rt.json", doc);

  // Exit non-zero — failing the bench-smoke ctest — only past a looser
  // 2x guard band: wide enough that scheduler noise on a loaded (or
  // single-core) box does not flake the tier-1 suite, tight enough to
  // catch a lock-free path that degenerated into a convoy.
  if (lockfree_rtt.min() > 2.0 * locked_rtt.min()) {
    std::fprintf(stderr, "lock-free guard band exceeded\n");
    return 1;
  }
  return 0;
}
