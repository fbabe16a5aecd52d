#pragma once

// Shared plumbing of the JSON-writing ubench_* binaries: the --smoke
// flag, per-trial timing with its min/median/IQR summary, the host
// block, one ordered JSON writer (also the progress lines on stdout),
// and the `checks:` collector. Workloads, baselines, trial counts,
// check expressions and exit rules stay in each bench.

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace pblpar::bench {

/// True when argv carries --smoke: the tiny shape the bench-smoke ctest
/// label runs.
bool smoke_flag(int argc, char** argv);

/// Wall-clock seconds one call of `fn` takes, on the steady clock.
template <class Fn>
double elapsed_s(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Per-trial seconds of one measurement, in run order, and their
/// summary. Which statistic a check reads (min, median) is the bench's
/// choice; median and IQR are recorded beside it in the JSON.
struct Samples {
  std::vector<double> seconds;

  double min() const;
  double median() const;
  double q1() const;
  double q3() const;
  double iqr() const { return q3() - q1(); }

  /// Appends another measurement's trials (e.g. a retried attempt).
  void append(const Samples& more);
};

/// Runs `fn` `n` times (n >= 1) and returns one sample per call. A
/// void `fn` is timed whole; an `fn` returning double reports its own
/// sample — for setup that must stay untimed, or timestamps taken
/// inside the measured threads.
template <class Fn>
Samples trials(int n, Fn&& fn) {
  util::require(n >= 1, "bench::trials: need at least one trial");
  Samples samples;
  samples.seconds.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      samples.seconds.push_back(elapsed_s(fn));
    } else {
      samples.seconds.push_back(static_cast<double>(fn()));
    }
  }
  return samples;
}

/// An ordered JSON value: null, bool, number, string, array or object.
/// Object members keep insertion order, so a file reads in the order
/// its bench builds it. Non-finite numbers write as null, so the output
/// always parses.
class Json {
 public:
  using Member = std::pair<std::string, Json>;

  Json() = default;  // null
  Json(bool value);
  Json(double value);
  template <class T>
    requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
  Json(T value) : kind_(Kind::Number), text_(std::to_string(value)) {}
  Json(const char* value);
  Json(std::string value);

  static Json object(std::initializer_list<Member> members = {});
  static Json array();

  /// Appends `key: value` to an object.
  Json& set(std::string key, Json value);
  /// Appends `value` to an array.
  Json& push(Json value);

  /// Two-space indented text. A container whose children are all
  /// scalars prints on one line, so table rows stay one row per line.
  std::string dump() const;

 private:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  void dump_to(std::string& out, int indent) const;

  Kind kind_ = Kind::Null;
  std::string text_;               // bool/number literal, or string value
  std::vector<std::string> keys_;  // object member names
  std::vector<Json> items_;        // array items or object member values
};

/// Sets `<stem>seconds` to `value` — the statistic the bench's checks
/// read — and `<stem>median_s` / `<stem>iqr_s` to the spread of the
/// trials behind it.
void put_timing(Json& object, const std::string& stem, double value,
                const Samples& samples);

/// The top of every BENCH_*.json: bench name, smoke flag and the host
/// block (hardware threads, compiler, build type, sanitizer, and the git
/// sha captured when the build was configured).
Json document(const std::string& bench, bool smoke);

/// Prints `label: <json>` — a bench's progress line for one result —
/// and returns the value for the document.
Json show(const std::string& label, Json value);

/// Writes `doc` to `path` and says so on stdout.
void write_json(const std::string& path, const Json& doc);

/// Named pass/fail verdicts, in the order they are added: one `checks:`
/// line on stdout and, for benches that keep one, the "checks" object.
class Checks {
 public:
  /// Records a verdict and returns it, so it can feed an exit rule.
  bool add(std::string name, bool pass);
  bool all() const;
  void print() const;
  Json json() const;

 private:
  std::vector<std::pair<std::string, bool>> verdicts_;
};

}  // namespace pblpar::bench
