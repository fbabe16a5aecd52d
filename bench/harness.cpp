#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "rt/config.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace pblpar::bench {

bool smoke_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return true;
    }
  }
  return false;
}

double Samples::min() const {
  util::require(!seconds.empty(), "Samples: no trials were run");
  return *std::min_element(seconds.begin(), seconds.end());
}

double Samples::median() const { return stats::quantile(seconds, 0.5); }
double Samples::q1() const { return stats::quantile(seconds, 0.25); }
double Samples::q3() const { return stats::quantile(seconds, 0.75); }

void Samples::append(const Samples& more) {
  seconds.insert(seconds.end(), more.seconds.begin(), more.seconds.end());
}

Json::Json(bool value) : kind_(Kind::Bool), text_(value ? "true" : "false") {}

Json::Json(double value) {
  if (!std::isfinite(value)) {
    return;  // null
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  kind_ = Kind::Number;
  text_.assign(buffer, result.ptr);
}

Json::Json(const char* value) : kind_(Kind::String), text_(value) {}

Json::Json(std::string value) : kind_(Kind::String), text_(std::move(value)) {}

Json Json::object(std::initializer_list<Member> members) {
  Json json;
  json.kind_ = Kind::Object;
  for (const Member& member : members) {
    json.set(member.first, member.second);
  }
  return json;
}

Json Json::array() {
  Json json;
  json.kind_ = Kind::Array;
  return json;
}

Json& Json::set(std::string key, Json value) {
  util::require(kind_ == Kind::Object, "Json::set: not an object");
  keys_.push_back(std::move(key));
  items_.push_back(std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  util::require(kind_ == Kind::Array, "Json::push: not an array");
  items_.push_back(std::move(value));
  return *this;
}

namespace {

/// JSON string literal: quote and backslash escaped, every control
/// character as \u00XX.
void append_quoted(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

void Json::dump_to(std::string& out, int indent) const {
  switch (kind_) {
    case Kind::Null:
      out += "null";
      return;
    case Kind::Bool:
    case Kind::Number:
      out += text_;
      return;
    case Kind::String:
      append_quoted(out, text_);
      return;
    case Kind::Array:
    case Kind::Object:
      break;
  }
  const bool is_object = kind_ == Kind::Object;
  const bool flat =
      std::none_of(items_.begin(), items_.end(), [](const Json& item) {
        return item.kind_ == Kind::Array || item.kind_ == Kind::Object;
      });
  const std::string pad(static_cast<std::size_t>(indent + 2), ' ');
  out += is_object ? '{' : '[';
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    if (!flat) {
      out += '\n';
      out += pad;
    }
    if (is_object) {
      append_quoted(out, keys_[i]);
      out += flat ? ":" : ": ";
    }
    items_[i].dump_to(out, indent + 2);
  }
  if (!flat && !items_.empty()) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent), ' ');
  }
  out += is_object ? '}' : ']';
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  return out;
}

void put_timing(Json& object, const std::string& stem, double value,
                const Samples& samples) {
  object.set(stem + "seconds", value)
      .set(stem + "median_s", samples.median())
      .set(stem + "iqr_s", samples.iqr());
}

Json document(const std::string& bench, bool smoke) {
  const Json host = Json::object({
      {"hardware_threads", rt::hardware_threads()},
      {"compiler", __VERSION__},
      {"build_type", PBLPAR_BUILD_TYPE},
      {"sanitizer", PBLPAR_SANITIZER},
      {"git_sha", PBLPAR_GIT_SHA},
  });
  return Json::object({{"bench", bench}, {"smoke", smoke}, {"host", host}});
}

Json show(const std::string& label, Json value) {
  std::printf("%s: %s\n", label.c_str(), value.dump().c_str());
  return value;
}

void write_json(const std::string& path, const Json& doc) {
  std::ofstream out(path);
  out << doc.dump() << '\n';
  out.close();
  util::require(static_cast<bool>(out), "write_json: could not write " + path);
  std::printf("wrote %s\n", path.c_str());
}

bool Checks::add(std::string name, bool pass) {
  verdicts_.emplace_back(std::move(name), pass);
  return pass;
}

bool Checks::all() const {
  return std::all_of(verdicts_.begin(), verdicts_.end(),
                     [](const auto& verdict) { return verdict.second; });
}

void Checks::print() const {
  std::string line = "checks:";
  for (const auto& [name, pass] : verdicts_) {
    line += ' ' + name + (pass ? "=yes" : "=no");
  }
  std::printf("%s\n", line.c_str());
}

Json Checks::json() const {
  Json object = Json::object();
  for (const auto& [name, pass] : verdicts_) {
    object.set(name, pass);
  }
  return object;
}

}  // namespace pblpar::bench
