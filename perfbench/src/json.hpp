#pragma once

// Minimal JSON object writer for the driver's raw report.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

namespace perfbench {

class Json {
 public:
  explicit Json(std::ostream& out) : out_(out) {}

  Json& begin(const char* key = nullptr) { return open(key, '{'); }
  Json& end() { return close('}'); }
  Json& begin_array(const char* key = nullptr) { return open(key, '['); }
  Json& end_array() { return close(']'); }

  Json& field(const char* key, double v) {
    sep(key);
    if (!std::isfinite(v)) {
      out_ << "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ << buf;
    }
    return *this;
  }
  Json& field(const char* key, std::uint64_t v) {
    sep(key);
    out_ << v;
    return *this;
  }
  Json& field(const char* key, int v) {
    sep(key);
    out_ << v;
    return *this;
  }
  Json& field(const char* key, bool v) {
    sep(key);
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& field(const char* key, const std::string& v) {
    sep(key);
    out_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ << '\\';
      if (c == '\n') {
        out_ << "\\n";
        continue;
      }
      out_ << c;
    }
    out_ << '"';
    return *this;
  }
  Json& field(const char* key, const char* v) {
    return field(key, std::string(v));
  }

 private:
  Json& open(const char* key, char c) {
    sep(key);
    out_ << c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    first_ = false;
    return *this;
  }
  void sep(const char* key) {
    if (!first_) out_ << ',';
    first_ = false;
    if (key != nullptr) out_ << '"' << key << "\":";
  }

  std::ostream& out_;
  bool first_ = true;
};

}  // namespace perfbench
