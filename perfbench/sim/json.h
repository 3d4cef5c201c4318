// Minimal streaming JSON writer for the benchmark's result records.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  const std::string& str() const { return out_; }

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(const std::string& k) {
    comma();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(const std::string& v) {
    comma();
    quote(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }

  template <class T>
  JsonWriter& field(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

  template <class T>
  JsonWriter& array(const std::string& k, const std::vector<T>& values) {
    key(k).begin_array();
    for (const T& v : values) value(v);
    return end_array();
  }

 private:
  JsonWriter& open(char c) {
    comma();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void quote(const std::string& s) {
    out_ += '"';
    for (const char ch : s) {
      const auto c = static_cast<unsigned char>(ch);
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += ch;
      } else if (c < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += ch;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench
