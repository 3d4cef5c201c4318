#include "spans.h"

#include <fstream>

#include "json.h"

namespace perfbench {

std::int64_t host_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

void Spans::add(const std::string& name, Track track, std::int64_t start_ns,
                std::int64_t dur_ns, const std::string& args) {
  if (!enabled_) return;
  spans_.push_back(Span{name, track, start_ns, dur_ns, args});
}

bool Spans::write_chrome_trace(const std::string& path, const std::string& process_name) const {
  std::ofstream out(path);
  if (!out) return false;
  JsonWriter meta;
  meta.begin_array();
  const auto name_event = [&meta](const char* what, int tid, const std::string& name) {
    meta.begin_object().field("name", what).field("ph", "M").field("pid", 1).field("tid", tid);
    meta.key("args").begin_object().field("name", name).end_object().end_object();
  };
  name_event("process_name", 0, process_name);
  name_event("thread_name", kTrackMain, "benchmark");
  name_event("thread_name", kTrackApps, "app calls (aggregated)");
  name_event("thread_name", kTrackProbes, "layer probes");
  meta.end_array();
  // Strip the array brackets: the span events are appended by hand so each
  // span's pre-rendered args body can be spliced in.
  const std::string& m = meta.str();
  out << "{\"traceEvents\":[" << m.substr(1, m.size() - 2);
  for (const Span& s : spans_) {
    JsonWriter ev;
    ev.begin_object()
        .field("name", s.name)
        .field("cat", "perfbench")
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", static_cast<int>(s.track))
        .field("ts", static_cast<double>(s.start_ns) / 1e3)
        .field("dur", static_cast<double>(s.dur_ns) / 1e3);
    std::string body = ev.str();
    if (!s.args.empty()) body += ",\"args\":{" + s.args + "}";
    out << "," << body << "}";
  }
  out << "],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
