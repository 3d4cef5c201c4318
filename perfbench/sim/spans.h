// Host-time spans recorded by the benchmark around its calls into the
// simulator's layers. Spans stay in memory and are written out once, as a
// Chrome trace-event file that Perfetto (ui.perfetto.dev) opens directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Perfetto tracks (one "thread" each in the trace file).
enum Track : int {
  kTrackMain = 1,    // rounds, set-up, warm-up, measured window, collection
  kTrackApps = 2,    // application calls, aggregated per simulation call
  kTrackProbes = 3,  // isolated layer probes
};

/// Host clock in ns since an arbitrary process-wide origin.
std::int64_t host_ns();

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; `args` is a JSON object body (no braces) or
  /// empty.
  void add(const std::string& name, Track track, std::int64_t start_ns, std::int64_t dur_ns,
           const std::string& args = "");

  /// RAII span on one track; a disabled recorder makes this a no-op.
  class Scope {
   public:
    Scope(Spans& spans, std::string name, Track track = kTrackMain)
        : spans_(spans), name_(std::move(name)), track_(track),
          start_(spans.enabled() ? host_ns() : 0) {}
    ~Scope() {
      if (spans_.enabled()) spans_.add(name_, track_, start_, host_ns() - start_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::string name_;
    Track track_;
    std::int64_t start_;
  };

  /// Writes the Chrome trace-event JSON file. Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path, const std::string& process_name) const;

 private:
  struct Span {
    std::string name;
    Track track;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::string args;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
