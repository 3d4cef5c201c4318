// perfbench_sim: runs one benchmark workload and prints its raw record as
// JSON on stdout. perfbench/run.py builds this, runs it in a process of its
// own per workload, checks the record and derives the metrics.
//
//   perfbench_sim --workload kv|multitenant|shardkv --seed N --seconds S
//                 --trace 0|1 [--trace-out PREFIX] [--short]
//
// Timed mode (--trace 0) repeats whole rounds — each round one simulation
// per sub-seed — until the next round would overrun --seconds; a workload
// with a reference worker count first runs one untimed reference round.
// The traced mode runs each sub-seed traced and then untraced, the
// reference round, the layer probes, and writes PREFIX.trace.json
// (Perfetto).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "deployment.h"
#include "json.h"
#include "layers.h"
#include "probes.h"
#include "spans.h"

namespace perfbench {
namespace {

using ceio::Nanos;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  bool shortened = false;
};

/// Host speed calibration: a fixed kernel of hashing and dependent loads,
/// timed between simulations over a 1 MiB table (cache-resident, like the
/// simulator's hot state) and over a 16 MiB one (memory-bound, like its
/// cold state). On a shared machine the host speed drifts by tens of
/// percent over seconds; scaling each simulation's packet rate by the
/// geometric mean of the two times against kCalibRefS cancels most of it;
/// set-up times are scaled by the latest calibration the same way.
constexpr double kCalibRefS = 0.0055;
constexpr std::size_t kCalibSmall = std::size_t{1} << 17;  // 8-byte words
constexpr std::size_t kCalibLarge = std::size_t{1} << 21;

/// The calibration tables stay resident for the whole run (they are written
/// when first used), so the peak resident set less their size is the
/// simulation's own.
constexpr std::int64_t kCalibTableKiB =
    static_cast<std::int64_t>((kCalibSmall + kCalibLarge) * sizeof(std::uint64_t) / 1024);

double time_kernel(std::vector<std::uint64_t>& table, std::uint32_t iterations) {
  const int shift = 64 - std::countr_zero(table.size());
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  const std::int64_t t0 = host_ns();
  for (std::uint32_t i = 0; i < iterations; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    acc += table[(x * 0x2545f4914f6cdd1dULL) >> shift];
    table[i & (table.size() - 1)] += acc & 7;
  }
  const std::int64_t d = host_ns() - t0;
  // Keep the result observable so the loop cannot be folded away.
  if (acc == 1) std::fputs("", stderr);
  return static_cast<double>(d) * 1e-9;
}

double calibrate() {
  static std::vector<std::uint64_t> small(kCalibSmall, 1);
  static std::vector<std::uint64_t> large(kCalibLarge, 1);
  return std::sqrt(time_kernel(small, 1'500'000) * time_kernel(large, 300'000));
}

/// Calibrates at least every kCalibEveryS of simulation host time and scales
/// each stretch of it by the mean of the calibrations on either side.
class Calibrator {
 public:
  static constexpr double kCalibEveryS = 0.25;

  Calibrator() : last_(calibrate()) {}

  /// `seconds` outside the simulation run calls (a set-up), scaled by the
  /// latest calibration.
  double scale_now(double seconds) const { return seconds * kCalibRefS / last_; }

  /// Accounts `seconds` of simulation time; returns the time settled so
  /// far at the reference speed (0 until a stretch is long enough).
  double add(double seconds) {
    pending_ += seconds;
    return pending_ >= kCalibEveryS ? settle() : 0.0;
  }
  /// Closes the current stretch (the end of a simulation).
  double settle() {
    if (pending_ <= 0.0) return 0.0;
    const double now = calibrate();
    const double scaled = pending_ * kCalibRefS / (0.5 * (last_ + now));
    pending_ = 0.0;
    last_ = now;
    return scaled;
  }

 private:
  double last_;
  double pending_ = 0.0;
};

/// One simulation: set-up, warm-up, measured window, collection.
struct SubRun {
  std::uint64_t seed = 0;
  double setup_s = 0.0;    // building the deployment
  double scaled_run_s = 0.0;  // run_s at the reference host speed
  double scaled_setup_s = 0.0;  // setup_s at the reference host speed
  double run_s = 0.0;      // warm-up + measured-window run calls
  double measure_s = 0.0;  // measured-window run calls only
  FlowCounts total;        // whole run, all flows
  std::uint64_t digest = 0;
  int shards = 1;
  // Detail for the output checks.
  std::vector<FlowInfo> flows;
  std::vector<FlowCounts> warm, window;
  ceio::harness::RunResult result;
  std::int64_t tail_p99_ns = 0;   // harness::average_tails (integer ns)
  double tail_p99_exact_ns = 0.0;  // the same flow-weighted mean, undivided
  std::vector<std::string> violations;
  std::vector<std::pair<std::int64_t, std::int64_t>> occupancy;
  std::vector<Deployment::KvCounts> kv;
  LayerCounts layers;        // measured-window deltas
  std::int64_t ebuf_backlog_end = 0;  // packets on the NIC or in flight from it
  std::int64_t app_calls = 0;  // whole run
  std::int64_t app_ns = 0;
  // Probe sizing.
  double pending = 0.0;
  std::vector<int> tenant_ways;
  int domains = 1;
  Nanos lookahead{0};
  std::int64_t rss_flow_bytes = 0;

  void drop_detail() {
    flows = {};
    warm = {};
    window = {};
    result = {};
  }
};

/// FNV-1a over every simulated output of a sub-run: per-flow counts and
/// reports, the program's aggregates and the per-layer counters.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
};

std::uint64_t digest_of(const SubRun& r) {
  Digest d;
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    for (const FlowCounts* c : {&r.warm[i], &r.window[i]}) {
      d.add(c->sent);
      d.add(c->delivered);
      d.add(c->dropped);
    }
  }
  for (const auto& f : r.result.flows) {
    d.add(f.mpps);
    d.add(f.gbps);
    d.add(f.message_gbps);
    d.add(f.p50.count());
    d.add(f.p99.count());
    d.add(f.p999.count());
    d.add(f.messages);
    d.add(f.drops);
  }
  d.add(r.result.aggregate_mpps);
  d.add(r.result.aggregate_gbps);
  d.add(r.result.aggregate_message_gbps);
  d.add(r.tail_p99_ns);
  for (const auto f : LayerCounts::kFields) d.add(r.layers.*f);
  return d.h;
}

SubRun run_subrun(const WorkloadDef& def, std::uint64_t seed, int shards, bool traced,
                  Spans& spans, bool rss_probe, Calibrator& cal) {
  SubRun r;
  r.seed = seed;
  Spans::Scope sub(spans, "subrun");
  std::unique_ptr<Deployment> dep;
  const std::int64_t t0 = host_ns();
  {
    Spans::Scope s(spans, "setup");
    dep = std::make_unique<Deployment>(def, seed, shards, traced, spans, rss_probe);
  }
  r.setup_s = static_cast<double>(host_ns() - t0) * 1e-9;
  r.scaled_setup_s = cal.scale_now(r.setup_s);
  r.shards = dep->shards();
  r.domains = dep->domains();
  r.lookahead = dep->lookahead();
  r.rss_flow_bytes = dep->rss_flow_bytes();
  r.flows = dep->flows();

  std::int64_t run_ns = 0;
  const auto run_to = [&](Nanos t, const char* name) {
    const std::int64_t app0 = dep->app_ns();
    const std::int64_t s = host_ns();
    dep->run_until(t);
    const std::int64_t d = host_ns() - s;
    run_ns += d;
    r.scaled_run_s += cal.add(static_cast<double>(d) * 1e-9);
    spans.add(name, kTrackMain, s, d,
              "\"sim_end_ns\":" + std::to_string(t.count()));
    if (traced) spans.add("app.calls", kTrackApps, s, dep->app_ns() - app0);
    return d;
  };

  const Nanos warm_end = def.spec.warmup;
  const Nanos end = def.spec.warmup + def.spec.measure;
  run_to(warm_end, "warmup");
  for (const FlowInfo& f : r.flows) r.warm.push_back(dep->counts(f.id));
  dep->reset_measurement();
  const LayerCounts c0 = dep->snapshot();
  const int slices = std::max(def.measure_slices, 1);
  std::int64_t measure_ns = 0;
  for (int k = 1; k <= slices; ++k) {
    measure_ns += run_to(warm_end + def.spec.measure * k / slices, "measure");
  }
  r.scaled_run_s += cal.settle();
  r.run_s = static_cast<double>(run_ns) * 1e-9;
  r.measure_s = static_cast<double>(measure_ns) * 1e-9;

  Spans::Scope collect(spans, "collect");
  if (dep->now() != end) throw std::runtime_error("simulation stopped before its window ended");
  const LayerCounts c1 = dep->snapshot();
  r.layers = LayerCounts::delta(c1, c0);
  r.app_calls = c1.app_calls;
  r.ebuf_backlog_end = c1.ebuf_buffered - c1.ebuf_drained;
  r.app_ns = dep->app_ns();
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    r.window.push_back(dep->counts(r.flows[i].id));
    r.total.sent += r.warm[i].sent + r.window[i].sent;
    r.total.delivered += r.warm[i].delivered + r.window[i].delivered;
    r.total.dropped += r.warm[i].dropped + r.window[i].dropped;
  }
  r.result = dep->collect();
  const std::vector<ceio::FlowReport> tail = dep->tail_flows(r.result);
  r.tail_p99_ns = ceio::harness::average_tails(tail).p99.count();
  for (const auto& f : tail) r.tail_p99_exact_ns += static_cast<double>(f.p99.count());
  if (!tail.empty()) r.tail_p99_exact_ns /= static_cast<double>(tail.size());
  r.violations = dep->audit_now();
  r.occupancy = dep->ddio_occupancy();
  r.kv = dep->kv_counts();
  r.pending = dep->mean_pending_events();
  r.tenant_ways = dep->llc_tenant_ways();
  r.digest = digest_of(r);
  return r;
}

/// Runs every sub-seed once. With `twins`, each traced simulation is
/// followed by its untraced twin (collected there), so both see the same
/// host conditions. A traced round probes resident memory on its first
/// set-up.
std::vector<SubRun> run_round(const WorkloadDef& def, std::uint64_t seed, int shards,
                              bool traced, Spans& spans, std::vector<SubRun>* twins = nullptr) {
  Spans::Scope round(spans, "round");
  Calibrator cal;
  std::vector<SubRun> out;
  for (int i = 0; i < def.subseeds; ++i) {
    const std::uint64_t sub = ceio::derive_seed(seed, static_cast<std::uint64_t>(i));
    out.push_back(run_subrun(def, sub, shards, traced, spans, traced && i == 0, cal));
    if (twins != nullptr) twins->push_back(run_subrun(def, sub, shards, false, spans, false, cal));
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double raw_pkts_per_s(const SubRun& r) {
  return r.run_s > 0.0 ? static_cast<double>(r.total.delivered) / r.run_s : 0.0;
}
/// Simulation speed at the reference host speed (see calibrate()).
double pkts_per_s(const SubRun& r) {
  return r.scaled_run_s > 0.0 ? static_cast<double>(r.total.delivered) / r.scaled_run_s : 0.0;
}

void write_config(JsonWriter& j, const WorkloadDef& def) {
  const auto& tb = def.spec.testbed;
  j.key("config").begin_object();
  j.field("net_propagation_ns", tb.net.propagation.count());
  j.field("pcie_propagation_ns", tb.pcie.propagation.count());
  j.field("link_rate_bps", tb.net.rate.count());
  j.field("link_queue_bytes", tb.net.queue_capacity.count());
  j.field("iio_capacity_bytes", tb.iio.capacity.count());
  j.field("dma_max_outstanding_reads", tb.dma.max_outstanding_reads);
  j.field("nicmem_capacity_bytes", tb.nic_mem.capacity.count());
  j.field("warmup_ns", def.spec.warmup.count());
  j.field("measure_ns", def.spec.measure.count());
  j.field("domains", std::max(tb.sim.domains, 1));
  j.field("shards", tb.sim.shards);
  j.field("reference_shards", def.reference_shards);
  j.field("subseeds", def.subseeds);
  j.field("tail_tenant", def.tail_tenant);
  j.end_object();
}

/// The short form kept for every sub-run: timing, totals, digest.
void write_brief(JsonWriter& j, const SubRun& r) {
  j.begin_object();
  j.field("seed", r.seed).field("shards", r.shards);
  j.field("setup_s", r.setup_s).field("run_s", r.run_s).field("measure_s", r.measure_s);
  j.field("scaled_run_s", r.scaled_run_s);
  j.field("sent", r.total.sent).field("delivered", r.total.delivered);
  j.field("dropped", r.total.dropped).field("digest", hex(r.digest));
  j.end_object();
}

/// Everything the output checks read.
void write_detail(JsonWriter& j, const SubRun& r) {
  j.begin_object();
  j.field("seed", r.seed).field("shards", r.shards);
  j.field("digest", hex(r.digest));
  j.field("aggregate_mpps", r.result.aggregate_mpps);
  j.field("aggregate_gbps", r.result.aggregate_gbps);
  j.field("aggregate_message_gbps", r.result.aggregate_message_gbps);
  j.field("tail_p99_ns", r.tail_p99_ns);
  j.field("tail_p99_exact_ns", r.tail_p99_exact_ns);
  j.field("flow_count", static_cast<std::int64_t>(r.flows.size()));
  j.key("flow_columns").begin_array();
  for (const char* c : {"id", "kind", "group", "rate_bps", "packet_bytes", "start_ns", "paced", "tail",
                        "warm_sent", "warm_delivered", "warm_dropped", "sent", "delivered",
                        "dropped", "mpps", "gbps", "message_gbps", "p50_ns", "p99_ns",
                        "messages", "drops"}) {
    j.value(c);
  }
  j.end_array();
  j.key("flows").begin_array();
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const FlowInfo& f = r.flows[i];
    const ceio::FlowReport& rep = r.result.flows.at(i);
    j.begin_array();
    j.value(static_cast<std::int64_t>(f.id)).value(f.kind).value(f.group);
    j.value(f.rate_bps).value(f.packet_bytes).value(f.start_ns).value(f.paced);
    j.value(f.tail);
    j.value(r.warm[i].sent).value(r.warm[i].delivered).value(r.warm[i].dropped);
    j.value(r.window[i].sent).value(r.window[i].delivered).value(r.window[i].dropped);
    j.value(rep.mpps).value(rep.gbps).value(rep.message_gbps);
    j.value(rep.p50.count()).value(rep.p99.count()).value(rep.messages).value(rep.drops);
    j.end_array();
  }
  j.end_array();
  j.array("audit_violations", r.violations);
  j.key("ddio_occupancy").begin_array();
  for (const auto& [occ, cap] : r.occupancy) j.begin_array().value(occ).value(cap).end_array();
  j.end_array();
  j.key("kv").begin_array();
  for (const auto& k : r.kv) {
    j.begin_object().field("gets", k.gets).field("puts", k.puts).field("calls", k.calls);
    j.end_object();
  }
  j.end_array();
  j.field("ebuf_backlog_end", r.ebuf_backlog_end);
  j.field("nic_rx_packets", r.layers.nic_rx);
  j.field("cpu_packets", r.layers.cpu_packets);
  j.field("app_calls", r.layers.app_calls);
  j.end_object();
}

/// Peak resident set of this process image, in KiB. VmHWM, not getrusage:
/// ru_maxrss carries the parent's peak across fork + exec.
std::int64_t peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void add(const std::vector<SubRun>& round) {
    for (const SubRun& r : round) {
      attempted += r.total.sent;
      failed += r.total.dropped;
    }
  }
};

void write_round_digests(JsonWriter& j, const std::string& key,
                         const std::vector<std::vector<SubRun>>& rounds) {
  j.key(key).begin_array();
  for (const auto& round : rounds) {
    j.begin_array();
    for (const SubRun& r : round) j.value(hex(r.digest));
    j.end_array();
  }
  j.end_array();
}

int run_timed(const Options& opt, const WorkloadDef& def) {
  Spans spans(false);
  const int shards = def.spec.testbed.sim.shards;
  const bool has_reference = def.reference_shards > 0;
  const std::int64_t start = host_ns();
  const auto elapsed_s = [start]() { return static_cast<double>(host_ns() - start) * 1e-9; };
  Tally tally;

  // The sharded workload's untimed reference round runs at another worker
  // count; its outputs must equal the timed rounds' bit for bit.
  std::vector<std::vector<SubRun>> reference;
  if (has_reference) {
    reference.push_back(run_round(def, opt.seed, def.reference_shards, false, spans));
    tally.add(reference.back());
  }
  std::vector<std::vector<SubRun>> rounds;
  double round_s = 0.0;
  do {
    const std::int64_t r0 = host_ns();
    rounds.push_back(run_round(def, opt.seed, shards, false, spans));
    tally.add(rounds.back());
    // Later rounds only repeat the first: keep their timing and digests, so
    // the peak resident set does not grow with the number of rounds.
    if (rounds.size() > 1 || has_reference) {
      for (SubRun& r : rounds.back()) r.drop_detail();
    }
    round_s = std::max(round_s, static_cast<double>(host_ns() - r0) * 1e-9);
  } while (elapsed_s() + round_s <= opt.seconds);

  std::vector<double> setups, setups_raw, pps, pps_raw;
  for (const auto& round : rounds) {
    for (const SubRun& r : round) {
      setups.push_back(r.scaled_setup_s);
      setups_raw.push_back(r.setup_s);
      pps.push_back(pkts_per_s(r));
      pps_raw.push_back(raw_pkts_per_s(r));
    }
  }
  // Set-up is cheap next to a round: top the samples up to a steady median
  // by building (and dropping) extra deployments of the same sub-seeds.
  constexpr std::size_t kMinSetups = 15;
  for (std::size_t i = 0; setups.size() < kMinSetups; ++i) {
    const std::uint64_t sub = ceio::derive_seed(opt.seed, i % static_cast<std::size_t>(def.subseeds));
    const Calibrator cal;
    const std::int64_t t0 = host_ns();
    { Deployment dep(def, sub, shards, false, spans, false); }
    setups_raw.push_back(static_cast<double>(host_ns() - t0) * 1e-9);
    setups.push_back(cal.scale_now(setups_raw.back()));
  }

  JsonWriter j;
  j.begin_object();
  j.field("workload", def.name).field("seed", opt.seed).field("trace", 0);
  j.field("seconds", opt.seconds).field("elapsed_s", elapsed_s());
  write_config(j, def);
  j.field("attempted", tally.attempted).field("failed", tally.failed);
  j.field("peak_rss_kib", peak_rss_kib() - kCalibTableKiB);
  j.field("calib_ref_s", kCalibRefS);
  j.array("setup_s", setups);
  j.array("setup_s_raw", setups_raw);
  j.array("pkts_per_s", pps);
  j.array("pkts_per_s_raw", pps_raw);
  j.field("pkts_per_s_median", median(pps));
  j.field("pkts_per_s_raw_median", median(pps_raw));
  j.field("setup_s_median", median(setups));
  j.field("setup_s_raw_median", median(setups_raw));
  write_round_digests(j, "reference_digests", reference);
  write_round_digests(j, "round_digests", rounds);
  j.key("rounds").begin_array();
  for (const auto& round : rounds) {
    j.begin_array();
    for (const SubRun& r : round) write_brief(j, r);
    j.end_array();
  }
  j.end_array();
  j.key("subruns").begin_array();
  for (const SubRun& r : (has_reference ? reference.front() : rounds.front())) write_detail(j, r);
  j.end_array();
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

int run_traced(const Options& opt, const WorkloadDef& def) {
  Spans spans(true);
  const int shards = def.spec.testbed.sim.shards;
  const bool has_reference = def.reference_shards > 0;
  Tally tally;

  // The traced round builds the process's first deployment, so the
  // resident-set probe around flow creation sees fresh pages.
  std::vector<SubRun> plain;
  std::vector<SubRun> traced = run_round(def, opt.seed, shards, true, spans, &plain);
  tally.add(traced);
  tally.add(plain);
  std::vector<SubRun> reference;
  if (has_reference) {
    Spans::Scope s(spans, "reference round (" + std::to_string(def.reference_shards) + " shards)");
    reference = run_round(def, opt.seed, def.reference_shards, false, spans);
    tally.add(reference);
  }

  LayerCounts layers;
  double measure_s = 0.0, setup_s = 0.0, pending = 0.0;
  std::int64_t app_calls = 0, app_ns = 0, flows = 0;
  for (const SubRun& r : traced) {
    layers += r.layers;
    measure_s += r.measure_s;
    setup_s += r.setup_s;
    pending += r.pending;
    app_calls += r.app_calls;
    app_ns += r.app_ns;
    flows += static_cast<std::int64_t>(r.flows.size());
  }
  const SubRun& first = traced.front();
  const double n = static_cast<double>(traced.size());
  const double depth = pending / n;
  const double window_ns = static_cast<double>(def.spec.measure.count());
  // Mean event lifetime by Little's law: pending depth over event rate.
  const double events_per_domain_ns =
      static_cast<double>(layers.sched_events) / (n * first.domains * window_ns);
  const double mean_delay = events_per_domain_ns > 0 ? depth / events_per_domain_ns : 1.0;
  const auto hits_misses = static_cast<double>(layers.llc_hits + layers.llc_misses);
  const double miss_target =
      hits_misses > 0 ? static_cast<double>(layers.llc_misses) / hits_misses : 0.0;
  constexpr double kProbeBudget = 0.3;

  LayerTimes t;
  double llc_achieved = 0.0;
  {
    Spans::Scope s(spans, "probe.scheduler", kTrackProbes);
    t.sched_ns_per_event =
        probe_scheduler(static_cast<std::int64_t>(depth), mean_delay, kProbeBudget);
  }
  {
    Spans::Scope s(spans, "probe.llc", kTrackProbes);
    t.llc_ns_per_op = probe_llc(def.spec.testbed.llc, first.tenant_ways, miss_target,
                                kProbeBudget, &llc_achieved);
  }
  if (has_reference) {
    Spans::Scope s(spans, "probe.coordinator", kTrackProbes);
    // The worker pool's empty-epoch cost, at the reference round's worker
    // count, and the speed-up of that worker count over the timed one.
    t.shard_sync_ns =
        probe_coordinator(first.domains, def.reference_shards, first.lookahead, kProbeBudget);
    t.shard_us_per_epoch =
        layers.shard_epochs > 0 ? measure_s * 1e6 / static_cast<double>(layers.shard_epochs) : 0.0;
    std::vector<double> timed, ref;
    for (const SubRun& r : plain) timed.push_back(r.run_s);
    for (const SubRun& r : reference) ref.push_back(r.run_s);
    t.shard_speedup = median(ref) > 0 ? median(timed) / median(ref) : 0.0;
  }
  t.app_ns_per_call = app_calls > 0 ? static_cast<double>(app_ns) / static_cast<double>(app_calls) : 0.0;
  t.setup_us_per_flow = flows > 0 ? setup_s * 1e6 / static_cast<double>(flows) : 0.0;
  t.flow_state_kib = first.flows.empty()
                         ? 0.0
                         : static_cast<double>(first.rss_flow_bytes) / 1024.0 /
                               static_cast<double>(first.flows.size());

  std::vector<double> pps_traced, pps_plain;
  for (const SubRun& r : traced) pps_traced.push_back(pkts_per_s(r));
  for (const SubRun& r : plain) pps_plain.push_back(pkts_per_s(r));

  std::string trace_file;
  if (!opt.trace_out.empty()) {
    trace_file = opt.trace_out + ".trace.json";
    if (!spans.write_chrome_trace(trace_file, "perfbench " + def.name)) {
      std::fprintf(stderr, "perfbench_sim: cannot write %s\n", trace_file.c_str());
      return 1;
    }
  }

  JsonWriter j;
  j.begin_object();
  j.field("workload", def.name).field("seed", opt.seed).field("trace", 1);
  write_config(j, def);
  j.field("attempted", tally.attempted).field("failed", tally.failed);
  j.field("peak_rss_kib", peak_rss_kib() - kCalibTableKiB);
  j.field("trace_file", trace_file);
  j.field("pkts_per_s_traced", median(pps_traced));
  j.field("pkts_per_s_untraced", median(pps_plain));
  std::vector<std::vector<SubRun>> ref_rounds;
  if (has_reference) ref_rounds.push_back(reference);
  write_round_digests(j, "reference_digests", ref_rounds);
  write_round_digests(j, "round_digests", {traced, plain});
  j.key("probe_sizing").begin_object();
  j.field("pending_depth", depth).field("mean_event_delay_ns", mean_delay);
  j.field("llc_miss_target", miss_target).field("llc_miss_replayed", llc_achieved);
  j.array("tenant_ways", first.tenant_ways);
  j.field("domains", first.domains).field("shards", first.shards);
  j.field("reference_shards", def.reference_shards);
  j.field("lookahead_ns", first.lookahead.count());
  j.field("flows", static_cast<std::int64_t>(first.flows.size()));
  j.end_object();
  j.key("layers").begin_object();
  write_layer_metrics(j, layers, t);
  j.end_object();
  j.key("subruns").begin_array();
  for (const SubRun& r : traced) write_detail(j, r);
  for (const SubRun& r : reference) write_detail(j, r);
  j.end_array();
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_sim: %s\nusage: perfbench_sim --workload kv|multitenant|shardkv "
               "--seed N --seconds S --trace 0|1 [--trace-out PREFIX] [--short]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = next();
      } else if (a == "--seed") {
        o.seed = std::stoull(next());
      } else if (a == "--seconds") {
        o.seconds = std::stod(next());
      } else if (a == "--trace") {
        o.trace = std::stoi(next());
      } else if (a == "--trace-out") {
        o.trace_out = next();
      } else if (a == "--short") {
        o.shortened = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.trace != 0 && o.trace != 1) usage("--trace takes 0 or 1");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;

  const Options opt = parse(argc, argv);
  WorkloadDef def;
  if (!workload_def(opt.workload, opt.shortened, &def)) usage("unknown workload");
  try {
    return opt.trace == 1 ? run_traced(opt, def) : run_timed(opt, def);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 1;
  }
}
