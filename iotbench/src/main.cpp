// iotbench — runs one workload and prints its metrics.
//
//   iotbench --workload NAME --seed N --seconds S --trace 0|1 [--launched-ns T]
//
// T is the launcher's steady-clock reading (CLOCK_MONOTONIC, ns) just before
// it started this process; run.py passes it so that `setup_s` includes the
// process start. Without it the process start is left out.
//
// Stdout: a `fingerprint {...}` line, a `failures {...}` line (failed
// operations by kind), and last a JSON object with `correct`, `attempted`,
// `failed` and `metrics`. With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 the per-layer ones, from a run whose first half is
// untraced and second half traced (the difference is the tracing
// overhead). The traced run also writes .bench_out/trace-<workload>-<pid>.json
// (Chrome trace_event) and a per-layer self-time table next to it.
//
// Exit codes: 0 correct; 1 an output check failed; 2 usage; 3 this build
// must not report numbers (checks or a sanitizer compiled in).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "fingerprint.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace iotbench;
using Clock = std::chrono::steady_clock;

constexpr int kUsage = 2;
constexpr int kRefused = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t launched_ns = 0;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload paper_sweep|fleet_ideal|fleet_windowed_ap|cache_replay"
               " --seed N --seconds S --trace 0|1\n";
  return kUsage;
}

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    const char* end = value.data() + value.size();
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (std::from_chars(value.data(), end, a.seed).ptr != end) return false;
    } else if (flag == "--seconds") {
      int s = 0;
      if (std::from_chars(value.data(), end, s).ptr != end || s < 0) return false;
      a.seconds = s;
    } else if (flag == "--launched-ns") {
      if (std::from_chars(value.data(), end, a.launched_ns).ptr != end) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload;
}

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux reports KiB
}

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::ostringstream v;
    v.precision(17);
    v << (std::isfinite(value) ? value : 0.0);
    if (!out_.empty()) out_ += ", ";
    out_ += "\"" + name + "\": {\"value\": " + v.str() + ", \"unit\": \"" + unit + "\"}";
  }
  [[nodiscard]] const std::string& json() const { return out_; }

 private:
  std::string out_;
};

void end_to_end(const Measurements& m, double process_start_s, Metrics& out) {
  out.add("setup_s", process_start_s + median(m.setup_s), "s");
  out.add("peak_rss_bytes", peak_rss_bytes(), "bytes");
  out.add("throughput_per_s", m.op_ms > 0.0 ? 1e3 * m.work_units / m.op_ms : 0.0, "1/s");
  out.add("latency_p50_ms", median(m.request_ms), "ms");
}

void per_layer(const Measurements& m, const Tracer& tracer, std::size_t untraced_rounds,
               Metrics& out) {
  const LayerCounts& c = m.counts;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out.add("sim.events", d(c.events), "count");
  const double single_total_ms = std::accumulate(m.single_ms.begin(), m.single_ms.end(), 0.0);
  out.add("sim.host_ns_per_event",
          m.single_events > 0 ? single_total_ms * 1e6 / d(m.single_events) : 0.0, "ns");
  out.add("sim.peak_queue_depth", d(c.peak_queue_depth), "count");

  const double single = median(m.single_ms);
  const double sharded = median(m.sharded_ms);
  out.add("core.runner.single_ms", single, "ms");
  out.add("core.runner.shard_speedup", sharded > 0.0 ? single / sharded : 0.0, "x");
  out.add("core.runner.shard_efficiency", sharded > 0.0 ? single / sharded / m.shards : 0.0,
          "ratio");
  double runner_total = 0.0;
  for (const auto& [scheme, ms] : m.runner_ms_by_scheme) runner_total += ms;
  for (const char* scheme : {"Baseline", "Batching", "COM", "BEAM", "BCOM"}) {
    const auto it = m.runner_ms_by_scheme.find(scheme);
    const double ms = it == m.runner_ms_by_scheme.end() ? 0.0 : it->second;
    out.add(std::string{"core.runner.scheme_pct."} + scheme,
            runner_total > 0.0 ? 100.0 * ms / runner_total : 0.0, "%");
  }
  out.add("core.sweep.executed", d(c.sweep_executed), "count");
  out.add("core.sweep.memo_hits", d(c.sweep_memo_hits), "count");
  out.add("core.build_ms", median(m.build_ms), "ms");
  out.add("core.scenario_key_us", tracer.median_ns("core.scenario_key") / 1e3, "us");
  out.add("core.scenario_key_bytes", mean(m.key_bytes), "bytes");
  out.add("core.result_json_us", tracer.median_ns("core.to_json_text") / 1e3, "us");
  out.add("core.result_json_bytes", mean(m.json_bytes), "bytes");

  out.add("cache.codec.encode_us", tracer.median_ns("cache.encode_result") / 1e3, "us");
  out.add("cache.codec.decode_us", tracer.median_ns("cache.decode_result") / 1e3, "us");
  out.add("cache.codec.bytes", mean(m.codec_bytes), "bytes");
  out.add("cache.lookup_us", tracer.median_ns("cache.lookup") / 1e3, "us");
  out.add("cache.store_us", tracer.median_ns("cache.store") / 1e3, "us");
  const double store_ms = std::accumulate(m.store_ms.begin(), m.store_ms.end(), 0.0);
  out.add("cache.stores_per_s", store_ms > 0.0 ? 1e3 * d(m.stores) / store_ms : 0.0, "1/s");
  out.add("cache.hits", d(c.cache_hits), "count");
  out.add("cache.misses", d(c.cache_misses), "count");
  out.add("cache.corrupt", d(c.cache_corrupt), "count");
  out.add("cache.store_failures", d(c.cache_store_failures), "count");

  out.add("hw.interrupts", d(c.interrupts), "count");
  out.add("hw.cpu_wakeups", d(c.cpu_wakeups), "count");
  out.add("apps.instructions", d(c.instructions), "count");
  out.add("net.airtime_grants", d(c.airtime_grants), "count");
  out.add("net.retries", d(c.net_retries), "count");
  out.add("net.drops", d(c.net_drops), "count");
  out.add("net.airtime_wait_sim_ms", c.airtime_wait_sim_ms, "sim_ms");

  out.add("bench.requests", d(m.request_ms.size()), "count");
  out.add("bench.request_p99_ms", percentile(m.request_ms, 0.99), "ms");

  const std::vector<double> untraced(m.round_ms.begin(),
                                     m.round_ms.begin() + static_cast<std::ptrdiff_t>(untraced_rounds));
  const std::vector<double> traced(m.round_ms.begin() + static_cast<std::ptrdiff_t>(untraced_rounds),
                                   m.round_ms.end());
  const double base = median(untraced);
  out.add("trace.overhead_pct", base > 0.0 ? 100.0 * (median(traced) / base - 1.0) : 0.0, "%");
  out.add("trace.spans", d(tracer.spans().size()), "count");
  const auto self = tracer.self_ns_by_layer();
  double total = 0.0;
  for (const auto& [layer, ns] : self) total += ns;
  for (const char* layer : {"bench", "core", "cache"}) {
    const auto it = self.find(layer);
    out.add(std::string{layer} + ".self_pct",
            it != self.end() && total > 0.0 ? 100.0 * it->second / total : 0.0, "%");
  }
}

void write_trace(const Tracer& tracer, const std::filesystem::path& stem) {
  std::ofstream{stem.string() + ".json"} << tracer.chrome_json();
  const std::string table = tracer.layer_table();
  std::ofstream{stem.string() + "-layers.txt"} << table;
  std::cerr << "[iotbench] trace: " << stem.string() << ".json\n" << table;
}

/// Removes this run's private directory on every exit path.
struct DirGuard {
  std::filesystem::path dir;
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t entered_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch()).count();
  Args args;
  if (!parse(argc, argv, args)) return usage(argv[0]);
  const double process_start_s =
      args.launched_ns > 0 ? static_cast<double>(entered_ns - args.launched_ns) / 1e9 : 0.0;
  if (std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames), args.workload) ==
      std::end(kWorkloadNames)) {
    return usage(argv[0]);
  }

  const Fingerprint fp = fingerprint();
  std::cout << "fingerprint " << to_json(fp) << std::endl;
  if (const auto why = refusal_reason(fp); !why.empty()) {
    std::cerr << "[iotbench] refusing to report numbers: " << why << '\n';
    return kRefused;
  }

  // Everything the run writes lives under .bench_out in the working
  // directory; its caches go to a directory private to this process.
  const std::filesystem::path out_root = ".bench_out";
  const DirGuard guard{out_root / (args.workload + "-" + std::to_string(getpid()))};
  std::error_code ec;
  std::filesystem::remove_all(guard.dir, ec);
  std::filesystem::create_directories(guard.dir, ec);
  if (ec) {
    std::cerr << "[iotbench] cannot create " << guard.dir << ": " << ec.message() << '\n';
    return 1;
  }

  Tracer tracer;
  tracer.set_enabled(args.trace);
  Tally tally;
  const unsigned cores = std::max(1U, std::thread::hardware_concurrency());
  auto workload = make_workload(
      args.workload, Context{args.seed, static_cast<int>(std::min(4U, cores)), guard.dir, &tracer, &tally});

  // Every workload sets up three times before its rounds, and the rounds
  // use the last set-up; setup_s is the process start plus the median.
  for (int i = 0; i < 3; ++i) workload->setup();

  // Whole rounds until the time is up. A traced run spends the first half
  // untraced and the second half traced.
  const auto t0 = Clock::now();
  const auto elapsed = [&] { return std::chrono::duration<double>(Clock::now() - t0).count(); };
  std::size_t untraced_rounds = 0;
  if (args.trace) {
    tracer.set_enabled(false);
    do workload->round();
    while (elapsed() < args.seconds / 2.0);
    untraced_rounds = workload->measurements().round_ms.size();
    tracer.set_enabled(true);
  }
  do workload->round();
  while (elapsed() < args.seconds);
  workload->verify();
  {
    std::ostringstream rounds;
    rounds.precision(6);
    for (const double ms : workload->measurements().round_ms) rounds << ' ' << ms;
    std::cerr << "[iotbench] " << args.workload << " round ms:" << rounds.str() << '\n';
  }

  Metrics metrics;
  if (args.trace) {
    per_layer(workload->measurements(), tracer, untraced_rounds, metrics);
    write_trace(tracer, out_root / ("trace-" + args.workload + "-" + std::to_string(getpid())));
  } else {
    end_to_end(workload->measurements(), process_start_s, metrics);
  }

  const bool correct = tally.failed() == 0;
  std::cout << "failures " << tally.json() << '\n';
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted() << ", \"failed\": " << tally.failed()
            << ", \"metrics\": {" << metrics.json() << "}}" << std::endl;
  return correct ? 0 : 1;
}
