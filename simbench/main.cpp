// simbench — runs one benchmark workload for a fixed host-time
// budget and prints its metrics. Normally started through run.py:
//
//   simbench --workload relay_mesh --seed 1 --seconds 10 --trace 0
//                   [--trace-out spans.json]
//   simbench --self-test
//
// --trace 0 repeats (setup, traffic) untraced until --seconds have passed
// and reports the end-to-end metrics as medians over the iterations.
// --trace 1 alternates traced and untraced iterations and reports the
// per-layer metrics (span totals and self times, counts, replay timings,
// memory peaks) and the tracing overhead. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace simbench {
int run_self_test();
}

namespace {

using simbench::Outcome;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return simbench::nearest_rank(v, q);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// VmHWM of this process (the workload's own peak resident set), MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Pins the process to the last `n` CPUs it may run on, so a world's
/// threads are not migrated across the machine between windows. Returns
/// the CPUs chosen (empty if the affinity could not be set).
std::vector<int> pin_to_cpus(unsigned n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int c = CPU_SETSIZE - 1; c >= 0 && cpus.size() < n; --c) {
    if (CPU_ISSET(c, &allowed)) cpus.insert(cpus.begin(), c);
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (const int c : cpus) CPU_SET(c, &chosen);
  if (cpus.size() < n || sched_setaffinity(0, sizeof chosen, &chosen) != 0) return {};
  return cpus;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool self_test = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!a.self_test && !have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

/// Operations one iteration attempts (honest deliveries + slash-worthy
/// double-signallers) and how many of them failed. An iteration that
/// fails a check not tied to one operation fails all of them.
std::pair<std::uint64_t, std::uint64_t> tally(const Outcome& o) {
  const auto& c = o.counts;
  const std::uint64_t attempted = c.honest_attempted + c.stormers;
  std::uint64_t failed = (c.honest_attempted - std::min(c.honest_attempted, c.honest_delivered)) +
                         c.stormers_active;
  if (!o.ok && failed == 0) failed = attempted;
  return {attempted, failed};
}

void print_counts(const simbench::WorkloadSpec& spec, std::uint64_t seed, const Outcome& o) {
  const auto& c = o.counts;
  std::printf(
      "fingerprint %s seed=%llu %s events=%llu scheduled=%llu deliveries=%llu "
      "verifications=%llu cache_hits=%llu root_updates=%llu bytes=%llu\n",
      spec.name.c_str(), static_cast<unsigned long long>(seed),
      hex64(c.fingerprint()).c_str(), static_cast<unsigned long long>(c.events_executed),
      static_cast<unsigned long long>(c.events_scheduled),
      static_cast<unsigned long long>(c.deliveries),
      static_cast<unsigned long long>(c.proof_verifications),
      static_cast<unsigned long long>(c.proof_cache_hits),
      static_cast<unsigned long long>(c.root_updates),
      static_cast<unsigned long long>(c.bytes_sent));
  std::printf("latency samples=%llu (honest deliveries; p50 and p99 over these)\n",
              static_cast<unsigned long long>(c.latency_samples));
}

int run_workload(const Args& args) {
  using Clock = std::chrono::steady_clock;
  const simbench::WorkloadSpec spec = simbench::workload_by_name(args.workload);
  const simbench::Plan plan = simbench::make_plan(spec, args.seed);
  std::printf("cpus:");
  for (const int c : pin_to_cpus(spec.world_threads)) std::printf(" %d", c);
  std::printf("\n");

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reference = 0;
  bool have_reference = false;
  const auto account = [&](const Outcome& o, const char* what) {
    const auto [att, fail] = tally(o);
    attempted += att;
    failed += fail;
    bool ok = o.ok;
    for (const std::string& e : o.errors) std::fprintf(stderr, "check failed (%s): %s\n", what, e.c_str());
    if (!have_reference) {
      reference = o.counts.fingerprint();
      have_reference = true;
    } else if (o.counts.fingerprint() != reference) {
      std::fprintf(stderr, "check failed (%s): fingerprint %s differs from %s\n", what,
                   hex64(o.counts.fingerprint()).c_str(), hex64(reference).c_str());
      ok = false;
      failed += att - fail;
    }
    if (!ok) correct = false;
    return ok;
  };

  // A sharded workload first runs the same plan serially (untimed): its
  // deterministic counts must match the sharded run's exactly.
  if (spec.world_threads > 1) {
    simbench::DriveOptions serial;
    serial.world_threads = 1;
    const Outcome ref = simbench::drive(spec, plan, serial);
    std::printf("serial reference traffic_s=%.6f\n", ref.traffic_s);
    account(ref, "serial reference");
  }

  std::vector<Outcome> plain;   // untraced iterations that passed
  std::vector<Outcome> traced;  // traced iterations that passed
  std::vector<Outcome> rejected_plain;
  std::vector<Outcome> rejected_traced;
  simbench::SpanRecorder spans(args.trace);
  constexpr std::size_t kMinIterations = 3;
  const auto start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  for (std::uint32_t it = 0; it < 1000; ++it) {
    const bool enough_plain = plain.size() >= (args.trace ? 1 : kMinIterations);
    const bool enough_traced = !args.trace || !traced.empty();
    if (elapsed() >= args.seconds && enough_plain && enough_traced) break;
    // Give up once a kind of iteration the result needs has failed twice
    // without ever passing.
    if (rejected_plain.size() >= 2 && plain.empty()) break;
    if (rejected_traced.size() >= 2 && traced.empty()) break;
    const bool this_traced = args.trace && it % 2 == 0;
    simbench::DriveOptions opt;
    opt.world_threads = spec.world_threads;
    if (this_traced) {
      spans.set_run(it);
      opt.spans = &spans;
    }
    Outcome o = simbench::drive(spec, plan, opt);
    if (it == 0) print_counts(spec, args.seed, o);
    std::printf("iteration %u%s setup_s=%.6f traffic_s=%.6f speed=%.4f\n", it,
                this_traced ? " traced" : "", o.setup_s, o.traffic_s, o.speed);
    const bool ok = account(o, this_traced ? "traced" : "untraced");
    if (this_traced) {
      o.run = it;
      (ok ? traced : rejected_traced).push_back(std::move(o));
    } else {
      (ok ? plain : rejected_plain).push_back(std::move(o));
    }
  }
  // A run whose iterations all failed still reports every metric (from the
  // failed iterations) with correct = false.
  if (plain.empty()) plain = std::move(rejected_plain);
  if (traced.empty()) traced = std::move(rejected_traced);
  if (plain.empty() || (args.trace && traced.empty())) {
    throw std::runtime_error("no iteration completed");
  }
  const simbench::Counts& c = plain.front().counts;
  const auto collect = [](const std::vector<Outcome>& v, double Outcome::*field) {
    std::vector<double> out;
    for (const Outcome& o : v) out.push_back(o.*field);
    return out;
  };
  // Host times normalised to the reference machine speed (workloads.h).
  const auto normalised = [](const std::vector<Outcome>& v, double Outcome::*field) {
    std::vector<double> out;
    for (const Outcome& o : v) out.push_back(o.*field * o.speed);
    return out;
  };
  std::vector<double> speeds = collect(plain, &Outcome::speed);
  for (const Outcome& o : traced) speeds.push_back(o.speed);
  std::printf("host speed factor median %.4f; raw medians: setup_s %.6f traffic_s %.6f\n",
              median(speeds), median(collect(plain, &Outcome::setup_s)),
              median(collect(plain, &Outcome::traffic_s)));

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double stormers = static_cast<double>(c.stormers);
    const double delivered =
        static_cast<double>(c.honest_delivered) + stormers - static_cast<double>(c.stormers_active);
    metrics = {
        {"setup_s", median(normalised(plain, &Outcome::setup_s)), "s"},
        {"traffic_s", median(normalised(plain, &Outcome::traffic_s)), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"delivered_ratio", ratio(delivered, static_cast<double>(c.honest_attempted) + stormers),
         "ratio"},
        {"sim_latency_p50_ms", c.latency_p50_ms, "ms"},
        {"sim_latency_p99_ms", c.latency_p99_ms, "ms"},
        {"bytes_per_delivery",
         ratio(static_cast<double>(c.bytes_sent), static_cast<double>(c.honest_delivered)),
         "bytes"},
    };
    std::printf("iterations=%zu\n", plain.size());
    print_result(correct, std::max<std::uint64_t>(attempted, 1), failed, metrics);
    return 0;
  }

  // ---- traced run: per-layer metrics -------------------------------------
  std::map<std::string, std::vector<double>> total_by_layer;
  std::map<std::string, std::vector<double>> self_by_layer;
  std::vector<double> unattributed;
  for (const Outcome& o : traced) {
    const auto layers = simbench::fold_layers(spans, o.run);
    for (const auto& [name, lt] : layers) {
      total_by_layer[name].push_back(lt.total_s);
      self_by_layer[name].push_back(lt.self_s);
    }
    const auto it = layers.find("bench.iteration");
    if (it != layers.end()) unattributed.push_back(ratio(it->second.self_s, it->second.total_s));
  }
  const auto layer_total = [&](const std::string& name) {
    const auto it = total_by_layer.find(name);
    return it == total_by_layer.end() ? 0.0 : median(it->second);
  };
  const auto layer_self = [&](const std::string& name) {
    const auto it = self_by_layer.find(name);
    return it == self_by_layer.end() ? 0.0 : median(it->second);
  };
  std::vector<double> publish_us;
  std::vector<double> register_us;
  std::vector<double> obs_us;
  for (const Outcome& o : traced) {
    publish_us.insert(publish_us.end(), o.publish_us.begin(), o.publish_us.end());
    register_us.insert(register_us.end(), o.register_us.begin(), o.register_us.end());
    obs_us.insert(obs_us.end(), o.obs_sample_us.begin(), o.obs_sample_us.end());
  }
  std::vector<double> cpu_per_wall;
  for (const Outcome& o : plain) cpu_per_wall.push_back(ratio(o.traffic_cpu_s, o.traffic_s));
  const Outcome& t = traced.front();
  const double propagate_s = layer_total("sim.run_until");
  const double verify_us = median(collect(traced, &Outcome::verify_us));
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };

  metrics = {
      {"waku.harness_build_s", layer_total("waku.harness_build"), "s"},
      {"waku.subscribe_s", layer_total("waku.subscribe"), "s"},
      {"waku.register_s", layer_total("waku.register"), "s"},
      {"sim.warmup_s", layer_total("sim.warmup"), "s"},
      {"sim.propagate_s", propagate_s, "s"},
      {"sim.ns_per_event", ratio(propagate_s * 1e9, n(c.traffic_events)), "ns"},
      {"sim.events_executed", n(c.events_executed), "count"},
      {"sim.events_scheduled", n(c.events_scheduled), "count"},
      {"sim.timer_fires", n(c.timer_fires), "count"},
      {"sim.queue_peak", n(c.queue_peak), "count"},
      {"sim.frames_delivered", n(c.frames_delivered), "count"},
      {"sim.bytes_sent", n(c.bytes_sent), "bytes"},
      {"sim.cpu_per_wall", median(cpu_per_wall), "ratio"},
      {"sim.latency_samples", n(c.latency_samples), "count"},
      {"gossipsub.delivered", n(c.gs_delivered), "count"},
      {"gossipsub.duplicates", n(c.gs_duplicates), "count"},
      {"gossipsub.forwarded", n(c.gs_forwarded), "count"},
      {"gossipsub.dup_ratio", ratio(n(c.gs_duplicates), n(c.gs_received)), "ratio"},
      {"gossipsub.control_bytes", n(c.gs_control_bytes), "bytes"},
      {"rln.publish_us_p50", percentile(publish_us, 0.50), "us"},
      {"rln.publish_us_p90", percentile(publish_us, 0.90), "us"},
      {"rln.publish_calls", n(c.publish_calls), "count"},
      {"rln.proof_verifications", n(c.proof_verifications), "count"},
      {"rln.proof_cache_hits", n(c.proof_cache_hits), "count"},
      {"rln.cache_hit_ratio",
       ratio(n(c.proof_cache_hits), n(c.proof_cache_hits + c.proof_verifications)), "ratio"},
      {"rln.verify_us", verify_us, "us"},
      {"zksnark.message_to_x_us", median(collect(traced, &Outcome::message_to_x_us)), "us"},
      {"rln.verify_share_est", ratio(verify_us * n(c.proof_verifications), propagate_s * 1e6),
       "ratio"},
      {"rln.replayed_signals", n(t.replayed_signals), "count"},
      {"rln.double_signals", n(c.double_signals), "count"},
      {"rln.slashes_submitted", n(c.slashes_submitted), "count"},
      {"group.registrations_applied", n(c.registrations_applied), "count"},
      {"group.slashes_applied", n(c.slashes_applied), "count"},
      {"merkle.root_updates", n(c.root_updates), "count"},
      {"group.sync_bytes", n(c.sync_bytes), "bytes"},
      {"eth.request_registration_us_p50", percentile(register_us, 0.50), "us"},
      {"eth.request_registration_calls", n(c.register_calls), "count"},
      {"obs.sample_us_p50", percentile(obs_us, 0.50), "us"},
      {"obs.sample_calls", n(c.obs_samples), "count"},
      {"gossipsub.mem_router_bytes", n(t.mem.router), "bytes"},
      {"gossipsub.mem_mcache_bytes", n(t.mem.mcache), "bytes"},
      {"rln.mem_nullifier_bytes", n(t.mem.nullifier), "bytes"},
      {"merkle.mem_bytes", n(t.mem.merkle), "bytes"},
      {"sim.mem_event_pool_bytes", n(t.mem.event_pool), "bytes"},
      {"sim.mem_network_bytes", n(t.mem.network), "bytes"},
      {"util.payload_allocs", n(t.payload_allocs), "count"},
      {"waku.readout_s", layer_total("waku.readout"), "s"},
      {"waku.teardown_s", layer_total("waku.teardown"), "s"},
      {"bench.traffic_self_s", layer_self("bench.traffic"), "s"},
      {"trace.unattributed_share", median(unattributed), "ratio"},
      {"trace.overhead_ratio",
       ratio(median(normalised(traced, &Outcome::traffic_s)),
             median(normalised(plain, &Outcome::traffic_s))),
       "ratio"},
      {"host.speed_factor", median(speeds), "ratio"},
      {"host.traffic_raw_s", median(collect(plain, &Outcome::traffic_s)), "s"},
  };
  std::printf("iterations traced=%zu untraced=%zu\n", traced.size(), plain.size());
  std::printf("layer self times (median per traced iteration):\n");
  for (const auto& [name, v] : self_by_layer) {
    std::printf("  %-28s total %10.6f s  self %10.6f s\n", name.c_str(), layer_total(name),
                median(v));
  }
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << spans.json();
    if (!out) std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
  }
  print_result(correct, std::max<std::uint64_t>(attempted, 1), failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.self_test) return simbench::run_self_test();
    return run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 2;
  }
}
