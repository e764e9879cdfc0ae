#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "eth/chain.h"
#include "gossipsub/message.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "spans.h"
#include "util/shared_bytes.h"
#include "waku/harness.h"
#include "zksnark/rln_circuit.h"

namespace simbench {

namespace eth = wakurln::eth;
namespace field = wakurln::field;
namespace gossipsub = wakurln::gossipsub;
namespace obs = wakurln::obs;
namespace rln = wakurln::rln;
namespace waku = wakurln::waku;
namespace zksnark = wakurln::zksnark;

namespace {

const gossipsub::TopicId kTopic = "/waku/2/simbench/proto";
constexpr std::uint64_t kWarmupSeconds = 5;

sim::TimeUs epoch_us() {
  return waku::WakuRlnConfig{}.epoch_period_seconds * sim::kUsPerSecond;
}

/// A stormer double-signals once its join has certainly confirmed: the
/// next block boundary has passed (block time + 2 s after the request).
sim::TimeUs confirm_us() {
  return (eth::Chain::Config{}.block_time_seconds + 2) * sim::kUsPerSecond;
}

/// splitmix64: the benchmark's own portable generator for plan inputs.
struct Draw {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Partial Fisher-Yates: the first k entries of v become a uniform sample.
  template <typename T>
  void sample_front(std::vector<T>& v, std::size_t k) {
    for (std::size_t i = 0; i < k && i + 1 < v.size(); ++i) {
      std::swap(v[i], v[i + static_cast<std::size_t>(below(v.size() - i))]);
    }
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint32_t message_index(const util::SharedBytes& payload) {
  if (payload.size() < 4) return UINT32_MAX;
  return static_cast<std::uint32_t>(payload[0]) |
         (static_cast<std::uint32_t>(payload[1]) << 8) |
         (static_cast<std::uint32_t>(payload[2]) << 16) |
         (static_cast<std::uint32_t>(payload[3]) << 24);
}

using Captured = std::unordered_map<gossipsub::MessageId, gossipsub::GsMessagePtr,
                                    gossipsub::MessageIdHash>;

/// Layer replay: decodes the distinct captured messages and times
/// RlnVerifier::verify_prepared and RlnCircuit::message_to_x on them.
void replay(const std::vector<Captured>& captured, const rln::RlnVerifier& verifier,
            Outcome& out) {
  const auto fail = [&out](std::string msg) {
    out.ok = false;
    out.errors.push_back(std::move(msg));
  };
  std::vector<std::pair<gossipsub::MessageId, gossipsub::GsMessagePtr>> msgs;
  for (const Captured& lane : captured) {
    for (const auto& entry : lane) msgs.emplace_back(entry);
  }
  std::sort(msgs.begin(), msgs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  msgs.erase(std::unique(msgs.begin(), msgs.end(),
                         [](const auto& a, const auto& b) { return a.first == b.first; }),
             msgs.end());
  std::vector<std::pair<rln::RlnSignal, util::SharedBytes>> signals;
  for (const auto& entry : msgs) {
    auto decoded = waku::WakuRlnRelay::decode_envelope(entry.second->data);
    if (decoded) signals.push_back(std::move(*decoded));
  }
  out.replayed_signals = signals.size();
  if (signals.empty()) {
    fail("replay captured no RLN signals");
    return;
  }
  std::vector<field::Fr> xs;
  for (const auto& [signal, payload] : signals) {
    xs.push_back(zksnark::RlnCircuit::message_to_x(payload.span()));
  }
  constexpr double kMinReplaySeconds = 0.05;
  std::uint64_t calls = 0;
  std::uint64_t rejected = 0;
  const auto v0 = std::chrono::steady_clock::now();
  do {
    for (const auto& [signal, payload] : signals) {
      if (!verifier.verify_prepared(payload.span(), signal)) ++rejected;
      ++calls;
    }
  } while (seconds_since(v0) < kMinReplaySeconds);
  out.verify_us = seconds_since(v0) * 1e6 / static_cast<double>(calls);
  if (rejected != 0) fail(std::to_string(rejected) + " replayed proofs rejected");

  calls = 0;
  std::uint64_t mismatched = 0;
  const auto x0 = std::chrono::steady_clock::now();
  do {
    for (std::size_t i = 0; i < signals.size(); ++i) {
      if (!(zksnark::RlnCircuit::message_to_x(signals[i].second.span()) == xs[i])) {
        ++mismatched;
      }
      ++calls;
    }
  } while (seconds_since(x0) < kMinReplaySeconds);
  out.message_to_x_us = seconds_since(x0) * 1e6 / static_cast<double>(calls);
  if (mismatched != 0) fail("message_to_x is not deterministic on replay");
}

/// Keeps calibration results observable so the loops are not elided.
volatile std::uint64_t g_calibration_sink = 0;

}  // namespace

double calibration_seconds(unsigned threads) {
  // One resident 8 MiB table per probe thread, allocated on first use and
  // kept: a constant addition to the resident set instead of a fresh
  // allocation next to each world.
  static std::vector<std::vector<std::uint64_t>> tables;
  while (tables.size() < threads) tables.emplace_back(std::size_t{1} << 20);
  const auto probe = [](std::vector<std::uint64_t>& table) {
    const std::uint64_t mask = table.size() - 1;
    Draw mix{0x5eed};
    std::uint64_t acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 24'000'000; ++i) acc += mix.next();
    for (int i = 0; i < 4'000'000; ++i) {
      const std::uint64_t z = mix.next();
      table[z & mask] += z;
    }
    const double s = seconds_since(t0);
    g_calibration_sink = acc + table[acc & mask];
    return s;
  };
  if (threads <= 1) return probe(tables[0]);
  std::vector<double> took(threads, 0.0);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&took, &probe, t] { took[t] = probe(tables[t]); });
  }
  for (std::thread& w : workers) w.join();
  return *std::max_element(took.begin(), took.end());
}

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(pos);
  if (static_cast<double>(rank) < pos) ++rank;
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::vector<std::string> workload_names() {
  return {"relay_mesh", "membership_churn", "relay_mesh_sharded"};
}

WorkloadSpec workload_by_name(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "relay_mesh" || name == "relay_mesh_sharded") {
    w.nodes = 1000;
    w.world_threads = name == "relay_mesh" ? 1 : 2;
    w.link_profile = sim::LinkProfile::kGeo;
    w.extra_links_per_node = 4;
    w.publishers = 64;
    w.publishes_per_epoch = 32;
    w.epochs = 2;
    w.payload_bytes = 256;
    w.drain_seconds = 10;
    return w;
  }
  if (name == "membership_churn") {
    // A 12 s block interval spans at most two 10 s waves, so one block
    // seal applies at most 2 waves of joins plus 2 waves of slashes: with
    // 3 joins per wave that is 12 root updates, inside the 16-root window
    // an honest message in flight across the seal is validated against.
    w.nodes = 128;
    w.publishers = 32;
    w.publishes_per_epoch = 16;
    w.epochs = 16;
    w.payload_bytes = 256;
    w.stormers = 48;
    w.acceptable_root_window = 16;
    w.observability = true;
    w.drain_seconds = 30;
    return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed) {
  if (spec.publishers + spec.stormers > spec.nodes || spec.payload_bytes < 4 ||
      spec.publishes_per_epoch > spec.publishers || spec.epochs == 0) {
    throw std::invalid_argument("workload " + spec.name + " is inconsistent");
  }
  Draw rng{seed ^ 0x5eedb0a7c0ffee11ULL};
  Plan plan;
  plan.world_seed = rng.next();

  std::vector<std::size_t> nodes(spec.nodes);
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = i;
  rng.sample_front(nodes, spec.publishers + spec.stormers);
  plan.publishers.assign(nodes.begin(), nodes.begin() + static_cast<long>(spec.publishers));
  plan.stormers.assign(nodes.begin() + static_cast<long>(spec.publishers),
                       nodes.begin() + static_cast<long>(spec.publishers + spec.stormers));

  const sim::TimeUs epoch = epoch_us();
  plan.end_offset = spec.epochs * epoch + spec.drain_seconds * sim::kUsPerSecond;
  for (sim::TimeUs t = 0; t <= plan.end_offset; t += epoch) {
    plan.actions.push_back({t, Action::Kind::kEpoch, 0, 0});
  }

  const auto add_message = [&](std::uint32_t node, bool honest) {
    const auto msg = static_cast<std::uint32_t>(plan.payloads.size());
    util::Bytes payload(spec.payload_bytes);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(rng.next());
    }
    for (std::size_t i = 0; i < 4; ++i) payload[i] = static_cast<std::uint8_t>(msg >> (8 * i));
    plan.payloads.push_back(std::move(payload));
    plan.sender.push_back(node);
    plan.honest.push_back(honest);
    return msg;
  };

  // Honest traffic: exactly publishes_per_epoch distinct publishers per
  // epoch, each at a uniform time inside the epoch (100 ms clear of its
  // edges so the publish never straddles an epoch boundary).
  std::vector<std::size_t> pool = plan.publishers;
  const sim::TimeUs margin = 100 * sim::kUsPerMs;
  for (std::size_t e = 0; e < spec.epochs; ++e) {
    rng.sample_front(pool, spec.publishes_per_epoch);
    for (std::size_t k = 0; k < spec.publishes_per_epoch; ++k) {
      const auto node = static_cast<std::uint32_t>(pool[k]);
      const sim::TimeUs at = e * epoch + margin + rng.below(epoch - 2 * margin);
      plan.actions.push_back({at, Action::Kind::kPublish, node, add_message(node, true)});
    }
  }

  // Registration storm: one wave per traffic epoch boundary; each member
  // double-signals confirm_us() after its request.
  const std::size_t per_wave = (spec.stormers + spec.epochs - 1) / spec.epochs;
  for (std::size_t s = 0; s < plan.stormers.size(); ++s) {
    const auto node = static_cast<std::uint32_t>(plan.stormers[s]);
    const sim::TimeUs at = (s / per_wave) * epoch;
    plan.actions.push_back({at, Action::Kind::kRegister, node, 0});
    for (int j = 0; j < 2; ++j) {
      plan.actions.push_back({at + confirm_us(), Action::Kind::kPublishUnchecked, node,
                              add_message(node, false)});
    }
  }

  std::stable_sort(plan.actions.begin(), plan.actions.end(),
                   [](const Action& a, const Action& b) {
                     if (a.offset != b.offset) return a.offset < b.offset;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     if (a.node != b.node) return a.node < b.node;
                     return a.msg < b.msg;
                   });
  if (plan.actions.back().offset > plan.end_offset) {
    throw std::invalid_argument("workload " + spec.name + ": drain too short");
  }
  return plan;
}

std::uint64_t Counts::fingerprint() const {
  const std::uint64_t fields[] = {
      events_executed,   events_scheduled,    timer_fires,      frames_sent,
      frames_delivered,  bytes_sent,          deliveries,       honest_delivered,
      gs_delivered,      gs_duplicates,       gs_forwarded,     gs_control_bytes,
      rln_accepted,      proof_verifications, proof_cache_hits, double_signals,
      slashes_submitted, registrations_applied, slashes_applied, root_updates,
      sync_bytes};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t v : fields) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

Outcome drive(const WorkloadSpec& spec, const Plan& plan, const DriveOptions& opt) {
  using Clock = std::chrono::steady_clock;
  Outcome out;
  SpanRecorder* rec = opt.spans;
  const bool traced = rec != nullptr && rec->enabled();
  const auto fail = [&out](std::string msg) {
    out.ok = false;
    out.errors.push_back(std::move(msg));
  };

  waku::HarnessConfig cfg = waku::HarnessConfig::defaults();
  cfg.node_count = spec.nodes;
  cfg.world_threads = opt.world_threads;
  cfg.seed = plan.world_seed;
  cfg.link_profile = spec.link_profile;
  cfg.extra_links_per_node = spec.extra_links_per_node;
  if (spec.acceptable_root_window > 0) {
    cfg.rln.acceptable_root_window = spec.acceptable_root_window;
  }

  // The registry outlives the world (the world's probes point into it).
  obs::Registry reg(spec.observability);
  obs::TimeSeries series;
  std::unique_ptr<waku::SimHarness> world;
  Scope iteration(rec, "bench.iteration");

  double calibration = 0.0;
  {
    Scope s(rec, "bench.calibrate");
    calibration += calibration_seconds(opt.world_threads);
  }

  // ---- setup: constructor start until warm-up returns --------------------
  const auto setup0 = Clock::now();
  {
    Scope s(rec, "waku.harness_build");
    world = std::make_unique<waku::SimHarness>(cfg);
  }
  if (spec.observability) {
    Scope s(rec, "obs.attach");
    world->attach_observability(reg, nullptr);
  }
  {
    Scope s(rec, "waku.subscribe");
    world->subscribe_all(kTopic);
  }
  {
    Scope s(rec, "waku.register");
    world->register_nodes(plan.publishers);
  }
  {
    Scope s(rec, "sim.warmup");
    world->run_seconds(kWarmupSeconds);
  }
  out.setup_s = seconds_since(setup0);

  sim::Scheduler& sched = world->scheduler();
  sim::Network& net = world->network();
  const sim::TimeUs epoch = epoch_us();
  const sim::TimeUs t0 = (sched.now() + epoch - 1) / epoch * epoch;
  const std::uint64_t bytes0 = net.stats().bytes_sent;
  const std::uint64_t events0 = sched.stats().executed;
  const std::uint64_t allocs0 = util::SharedBytes::allocation_count();

  // Replay capture: the distinct messages the run carried, one map per
  // scheduler lane (the tap runs on the receiving node's lane).
  std::vector<Captured> captured(sched.lane_count());
  if (traced) {
    net.set_frame_tap([&captured, &sched](sim::NodeId, sim::NodeId, const sim::Frame& frame,
                                          std::size_t) {
      const auto* rpc = frame.get_if<gossipsub::Rpc>();
      if (rpc == nullptr) return;
      Captured& lane = captured[sched.current_lane()];
      for (const gossipsub::GsMessagePtr& msg : rpc->publish) {
        if (msg) lane.try_emplace(msg->id, msg);
      }
    });
  }

  std::vector<sim::TimeUs> published_at(plan.payloads.size(), 0);
  std::vector<std::uint8_t> published(plan.payloads.size(), 0);
  const auto sample_memory = [&world, &out] {
    waku::SimHarness& w = *world;
    std::size_t routers = w.router_shared_bytes();
    std::size_t mcaches = 0;
    std::size_t nullifiers = w.validator_context()->memory_bytes();
    for (std::size_t i = 0; i < w.size(); ++i) {
      nullifiers += w.node(i).nullifier_map_bytes();
      routers += w.relay(i).router().memory_bytes();
      mcaches += w.relay(i).router().mcache().memory_bytes();
    }
    MemoryPeaks& m = out.mem;
    m.router = std::max(m.router, routers);
    m.mcache = std::max(m.mcache, mcaches);
    m.nullifier = std::max(m.nullifier, nullifiers);
    m.merkle = std::max(m.merkle, w.group_sync().memory_bytes());
    m.event_pool = std::max(m.event_pool, w.scheduler().memory_bytes());
    m.network = std::max(m.network, w.network().memory_bytes());
  };
  const auto timed_us = [](const std::function<void()>& fn) {
    const auto a = Clock::now();
    fn();
    return std::chrono::duration<double, std::micro>(Clock::now() - a).count();
  };
  const auto perform = [&](const Action& a) {
    switch (a.kind) {
      case Action::Kind::kEpoch:
        if (spec.observability) {
          Scope s(rec, "obs.sample");
          out.obs_sample_us.push_back(timed_us([&] {
            series.sample(reg, static_cast<double>(sched.now()) /
                                   static_cast<double>(sim::kUsPerSecond));
          }));
        }
        if (traced) {
          Scope s(rec, "bench.mem_sample");
          sample_memory();
        }
        break;
      case Action::Kind::kRegister: {
        Scope s(rec, "eth.request_registration");
        out.register_us.push_back(
            timed_us([&] { world->node(a.node).request_registration(); }));
        break;
      }
      case Action::Kind::kPublish:
      case Action::Kind::kPublishUnchecked: {
        Scope s(rec, "rln.publish");
        auto outcome = waku::WakuRlnRelay::PublishOutcome::kProofFailed;
        published_at[a.msg] = sched.now();
        out.publish_us.push_back(timed_us([&] {
          waku::WakuRlnRelay& node = world->node(a.node);
          outcome = a.kind == Action::Kind::kPublish
                        ? node.publish(kTopic, plan.payloads[a.msg])
                        : node.publish_unchecked(kTopic, plan.payloads[a.msg]);
        }));
        if (outcome == waku::WakuRlnRelay::PublishOutcome::kPublished) {
          published[a.msg] = 1;
        } else {
          fail("publish of message " + std::to_string(a.msg) + " by node " +
               std::to_string(a.node) + " refused");
        }
        break;
      }
    }
  };

  // ---- traffic: every publish, its propagation and the drain -------------
  const auto traffic0 = Clock::now();
  const double cpu0 = cpu_seconds();
  {
    Scope traffic(rec, "bench.traffic");
    if (opt.chunked) {
      for (const Action& a : plan.actions) {
        {
          Scope s(rec, "sim.run_until");
          sched.run_until(t0 + a.offset);
        }
        perform(a);
      }
      Scope s(rec, "sim.run_until");
      sched.run_until(t0 + plan.end_offset);
    } else {
      for (const Action& a : plan.actions) {
        sched.schedule_at(t0 + a.offset, [&perform, a] { perform(a); });
      }
      sched.run_until(t0 + plan.end_offset);
    }
  }
  out.traffic_s = seconds_since(traffic0);
  out.traffic_cpu_s = cpu_seconds() - cpu0;
  out.payload_allocs = util::SharedBytes::allocation_count() - allocs0;
  if (traced) net.set_frame_tap(nullptr);

  // ---- readout: the delivery-log fold plus the stats aggregation ---------
  waku::WakuRlnRelay::Stats rln;
  const std::vector<waku::SimHarness::Delivery>* deliveries = nullptr;
  {
    Scope s(rec, "waku.readout");
    deliveries = &world->deliveries();
    rln = world->aggregate_stats();
  }

  // ---- output checks and deterministic counts ----------------------------
  {
    Scope s(rec, "bench.check");
    Counts& c = out.counts;
    const sim::Scheduler::Stats sst = sched.stats();
    // The uninterrupted reference schedules one global event per action;
    // those are the benchmark's, not the world's.
    const std::uint64_t own = opt.chunked ? 0 : plan.actions.size();
    c.events_executed = sst.executed - own;
    c.events_scheduled = sst.scheduled - own;
    c.traffic_events = sst.executed - own - events0;
    c.timer_fires = sst.timer_fires;
    c.queue_peak = sst.peak_pending;
    const sim::Network::Stats nst = net.stats();
    c.frames_sent = nst.frames_sent;
    c.frames_delivered = nst.frames_delivered;
    c.bytes_sent = nst.bytes_sent - bytes0;
    c.deliveries = deliveries->size();

    const std::size_t n = spec.nodes;
    std::vector<std::uint8_t> got(plan.payloads.size() * n, 0);
    std::vector<double> latency_ms;
    std::uint64_t honest_msgs = 0;
    for (std::size_t m = 0; m < plan.payloads.size(); ++m) {
      if (plan.honest[m] && published[m]) ++honest_msgs;
    }
    for (const waku::SimHarness::Delivery& d : *deliveries) {
      const std::uint32_t m = message_index(d.payload);
      if (m >= plan.payloads.size() || !plan.honest[m] || d.node_index == plan.sender[m]) {
        continue;
      }
      std::uint8_t& seen = got[m * n + d.node_index];
      if (seen != 0) {
        fail("message " + std::to_string(m) + " delivered twice to node " +
             std::to_string(d.node_index));
        continue;
      }
      seen = 1;
      ++c.honest_delivered;
      latency_ms.push_back(static_cast<double>(d.at - published_at[m]) / 1e3);
    }
    c.honest_attempted = honest_msgs * (n - 1);
    if (c.honest_delivered != c.honest_attempted) {
      fail(std::to_string(c.honest_attempted - c.honest_delivered) + " of " +
           std::to_string(c.honest_attempted) + " honest deliveries missing (relay drops: " +
           std::to_string(rln.unknown_root) + " unknown root, " +
           std::to_string(rln.invalid_epoch) + " bad epoch, " +
           std::to_string(rln.invalid_proof) + " bad proof)");
    }
    std::sort(latency_ms.begin(), latency_ms.end());
    c.latency_p50_ms = nearest_rank(latency_ms, 0.50);
    c.latency_p99_ms = nearest_rank(latency_ms, 0.99);
    c.latency_samples = latency_ms.size();

    c.stormers = plan.stormers.size();
    for (const std::size_t i : plan.stormers) {
      if (world->contract().is_active(world->node(i).identity().pk)) ++c.stormers_active;
    }
    if (c.stormers_active != 0) {
      fail(std::to_string(c.stormers_active) + " double-signalling members still active");
    }

    for (std::size_t i = 0; i < world->size(); ++i) {
      const auto& g = world->relay(i).router().stats();
      c.gs_delivered += g.delivered;
      c.gs_duplicates += g.duplicates;
      c.gs_received += g.delivered + g.duplicates + g.rejected + g.ignored;
      c.gs_forwarded += g.forwarded;
      c.gs_control_bytes += g.control_bytes_sent;
    }
    c.rln_accepted = rln.accepted;
    c.proof_verifications = rln.proof_verifications;
    c.proof_cache_hits = rln.proof_cache_hits;
    c.double_signals = rln.double_signals;
    c.slashes_submitted = rln.slashes_submitted;
    const auto& gst = world->group_sync().stats();
    c.registrations_applied = gst.registrations_applied;
    c.slashes_applied = gst.slashes_applied;
    c.root_updates = gst.root_updates;
    c.sync_bytes = gst.sync_bytes;
    c.publish_calls = out.publish_us.size();
    c.register_calls = out.register_us.size();
    c.obs_samples = out.obs_sample_us.size();
    if (spec.observability && series.rows().size() != c.obs_samples) {
      fail("time series holds " + std::to_string(series.rows().size()) + " rows, expected " +
           std::to_string(c.obs_samples));
    }
  }

  if (traced) {
    Scope s(rec, "rln.replay");
    replay(captured, world->validator_context()->verifier, out);
  }

  {
    Scope s(rec, "waku.teardown");
    world.reset();
  }
  // After the teardown, so the probe's table never adds to the world's
  // peak resident set.
  {
    Scope s(rec, "bench.calibrate");
    calibration += calibration_seconds(opt.world_threads);
  }
  out.speed = kReferenceCalibrationS / (calibration / 2.0);
  return out;
}

}  // namespace simbench
