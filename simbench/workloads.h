#pragma once
// Workload definitions, input plans and the code that pushes one plan
// through a waku::SimHarness world.
//
// A plan is drawn entirely from the benchmark seed: the world seed,
// which nodes publish, when (simulated time), with which payload bytes,
// and the registration-storm wave schedule. Traffic is an open loop on
// the simulated clock: each action is due at a pre-drawn time, and the
// benchmark advances the world to that time with Scheduler::run_until
// before making the call, so the generator is never late.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "sim/topology.h"
#include "util/bytes.h"

namespace simbench {

namespace sim = wakurln::sim;
namespace util = wakurln::util;

class SpanRecorder;

struct WorkloadSpec {
  std::string name;
  std::size_t nodes = 0;
  unsigned world_threads = 1;
  sim::LinkProfile link_profile = sim::LinkProfile::kUniform;
  std::size_t extra_links_per_node = 3;
  /// Honest members registered at setup; exactly publishes_per_epoch of
  /// them (a seeded draw) publish once in each traffic epoch.
  std::size_t publishers = 0;
  std::size_t publishes_per_epoch = 0;
  std::size_t epochs = 0;
  std::size_t payload_bytes = 256;
  /// Registration storm: stormers join in `epochs` waves (one per epoch
  /// boundary); each sends two publish_unchecked calls once its join has
  /// confirmed, so the network detects the double signal and slashes it.
  std::size_t stormers = 0;
  std::size_t acceptable_root_window = 0;  ///< 0 = library default
  bool observability = false;              ///< attach obs + sample per epoch
  std::uint64_t drain_seconds = 10;        ///< after the last traffic epoch
};

/// The named workloads (relay_mesh, membership_churn, relay_mesh_sharded).
/// Throws std::invalid_argument on an unknown name.
WorkloadSpec workload_by_name(const std::string& name);
std::vector<std::string> workload_names();

struct Action {
  enum class Kind : std::uint8_t { kEpoch, kRegister, kPublish, kPublishUnchecked };
  sim::TimeUs offset = 0;  ///< simulated time after the traffic start
  Kind kind = Kind::kEpoch;
  std::uint32_t node = 0;
  std::uint32_t msg = 0;  ///< payload index for publishes
};

struct Plan {
  std::uint64_t world_seed = 0;
  std::vector<std::size_t> publishers;  ///< registered at setup
  std::vector<std::size_t> stormers;
  std::vector<Action> actions;          ///< sorted by (offset, kind, node)
  std::vector<util::Bytes> payloads;    ///< by message index
  std::vector<std::uint32_t> sender;    ///< publishing node, by message index
  std::vector<bool> honest;             ///< by message index
  sim::TimeUs end_offset = 0;           ///< traffic phase ends here (drain done)
};

Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed);

/// Peak modeled resident bytes per layer, sampled at epoch boundaries.
struct MemoryPeaks {
  std::size_t router = 0;
  std::size_t mcache = 0;
  std::size_t nullifier = 0;
  std::size_t merkle = 0;
  std::size_t event_pool = 0;
  std::size_t network = 0;
};

/// Deterministic outputs of one pass of a plan through a world: pure
/// functions of (workload, seed), identical at every world_threads.
struct Counts {
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t traffic_events = 0;      ///< events executed in the traffic phase
  std::uint64_t timer_fires = 0;
  std::uint64_t queue_peak = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t bytes_sent = 0;          ///< network bytes in the traffic phase
  std::uint64_t deliveries = 0;          ///< application deliveries, all messages
  std::uint64_t honest_attempted = 0;    ///< honest (message, subscriber) pairs
  std::uint64_t honest_delivered = 0;
  std::uint64_t stormers = 0;
  std::uint64_t stormers_active = 0;     ///< double-signallers not slashed at the end
  std::uint64_t gs_delivered = 0;
  std::uint64_t gs_duplicates = 0;
  std::uint64_t gs_received = 0;         ///< delivered + duplicates + rejected + ignored
  std::uint64_t gs_forwarded = 0;
  std::uint64_t gs_control_bytes = 0;
  std::uint64_t rln_accepted = 0;
  std::uint64_t proof_verifications = 0;
  std::uint64_t proof_cache_hits = 0;
  std::uint64_t double_signals = 0;
  std::uint64_t slashes_submitted = 0;
  std::uint64_t registrations_applied = 0;
  std::uint64_t slashes_applied = 0;
  std::uint64_t root_updates = 0;
  std::uint64_t sync_bytes = 0;
  std::uint64_t publish_calls = 0;
  std::uint64_t register_calls = 0;
  std::uint64_t obs_samples = 0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  std::uint64_t latency_samples = 0;

  /// FNV-1a over the counts that must repeat exactly (events,
  /// deliveries, verifications, root updates, bytes, ...).
  std::uint64_t fingerprint() const;
};

struct DriveOptions {
  unsigned world_threads = 1;
  /// With an enabled recorder the pass is traced: spans around every call
  /// into a layer, per-layer memory peaks sampled at each epoch boundary,
  /// and the messages the run carried captured through the frame tap and
  /// replayed through the verifier and message_to_x after the traffic.
  SpanRecorder* spans = nullptr;
  /// false = one uninterrupted run_until over a pre-scheduled plan (the
  /// reference the self-test compares the chunked driving against).
  bool chunked = true;
};

/// Host speed probe: a fixed amount of the benchmark's own work (a
/// register-only mixing loop plus random updates over an 8 MiB table),
/// timed. The library never runs inside it, so no change to the library
/// can move it; only the machine's speed can. With threads > 1 the probe
/// runs on that many threads at once and the slowest one counts: a
/// sharded world advances at the pace of its slowest lane.
double calibration_seconds(unsigned threads);

/// What calibration_seconds() returns on the machine the benchmark was
/// defined on (4-vCPU Intel Xeon VM) at its usual speed. Host times
/// normalised to it read as seconds on that machine at that speed.
inline constexpr double kReferenceCalibrationS = 0.080;

struct Outcome {
  Counts counts;
  bool ok = true;
  std::vector<std::string> errors;
  // Host time (non-deterministic), raw seconds.
  double setup_s = 0.0;
  double traffic_s = 0.0;
  /// kReferenceCalibrationS over the mean of the calibration runs just
  /// before setup and just after the teardown: 0.8 = this pass ran
  /// on a machine 20% slower than the reference. raw × speed = normalised.
  double speed = 1.0;
  double traffic_cpu_s = 0.0;
  std::uint64_t payload_allocs = 0;  ///< SharedBytes allocations (driving thread)
  MemoryPeaks mem;
  std::vector<double> publish_us;
  std::vector<double> register_us;
  std::vector<double> obs_sample_us;
  std::uint32_t run = 0;         ///< span run id of a traced pass
  double verify_us = 0.0;        ///< replay: mean RlnVerifier::verify_prepared
  double message_to_x_us = 0.0;  ///< replay: mean RlnCircuit::message_to_x
  std::uint64_t replayed_signals = 0;
};

/// Nearest-rank percentile (q in [0, 1]) of ascending samples; 0 if empty.
double nearest_rank(const std::vector<double>& sorted, double q);

/// Builds a fresh world, runs the plan through it and checks the outputs.
Outcome drive(const WorkloadSpec& spec, const Plan& plan, const DriveOptions& opt);

}  // namespace simbench
