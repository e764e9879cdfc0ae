// Parallel world execution (sharded scheduler): the determinism contract
// under test is that world_threads changes *nothing* observable — every
// deterministic report byte, every delivery order, every timer fire is
// identical to the single-thread run.
//
// Two halves:
//   * Catalogue byte-identity: every registered scenario runs at a fixed
//     shrink config with world_threads 1, 2 and 4; the full deterministic
//     report (and the per-epoch time series) must compare equal as
//     strings.
//   * Window-barrier edge cases at the raw scheduler level, comparing a
//     2-shard execution log against the 1-shard reference: zero-latency
//     rescheduling inside a window, cross-shard arrivals tying on time
//     (merged by (origin, seq)), and cancelling a shard-owned timer from
//     a global event while its next occurrence is already armed across
//     the barrier.
//
// Plus the world-shared proof-verdict memo under two lanes: relays on both
// shards look up and fill one memo, so this is where TSan watches its lock.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "scenario/campaign.h"
#include "scenario/scenarios.h"
#include "sim/scheduler.h"
#include "waku/harness.h"

namespace wakurln {
namespace {

// ---------------------------------------------------------------------------
// Catalogue byte-identity
// ---------------------------------------------------------------------------

// Same shrink config as the report pins (12 nodes, 3 traffic epochs),
// one seed per variant. Observability is on so the per-epoch time series
// is held to the same byte-identity bar as the report.
std::string run_report(scenario::ScenarioSpec spec, unsigned world_threads) {
  spec.nodes = 12;
  spec.traffic_epochs = 3;
  spec.observability = true;
  spec.world_threads = world_threads;
  scenario::CampaignConfig cfg;
  cfg.seeds = 1;
  cfg.seed0 = 1;
  cfg.threads = 1;
  const scenario::CampaignResult result = scenario::run_campaign(spec, cfg);
  return scenario::report_json(result) + "\n" + scenario::timeseries_json(result);
}

class WorldThreadsIdentityTest
    : public ::testing::TestWithParam<scenario::ScenarioSpec> {};

TEST_P(WorldThreadsIdentityTest, ShardedRunMatchesSerialByteForByte) {
  const scenario::ScenarioSpec& spec = GetParam();
  const std::string serial = run_report(spec, 1);
  EXPECT_EQ(serial, run_report(spec, 2))
      << spec.name << ": 2-shard report diverged from the serial run";
  EXPECT_EQ(serial, run_report(spec, 4))
      << spec.name << ": 4-shard report diverged from the serial run";
}

INSTANTIATE_TEST_SUITE_P(
    Catalogue, WorldThreadsIdentityTest,
    ::testing::ValuesIn(scenario::registered_scenarios()),
    [](const ::testing::TestParamInfo<scenario::ScenarioSpec>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Window-barrier edge cases
// ---------------------------------------------------------------------------

// Records every delivery into the executing lane's own log (workers never
// share a vector) stamped with the scheduler's total-order stamp; merged()
// folds the lanes into the stamp order the determinism contract promises.
class LogSink : public sim::DeliverySink {
 public:
  explicit LogSink(sim::Scheduler& sched)
      : sched_(sched), lanes_(sched.lane_count()) {}

  void on_delivery(const sim::DeliveryEvent& ev) override {
    lanes_[sched_.current_lane()].emplace_back(
        sched_.current_stamp(),
        "t=" + std::to_string(sched_.now()) + " " + std::to_string(ev.from) +
            "->" + std::to_string(ev.to) + " bytes=" + std::to_string(ev.bytes));
    if (on) on(ev);
  }

  std::vector<std::string> merged() const {
    std::vector<std::pair<sim::Scheduler::Stamp, std::string>> all;
    for (const auto& lane : lanes_) all.insert(all.end(), lane.begin(), lane.end());
    std::stable_sort(all.begin(), all.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::string> out;
    out.reserve(all.size());
    for (auto& entry : all) out.push_back(std::move(entry.second));
    return out;
  }

  std::function<void(const sim::DeliveryEvent&)> on;

 private:
  sim::Scheduler& sched_;
  std::vector<std::vector<std::pair<sim::Scheduler::Stamp, std::string>>> lanes_;
};

constexpr sim::TimeUs kLookahead = 1'000;
constexpr std::size_t kNodes = 4;  // 2 shards of 2 at world_threads 2

sim::DeliveryEvent make_delivery(sim::NodeId from, sim::NodeId to,
                                 std::size_t bytes) {
  sim::DeliveryEvent ev;
  ev.from = from;
  ev.to = to;
  ev.bytes = bytes;
  return ev;
}

// A delivery handler that re-sends to the same node with delay 0 chains
// several events at the *same* (time, origin) inside one window — the
// seq counter alone must order them, and the chain must not escape the
// window's event horizon.
TEST(WorldThreadsBarrierTest, ZeroLatencyRescheduleInsideWindow) {
  auto run = [](unsigned world_threads) {
    sim::Scheduler sched(world_threads, kNodes);
    sched.set_lookahead(kLookahead);
    LogSink sink(sched);
    sched.set_delivery_sink(&sink);
    sink.on = [&](const sim::DeliveryEvent& ev) {
      if (ev.bytes > 0) {
        sched.schedule_delivery_after(0,
                                      make_delivery(ev.to, ev.to, ev.bytes - 1));
      }
    };
    for (sim::NodeId n = 0; n < kNodes; ++n) {
      sched.schedule_delivery_after(500 + 100 * n, make_delivery(n, n, 3));
    }
    sched.run_until(5'000);
    return sink.merged();
  };

  const std::vector<std::string> serial = run(1);
  ASSERT_EQ(serial.size(), kNodes * 4u);  // seed + 3 chained re-sends each
  EXPECT_EQ(serial, run(2));
}

// Two senders on different shards hit the same destination at the same
// simulated time. The mailbox merge must order them by (origin, seq) —
// node 0 (origin 1) before node 3 (origin 4) — exactly as the serial
// engine does.
TEST(WorldThreadsBarrierTest, CrossShardTieBreakMergesByOriginThenSeq) {
  auto run = [](unsigned world_threads) {
    sim::Scheduler sched(world_threads, kNodes);
    sched.set_lookahead(kLookahead);
    LogSink sink(sched);
    sched.set_delivery_sink(&sink);
    sink.on = [&](const sim::DeliveryEvent& ev) {
      // Markers fan in to node 1: from node 0 an intra-shard hop, from
      // node 3 a cross-shard hop at exactly the lookahead bound. Both
      // land at the same timestamp.
      if (ev.bytes == 1) {
        sched.schedule_delivery_after(kLookahead, make_delivery(ev.to, 1, 0));
      }
    };
    sched.schedule_delivery_after(500, make_delivery(0, 0, 1));
    sched.schedule_delivery_after(500, make_delivery(3, 3, 1));
    sched.run_until(5'000);
    return sink.merged();
  };

  const std::vector<std::string> serial = run(1);
  ASSERT_EQ(serial.size(), 4u);
  // The tied arrivals at t=1500: lower origin (node 0) first.
  EXPECT_EQ(serial[2], "t=1500 0->1 bytes=0");
  EXPECT_EQ(serial[3], "t=1500 3->1 bytes=0");
  EXPECT_EQ(serial, run(2));
}

// A shard-owned periodic timer is cancelled by a *global* event while its
// next occurrence is already enqueued on the shard lane beyond the
// barrier: the tombstone must reach across lanes, and the fire sequence
// must match the serial run exactly.
TEST(WorldThreadsBarrierTest, TimerCancelAcrossWindowBarrier) {
  auto run = [](unsigned world_threads) {
    sim::Scheduler sched(world_threads, kNodes);
    sched.set_lookahead(kLookahead);
    std::vector<std::vector<std::pair<sim::Scheduler::Stamp, std::string>>> logs(
        sched.lane_count());
    const sim::TimerHandle handle = sched.schedule_periodic_for(
        /*owner=*/2, /*first_delay=*/500, /*interval=*/500, [&] {
          logs[sched.current_lane()].emplace_back(
              sched.current_stamp(), "fire@" + std::to_string(sched.now()));
        });
    sched.schedule_at(1'750, [&] { sched.cancel(handle); });
    sched.run_until(3'000);

    std::vector<std::pair<sim::Scheduler::Stamp, std::string>> all;
    for (const auto& lane : logs) all.insert(all.end(), lane.begin(), lane.end());
    std::stable_sort(all.begin(), all.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::string> out;
    out.reserve(all.size());
    for (auto& entry : all) out.push_back(std::move(entry.second));
    return out;
  };

  const std::vector<std::string> expected = {"fire@500", "fire@1000",
                                             "fire@1500"};
  EXPECT_EQ(run(1), expected);
  EXPECT_EQ(run(2), expected);
}

// ---------------------------------------------------------------------------
// Shared proof-verdict memo across shard lanes
// ---------------------------------------------------------------------------

struct MemoRun {
  std::string observed;  ///< per-node Stats + the merged delivery log
  std::uint64_t verifier_runs = 0;
};

MemoRun run_memo_world(unsigned world_threads, std::size_t publishers) {
  waku::HarnessConfig hc = waku::HarnessConfig::defaults();
  hc.node_count = 16;
  hc.world_threads = world_threads;
  waku::SimHarness world(hc);
  world.subscribe_all("t");
  world.register_all();
  // Two rounds a few epochs apart, so the memo is pruned between them
  // while both lanes keep validating.
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < publishers; ++i) {
      world.node(i).publish("t", util::to_bytes(std::string("r")
                                                    .append(std::to_string(round))
                                                    .append("-")
                                                    .append(std::to_string(i))));
    }
    world.run_seconds(60);
  }
  MemoRun run;
  for (std::size_t i = 0; i < world.size(); ++i) {
    const waku::WakuRlnRelay::Stats& s = world.node(i).stats();
    for (const std::uint64_t f :
         {s.published, s.accepted, s.invalid_proof, s.duplicates, s.double_signals,
          s.proof_verifications, s.proof_cache_hits}) {
      run.observed.append(std::to_string(f)).append(",");
    }
    run.observed.append("\n");
  }
  for (const waku::SimHarness::Delivery& d : world.deliveries()) {
    run.observed.append(std::to_string(d.node_index))
        .append("@")
        .append(std::to_string(d.at))
        .append(" ")
        .append(util::to_hex(d.payload.span()))
        .append("\n");
  }
  run.verifier_runs = world.validator_context()->memo.verifier_runs();
  return run;
}

TEST(WorldThreadsProofMemoTest, ShardedWorldSharesOneMemoWithSerialResults) {
  constexpr std::size_t kPublishers = 6;
  constexpr std::size_t kDistinct = 2 * kPublishers;
  const MemoRun serial = run_memo_world(1, kPublishers);
  const MemoRun sharded = run_memo_world(2, kPublishers);
  EXPECT_EQ(sharded.observed, serial.observed);
  EXPECT_EQ(serial.verifier_runs, kDistinct);
  // Lanes racing on one miss may both run the verifier; each lane misses
  // a message at most once.
  EXPECT_GE(sharded.verifier_runs, kDistinct);
  EXPECT_LE(sharded.verifier_runs, 2 * kDistinct);
}

}  // namespace
}  // namespace wakurln
