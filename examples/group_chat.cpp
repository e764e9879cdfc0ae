// Anonymous group chat: several participants exchange messages over many
// epochs. Demonstrates that (a) the payload carries no sender identity,
// (b) per-epoch nullifiers are unlinkable across epochs, and (c) the rate
// limit shapes traffic to one message per member per epoch.
//
//   build/examples/group_chat [--nodes N] [--seed S]

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <unordered_set>

#include "util/cli.h"
#include "waku/harness.h"

using namespace wakurln;

int main(int argc, char** argv) {
  waku::HarnessConfig config = waku::HarnessConfig::defaults();
  try {
    const util::CliArgs args(argc, argv);
    args.reject_unknown({"nodes", "seed"});
    // 4 speakers plus at least one silent bystander.
    config.node_count =
        std::max<std::size_t>(5, static_cast<std::size_t>(args.get_u64("nodes", 8)));
    config.seed = args.get_u64("seed", config.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "group_chat: %s\n", e.what());
    return 1;
  }
  config.rln.epoch_period_seconds = 5;
  waku::SimHarness world(config);
  world.subscribe_all("waku/chat-room");
  world.register_all();

  const char* scripts[4][3] = {
      {"anyone up for lunch?", "thai place?", "see you there"},
      {"yes!", "+1 for thai", "omw"},
      {"can't today", "enjoy!", "next time"},
      {"lunch sounds great", "thai works", "leaving now"},
  };

  std::printf("== anonymous group chat (4 active speakers, 8 peers) ==\n");
  for (int round = 0; round < 3; ++round) {
    for (std::size_t speaker = 0; speaker < 4; ++speaker) {
      const auto outcome =
          world.node(speaker).publish("waku/chat-room", util::to_bytes(scripts[speaker][round]));
      if (outcome != waku::WakuRlnRelay::PublishOutcome::kPublished) {
        std::printf("  publish failed for speaker %zu round %d\n", speaker, round);
      }
    }
    // Everyone already spoke this epoch; a second attempt is throttled.
    const auto extra = world.node(0).publish("waku/chat-room", util::to_bytes("one more thing..."));
    if (extra == waku::WakuRlnRelay::PublishOutcome::kRateLimited) {
      std::printf("round %d: extra message throttled client-side (1 msg/epoch)\n", round);
    }
    world.run_seconds(config.rln.epoch_period_seconds);  // next epoch
  }
  world.run_seconds(10);

  // Tally deliveries at a bystander node (the last node never speaks).
  const std::size_t bystander = world.size() - 1;
  std::unordered_set<std::string> seen;
  for (const auto& d : world.deliveries()) {
    if (d.node_index == bystander) {
      seen.insert(std::string(d.payload.begin(), d.payload.end()));
    }
  }
  std::printf("bystander (node %zu) received %zu distinct messages (expected 12)\n",
              bystander, seen.size());
  std::printf("note: no delivery carries a sender id — the envelope holds only\n"
              "      {epoch, share y, nullifier, root, proof} plus the payload.\n");

  const auto stats = world.aggregate_stats();
  std::printf("network stats: accepted=%llu duplicates=%llu double_signals=%llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.duplicates),
              static_cast<unsigned long long>(stats.double_signals));
  return 0;
}
