// Spam attack demo (the paper's motivating scenario, §I): a registered
// member turns hostile and floods the topic. With WAKU-RLN-RELAY the
// second message in one epoch already exposes the attacker's secret key;
// routers reconstruct it, slash the stake, and every peer removes the
// member globally — no IP blocking, no reputation warm-up, no PoW tax on
// honest phones.
//
//   build/examples/spam_attack [--nodes N] [--seed S]

#include <algorithm>
#include <cstdio>
#include <exception>

#include "util/cli.h"
#include "waku/harness.h"

using namespace wakurln;

int main(int argc, char** argv) {
  waku::HarnessConfig config = waku::HarnessConfig::defaults();
  try {
    const util::CliArgs args(argc, argv);
    args.reject_unknown({"nodes", "seed"});
    // The attacker is node 5; keep at least a handful of honest victims.
    config.node_count =
        std::max<std::size_t>(8, static_cast<std::size_t>(args.get_u64("nodes", 16)));
    config.seed = args.get_u64("seed", config.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spam_attack: %s\n", e.what());
    return 1;
  }
  waku::SimHarness world(config);
  world.subscribe_all("waku/town-square");
  world.register_all();

  std::printf("== spam attack vs WAKU-RLN-RELAY ==\n");
  std::printf("members registered: %llu, stake per member: %llu wei\n",
              static_cast<unsigned long long>(world.contract().member_count()),
              static_cast<unsigned long long>(world.contract().config().stake_wei));

  auto& attacker = world.node(5);
  std::printf("\nattacker (node 5) floods 10 messages inside one epoch...\n");
  int sent = 0;
  for (int i = 0; i < 10; ++i) {
    const auto outcome = attacker.publish_unchecked(
        "waku/town-square", util::to_bytes("BUY NOW #" + std::to_string(i)));
    if (outcome == waku::WakuRlnRelay::PublishOutcome::kPublished) ++sent;
  }
  std::printf("attacker managed to sign %d messages before losing membership\n", sent);

  world.run_seconds(30);  // propagation + slash tx mined

  // How much spam actually reached a victim?
  std::size_t spam_deliveries = 0;
  for (const auto& d : world.deliveries()) {
    if (d.payload.size() >= 3 && d.payload[0] == 'B') ++spam_deliveries;
  }
  const auto stats = world.aggregate_stats();
  const std::size_t honest_nodes = world.size() - 1;
  std::printf("\nresults after 30 s:\n");
  std::printf("  spam deliveries across %zu honest nodes: %zu (out of a possible %zu)\n",
              honest_nodes, spam_deliveries, 10 * honest_nodes);
  std::printf("  double-signals detected by routers:     %llu\n",
              static_cast<unsigned long long>(stats.double_signals));
  std::printf("  slash transactions submitted:           %llu\n",
              static_cast<unsigned long long>(stats.slashes_submitted));
  std::printf("  attacker still a member?                %s\n",
              world.contract().is_active(attacker.identity().pk) ? "yes" : "no");
  std::printf("  stake burnt:                            %llu wei\n",
              static_cast<unsigned long long>(world.chain().ledger().burnt_total()));

  // The room still works for honest members.
  world.clear_deliveries();
  world.run_seconds(world.config().rln.epoch_period_seconds);
  world.node(1).publish("waku/town-square", util::to_bytes("calm restored"));
  world.run_seconds(10);
  std::printf("  honest message after the attack reached %zu / %zu nodes\n",
              world.nodes_delivered(util::to_bytes("calm restored")), world.size());
  std::printf("\ntakeaway: at most one signed message per epoch is deliverable;\n"
              "any second signature leaks the key and costs the stake.\n");
  return 0;
}
