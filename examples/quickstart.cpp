// Quickstart: spin up a simulated WAKU-RLN-RELAY network, register members
// on the membership contract, publish a rate-limited anonymous message and
// watch it arrive everywhere.
//
//   build/examples/quickstart [--nodes N] [--seed S]

#include <algorithm>
#include <cstdio>
#include <exception>

#include "util/cli.h"
#include "waku/harness.h"

using namespace wakurln;

int main(int argc, char** argv) {
  // 1. A simulated world: 12 peers (default), one chain, one contract.
  waku::HarnessConfig config = waku::HarnessConfig::defaults();
  try {
    const util::CliArgs args(argc, argv);
    args.reject_unknown({"nodes", "seed"});
    config.node_count =
        std::max<std::size_t>(2, static_cast<std::size_t>(args.get_u64("nodes", 12)));
    config.seed = args.get_u64("seed", config.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 1;
  }
  waku::SimHarness world(config);

  std::printf("== WAKU-RLN-RELAY quickstart ==\n");
  std::printf("peers: %zu, tree depth: %zu, epoch T = %llu s, Thr = %llu epochs\n",
              world.size(), config.rln.tree_depth,
              static_cast<unsigned long long>(config.rln.epoch_period_seconds),
              static_cast<unsigned long long>(world.node(0).epoch_scheme().threshold()));

  // 2. Everyone subscribes to the content topic.
  world.subscribe_all("waku/quickstart");

  // 3. Everyone registers (stake + pk to the contract) and waits one block.
  world.register_all();
  std::printf("registered members: %llu (contract), local group size at node 0: %llu\n",
              static_cast<unsigned long long>(world.contract().member_count()),
              static_cast<unsigned long long>(world.node(0).group().member_count()));

  // 4. Publish an anonymous, spam-protected message.
  const auto outcome = world.node(0).publish("waku/quickstart",
                                             util::to_bytes("hello, anonymous world"));
  std::printf("publish outcome: %s\n",
              outcome == waku::WakuRlnRelay::PublishOutcome::kPublished ? "published"
                                                                        : "failed");

  // 5. A second message in the same epoch is stopped client-side.
  const auto second = world.node(0).publish("waku/quickstart",
                                            util::to_bytes("too fast!"));
  std::printf("second publish in the same epoch: %s\n",
              second == waku::WakuRlnRelay::PublishOutcome::kRateLimited
                  ? "rate-limited (as designed)"
                  : "unexpected");

  // 6. Let gossip do its thing.
  world.run_seconds(10);
  std::printf("nodes that delivered the message: %zu / %zu\n",
              world.nodes_delivered(util::to_bytes("hello, anonymous world")),
              world.size());

  // 7. Next epoch it is allowed again.
  world.run_seconds(config.rln.epoch_period_seconds);
  const auto third = world.node(0).publish("waku/quickstart",
                                           util::to_bytes("next epoch, next message"));
  world.run_seconds(10);
  std::printf("next-epoch publish: %s, delivered to %zu nodes\n",
              third == waku::WakuRlnRelay::PublishOutcome::kPublished ? "published"
                                                                      : "failed",
              world.nodes_delivered(util::to_bytes("next epoch, next message")));
  return 0;
}
