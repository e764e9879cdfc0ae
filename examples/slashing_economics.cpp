// Slashing economics walk-through (paper §II): follows the money and the
// cryptography of one double-signal — from the two Shamir shares, through
// off-chain key reconstruction, to the on-chain burn/reward split.
//
//   build/examples/slashing_economics [--nodes N] [--seed S]

#include <algorithm>
#include <cstdio>
#include <exception>

#include "hash/poseidon.h"
#include "shamir/shamir.h"
#include "util/cli.h"
#include "waku/harness.h"

using namespace wakurln;

int main(int argc, char** argv) {
  waku::HarnessConfig config = waku::HarnessConfig::defaults();
  try {
    const util::CliArgs args(argc, argv);
    args.reject_unknown({"nodes", "seed"});
    // The offender is node 2; keep at least one slasher and one bystander.
    config.node_count =
        std::max<std::size_t>(4, static_cast<std::size_t>(args.get_u64("nodes", 6)));
    config.seed = args.get_u64("seed", config.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slashing_economics: %s\n", e.what());
    return 1;
  }
  config.stake_wei = 2'000'000;
  config.burn_fraction = 0.5;
  waku::SimHarness world(config);
  world.subscribe_all("waku/econ");
  world.register_all();

  auto& offender = world.node(2);
  const field::Fr true_sk = offender.identity().sk;

  std::printf("== RLN slashing economics ==\n");
  std::printf("stake: %llu wei, burn fraction: %.0f%%\n\n",
              static_cast<unsigned long long>(config.stake_wei),
              config.burn_fraction * 100);

  // --- the cryptographic core, shown explicitly -----------------------
  const std::uint64_t epoch = offender.current_epoch();
  const field::Fr epoch_f = rln::EpochScheme::to_field(epoch);
  const field::Fr a1 = hash::poseidon_hash2(true_sk, epoch_f);
  const util::Bytes m1 = util::to_bytes("double");
  const util::Bytes m2 = util::to_bytes("signal");
  const field::Fr x1 = zksnark::RlnCircuit::message_to_x(m1);
  const field::Fr x2 = zksnark::RlnCircuit::message_to_x(m2);
  const auto s1 = shamir::make_share(true_sk, a1, x1);
  const auto s2 = shamir::make_share(true_sk, a1, x2);
  const auto reconstructed = shamir::reconstruct(s1, s2);
  std::printf("two shares of the same epoch line:\n");
  std::printf("  (x1, y1) = (%.16s…, %.16s…)\n", x1.to_hex().c_str(), s1.y.to_hex().c_str());
  std::printf("  (x2, y2) = (%.16s…, %.16s…)\n", x2.to_hex().c_str(), s2.y.to_hex().c_str());
  std::printf("reconstructed sk == true sk?  %s\n\n",
              (reconstructed && *reconstructed == true_sk) ? "yes" : "no");

  // --- the same thing happening live in the network --------------------
  offender.publish_unchecked("waku/econ", m1);
  offender.publish_unchecked("waku/econ", m2);
  world.run_seconds(30);

  std::printf("after the network caught it:\n");
  std::printf("  offender active on contract:  %s\n",
              world.contract().is_active(hash::poseidon_hash1(true_sk)) ? "yes" : "no");
  std::printf("  burnt:                        %llu wei\n",
              static_cast<unsigned long long>(world.chain().ledger().burnt_total()));
  std::uint64_t reward_paid = 0;
  std::size_t slasher = SIZE_MAX;
  for (std::size_t i = 0; i < world.size(); ++i) {
    const auto bal = world.chain().ledger().balance_of(world.account_of(i));
    const auto baseline = world.config().initial_balance_wei -
                          (i == 2 ? 0 : config.stake_wei);  // others still staked
    if (i != 2 && bal > baseline) {
      reward_paid = bal - baseline;
      slasher = i;
    }
  }
  std::printf("  slasher:                      node %zu (+%llu wei reward)\n", slasher,
              static_cast<unsigned long long>(reward_paid));
  // The offender staked at registration and the stake is now gone for good.
  std::printf("  offender net loss:            %llu wei (the full stake)\n",
              static_cast<unsigned long long>(
                  world.config().initial_balance_wei -
                  world.chain().ledger().balance_of(world.account_of(2))));
  std::printf("\nincentive summary: detecting spam pays %llu wei; spamming costs %llu.\n",
              static_cast<unsigned long long>(reward_paid),
              static_cast<unsigned long long>(config.stake_wei));
  return 0;
}
