#include <gtest/gtest.h>

#include <memory>

#include "hash/poseidon.h"
#include "sim/topology.h"
#include "waku/harness.h"
#include "waku/relay.h"
#include "waku/rln_relay.h"

namespace wakurln::waku {
namespace {

using util::Bytes;
using util::Rng;

// Full-stack fixture: chain + contract + N waku-rln-relay peers on a
// simulated network, with block mining driven by the scheduler.
struct TestNet {
  sim::Scheduler sched;
  Rng rng{777};
  sim::Network net{sched, rng, link()};
  eth::Chain chain{chain_config()};
  std::unique_ptr<eth::RegistryListContract> contract;
  zksnark::KeyPair crs;
  std::vector<std::unique_ptr<WakuRelay>> relays;
  std::vector<std::unique_ptr<WakuRlnRelay>> nodes;
  std::unordered_map<sim::NodeId, std::vector<Bytes>> delivered;

  static sim::LinkParams link() {
    sim::LinkParams l;
    l.base_latency = 20 * sim::kUsPerMs;
    l.jitter = 10 * sim::kUsPerMs;
    return l;
  }
  static eth::Chain::Config chain_config() {
    eth::Chain::Config cfg;
    cfg.block_time_seconds = 12;
    return cfg;
  }
  static WakuRlnConfig rln_config() {
    WakuRlnConfig cfg;
    cfg.tree_depth = 10;
    cfg.epoch_period_seconds = 10;
    cfg.max_delay_seconds = 20;
    return cfg;
  }

  /// `share_validator` hands every peer one RlnValidatorContext (as a
  /// SimHarness world does); otherwise each builds a private one.
  explicit TestNet(std::size_t n, WakuRlnConfig cfg = rln_config(),
                   bool share_validator = false) {
    eth::MembershipConfig mcfg;
    mcfg.tree_depth = cfg.tree_depth;
    contract = std::make_unique<eth::RegistryListContract>(chain, mcfg);
    crs = zksnark::MockGroth16::setup(cfg.tree_depth, rng);
    const auto ctx =
        share_validator ? RlnValidatorContext::make(crs, cfg.messages_per_epoch) : nullptr;

    std::vector<sim::NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      const sim::NodeId id = net.add_node({});
      ids.push_back(id);
      relays.push_back(std::make_unique<WakuRelay>(id, net));
      const eth::Address account = 1000 + i;
      chain.ledger().mint(account, 100'000'000);
      nodes.push_back(std::make_unique<WakuRlnRelay>(
          *relays.back(), chain, *contract, crs, account, cfg, Rng(rng.next_u64()),
          /*group_sync=*/nullptr, ctx));
    }
    connect_ring_plus_random(net, ids, 3, rng);
    for (auto& r : relays) r->start();

    // Periodic block production on the simulated clock.
    schedule_mining();
  }

  void schedule_mining() {
    sched.schedule_after(chain.config().block_time_seconds * sim::kUsPerSecond, [this] {
      chain.mine_block(sched.now() / sim::kUsPerSecond);
      schedule_mining();
    });
  }

  void subscribe_all(const std::string& topic) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->subscribe(topic, [this, id = relays[i]->id()](
                                     const gossipsub::TopicId&,
                                     const util::SharedBytes& payload) {
        delivered[id].push_back(payload.to_vector());
      });
    }
  }

  void register_all() {
    for (auto& n : nodes) n->request_registration();
    run_seconds(15);  // one block
  }

  void run_seconds(std::uint64_t s) { sched.run_for(s * sim::kUsPerSecond); }

  std::size_t total_delivered() const {
    std::size_t n = 0;
    for (const auto& [id, msgs] : delivered) n += msgs.size();
    return n;
  }
};

TEST(WakuRelayTest, AnonymousPayloadDelivery) {
  sim::Scheduler sched;
  Rng rng(1);
  sim::Network net(sched, rng, TestNet::link());
  std::vector<sim::NodeId> ids;
  std::vector<std::unique_ptr<WakuRelay>> relays;
  for (int i = 0; i < 10; ++i) {
    const auto id = net.add_node({});
    ids.push_back(id);
    relays.push_back(std::make_unique<WakuRelay>(id, net));
  }
  sim::connect_ring_plus_random(net, ids, 3, rng);
  int received = 0;
  for (auto& r : relays) {
    r->start();
    r->subscribe("chat",
                 [&](const gossipsub::TopicId&, const util::SharedBytes&) { ++received; });
  }
  sched.run_for(5 * sim::kUsPerSecond);
  relays[0]->publish("chat", util::to_bytes("hi"));
  sched.run_for(5 * sim::kUsPerSecond);
  EXPECT_EQ(received, 10);
}

TEST(WakuRlnRelayTest, RegistrationConfirmsViaContractEvent) {
  TestNet tn(4);
  EXPECT_FALSE(tn.nodes[0]->is_registered());
  tn.nodes[0]->request_registration();
  EXPECT_FALSE(tn.nodes[0]->is_registered());  // pending until mined
  tn.run_seconds(15);
  EXPECT_TRUE(tn.nodes[0]->is_registered());
  // Every peer's local group observed the same registration event.
  for (auto& n : tn.nodes) {
    EXPECT_EQ(n->group().member_count(), 1u);
  }
}

TEST(WakuRlnRelayTest, PublishRequiresRegistration) {
  TestNet tn(4);
  tn.subscribe_all("t");
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("m")),
            WakuRlnRelay::PublishOutcome::kNotRegistered);
}

TEST(WakuRlnRelayTest, ValidMessageReachesEveryone) {
  TestNet tn(8);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("hello rln")),
            WakuRlnRelay::PublishOutcome::kPublished);
  tn.run_seconds(10);
  EXPECT_EQ(tn.total_delivered(), tn.nodes.size());
  for (const auto& [id, msgs] : tn.delivered) {
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0], util::to_bytes("hello rln"));
  }
}

TEST(WakuRlnRelayTest, HonestClientIsRateLimitedLocally) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("first")),
            WakuRlnRelay::PublishOutcome::kPublished);
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("second-same-epoch")),
            WakuRlnRelay::PublishOutcome::kRateLimited);
  // Next epoch the client may publish again.
  tn.run_seconds(tn.nodes[0]->epoch_scheme().period_seconds());
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("next-epoch")),
            WakuRlnRelay::PublishOutcome::kPublished);
}

TEST(WakuRlnRelayTest, DoubleSignalDetectedAndSlashed) {
  TestNet tn(8);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  WakuRlnRelay& spammer = *tn.nodes[0];
  const auto account_before = tn.chain.ledger().balance_of(spammer.account());
  EXPECT_EQ(spammer.publish_unchecked("t", util::to_bytes("spam-1")),
            WakuRlnRelay::PublishOutcome::kPublished);
  EXPECT_EQ(spammer.publish_unchecked("t", util::to_bytes("spam-2")),
            WakuRlnRelay::PublishOutcome::kPublished);
  (void)account_before;
  tn.run_seconds(30);  // propagate + mine the slash tx

  // Some router detected the double-signal and slashed the spammer.
  std::uint64_t detections = 0, slashes = 0;
  for (auto& n : tn.nodes) {
    detections += n->stats().double_signals;
    slashes += n->stats().slashes_submitted;
  }
  EXPECT_GE(detections, 1u);
  EXPECT_GE(slashes, 1u);
  EXPECT_FALSE(tn.contract->is_active(spammer.identity().pk));
  EXPECT_FALSE(spammer.is_registered());  // self-view updated by event
  // Stake economics: half burnt, half rewarded to some slasher.
  EXPECT_EQ(tn.chain.ledger().burnt_total(), tn.contract->config().stake_wei / 2);
}

TEST(WakuRlnRelayTest, SlashedMemberCannotPublish) {
  TestNet tn(6);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);
  WakuRlnRelay& spammer = *tn.nodes[0];
  spammer.publish_unchecked("t", util::to_bytes("a"));
  spammer.publish_unchecked("t", util::to_bytes("b"));
  tn.run_seconds(30);
  ASSERT_FALSE(spammer.is_registered());
  EXPECT_EQ(spammer.publish("t", util::to_bytes("after-slash")),
            WakuRlnRelay::PublishOutcome::kNotRegistered);
}

TEST(WakuRlnRelayTest, StaleEpochRejected) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  // Craft an envelope for an epoch far in the past (a newly registered
  // peer trying to back-fill history, §III).
  WakuRlnRelay& sender = *tn.nodes[0];
  const Bytes payload = util::to_bytes("stale");
  const std::uint64_t stale_epoch = 0;  // long past at t≈20s? current=2; use far future instead
  (void)stale_epoch;
  // Use a far-future epoch which is unambiguously outside Thr.
  const std::uint64_t future_epoch = sender.current_epoch() + 100;
  rln::RlnProver prover(tn.crs.pk, sender.identity());
  // Build the signal directly against the sender's group view.
  auto group_index = sender.group().index_of(sender.identity().pk);
  ASSERT_TRUE(group_index.has_value());
  Rng prng(5);
  const auto signal =
      prover.create_signal(payload, future_epoch, sender.group(), *group_index, prng);
  ASSERT_TRUE(signal.has_value());
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*signal, payload));
  tn.run_seconds(10);

  std::uint64_t epoch_rejections = 0;
  for (auto& n : tn.nodes) epoch_rejections += n->stats().invalid_epoch;
  EXPECT_GE(epoch_rejections, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, GarbageEnvelopeRejected) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.relays[0]->publish("t", util::to_bytes("not an rln envelope"));
  tn.run_seconds(10);
  std::uint64_t invalid = 0;
  for (auto& n : tn.nodes) invalid += n->stats().invalid_envelope;
  EXPECT_GE(invalid, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, ForgedProofRejected) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  WakuRlnRelay& sender = *tn.nodes[0];
  const Bytes payload = util::to_bytes("forged");
  rln::RlnProver prover(tn.crs.pk, sender.identity());
  const auto index = sender.group().index_of(sender.identity().pk);
  Rng prng(6);
  auto signal = prover.create_signal(payload, sender.current_epoch(), sender.group(),
                                     *index, prng);
  ASSERT_TRUE(signal.has_value());
  signal->proof.bytes[40] ^= 0xff;  // corrupt the proof
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*signal, payload));
  tn.run_seconds(10);

  std::uint64_t bad_proofs = 0;
  for (auto& n : tn.nodes) bad_proofs += n->stats().invalid_proof;
  EXPECT_GE(bad_proofs, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, NonMemberCannotProduceValidSignal) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  // An outsider with a fresh identity but no registration: the prover
  // refuses (no leaf), and hand-rolling a signal against a fake group
  // fails root acceptance.
  Rng orng(7);
  const rln::Identity outsider = rln::Identity::generate(orng);
  rln::RlnGroup fake_group(tn.rln_config().tree_depth);
  fake_group.add_member(outsider.pk);
  rln::RlnProver prover(tn.crs.pk, outsider);
  const Bytes payload = util::to_bytes("outsider");
  const auto signal =
      prover.create_signal(payload, tn.nodes[1]->current_epoch(), fake_group, 0, orng);
  ASSERT_TRUE(signal.has_value());  // proof against the *fake* root
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*signal, payload));
  tn.run_seconds(10);

  std::uint64_t unknown_roots = 0;
  for (auto& n : tn.nodes) unknown_roots += n->stats().unknown_root;
  EXPECT_GE(unknown_roots, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, ReplayWithNewProofIsDuplicateNotSlash) {
  // Re-publishing the same payload in the same epoch with a re-randomised
  // proof yields the same share (x, y): routers must treat it as a
  // duplicate, not slashable evidence.
  TestNet tn(6);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  WakuRlnRelay& sender = *tn.nodes[0];
  const Bytes payload = util::to_bytes("same-message");
  rln::RlnProver prover(tn.crs.pk, sender.identity());
  const auto index = sender.group().index_of(sender.identity().pk);
  Rng prng(8);
  const std::uint64_t epoch = sender.current_epoch();
  const auto s1 = prover.create_signal(payload, epoch, sender.group(), *index, prng);
  const auto s2 = prover.create_signal(payload, epoch, sender.group(), *index, prng);
  ASSERT_TRUE(s1 && s2);
  ASSERT_NE(s1->proof, s2->proof);  // distinct gossip message ids
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*s1, payload));
  tn.run_seconds(5);
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*s2, payload));
  tn.run_seconds(15);

  std::uint64_t duplicates = 0, double_signals = 0;
  for (auto& n : tn.nodes) {
    duplicates += n->stats().duplicates;
    double_signals += n->stats().double_signals;
  }
  EXPECT_GE(duplicates, 1u);
  EXPECT_EQ(double_signals, 0u);
  EXPECT_TRUE(tn.contract->is_active(sender.identity().pk));  // not slashed
}

TEST(WakuRlnRelayTest, EnvelopeRoundTrip) {
  Rng rng(9);
  rln::RlnSignal signal;
  signal.epoch = 99;
  signal.y = field::Fr::random(rng);
  signal.nullifier = field::Fr::random(rng);
  signal.root = field::Fr::random(rng);
  rng.fill(signal.proof.bytes);
  const Bytes payload = util::to_bytes("payload");
  const Bytes envelope = WakuRlnRelay::encode_envelope(signal, payload);
  const auto decoded = WakuRlnRelay::decode_envelope(envelope);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, signal);
  EXPECT_EQ(decoded->second, payload);
  // Trailing garbage is rejected.
  Bytes extended = envelope;
  extended.push_back(0);
  EXPECT_FALSE(WakuRlnRelay::decode_envelope(extended).has_value());
}

TEST(WakuRlnRelayTest, CrsDepthMismatchThrows) {
  TestNet tn(1);
  WakuRlnConfig bad = TestNet::rln_config();
  bad.tree_depth = 12;  // CRS built for depth 10
  Rng rng(10);
  EXPECT_THROW(WakuRlnRelay(*tn.relays[0], tn.chain, *tn.contract, tn.crs, 1, bad,
                            Rng(1)),
               std::invalid_argument);
}

TEST(WakuRlnRelayTest, ProofCacheSkipsRepeatVerificationOnRedelivery) {
  // Two peers with a fast-expiring gossip seen-cache: re-publishing the
  // exact same envelope re-enters the receiver's validator after seen
  // expiry, and the message-id proof cache answers instead of the
  // zkSNARK verifier. The outcome stays the duplicate-ignore of the
  // nullifier map — only the repeat verification is saved.
  Rng rng(414);
  sim::Scheduler sched;
  sim::Network net{sched, rng, TestNet::link()};
  eth::Chain chain{TestNet::chain_config()};
  eth::MembershipConfig mcfg;
  const WakuRlnConfig cfg = TestNet::rln_config();
  mcfg.tree_depth = cfg.tree_depth;
  eth::RegistryListContract contract(chain, mcfg);
  const zksnark::KeyPair crs = zksnark::MockGroth16::setup(cfg.tree_depth, rng);

  gossipsub::GossipSubParams gossip;
  gossip.seen_ttl = 1 * sim::kUsPerSecond;  // heartbeats expire seen ids fast

  const sim::NodeId ida = net.add_node({});
  const sim::NodeId idb = net.add_node({});
  WakuRelay relay_a(ida, net, gossip);
  WakuRelay relay_b(idb, net, gossip);
  chain.ledger().mint(1, 100'000'000);
  chain.ledger().mint(2, 100'000'000);
  WakuRlnRelay a(relay_a, chain, contract, crs, 1, cfg, Rng(rng.next_u64()));
  WakuRlnRelay b(relay_b, chain, contract, crs, 2, cfg, Rng(rng.next_u64()));
  net.connect(ida, idb);
  relay_a.start();
  relay_b.start();
  a.subscribe("t", [](const gossipsub::TopicId&, const util::SharedBytes&) {});
  b.subscribe("t", [](const gossipsub::TopicId&, const util::SharedBytes&) {});

  a.request_registration();
  sched.run_for(2 * sim::kUsPerSecond);
  chain.mine_block(sched.now() / sim::kUsPerSecond);
  sched.run_for(3 * sim::kUsPerSecond);
  ASSERT_TRUE(a.is_registered());

  // One signal, serialized once, published twice: identical message id.
  rln::RlnProver prover(crs.pk, a.identity(), cfg.messages_per_epoch);
  Rng prng(7);
  const Bytes payload = util::to_bytes("cache me");
  const auto index = a.group().index_of(a.identity().pk);
  ASSERT_TRUE(index.has_value());
  const auto signal =
      prover.create_signal(payload, a.current_epoch(), a.group(), *index, prng);
  ASSERT_TRUE(signal.has_value());
  const Bytes envelope = WakuRlnRelay::encode_envelope(*signal, payload);

  relay_a.publish("t", envelope);
  sched.run_for(3 * sim::kUsPerSecond);  // deliver + expire b's seen entry
  EXPECT_EQ(b.stats().proof_verifications, 1u);
  EXPECT_EQ(b.stats().accepted, 1u);

  // Re-send exactly the same frame, skipping A's own validator (which
  // would classify it as a duplicate and drop the publish locally).
  relay_a.publish("t", envelope, /*apply_validator=*/false);
  sched.run_for(3 * sim::kUsPerSecond);
  EXPECT_EQ(b.stats().proof_verifications, 1u);  // no repeat verify
  EXPECT_EQ(b.stats().proof_cache_hits, 1u);
  EXPECT_EQ(b.stats().duplicates, 1u);  // nullifier map still says duplicate
}

// ---------------------------------------------------------------------------
// GroupSync's block-buffered flush against per-event application.

// Per-event reference for GroupSync: a second chain subscriber, registered
// after the sync, that applies every membership event the moment it fires
// to a private rln::RlnGroup (add_member / remove_member, no buffering)
// and records every distinct root. The chain fires all event handlers
// before any block handler, so right after mine_block returns the sync
// has flushed its buffered registrations and both views describe the
// same event prefix.
struct PerEventOracle {
  rln::RlnGroup group;
  GroupSync::Stats stats;
  std::vector<field::Fr> roots;  ///< distinct roots, absolute index order

  PerEventOracle(eth::Chain& chain, std::size_t tree_depth)
      : group(tree_depth), roots{group.root()} {
    chain.subscribe_events(
        [this](const eth::ContractEvent& ev, const eth::Block&) { apply(ev); });
  }

  void apply(const eth::ContractEvent& ev) {
    if (const auto* reg = std::get_if<eth::MemberRegistered>(&ev)) {
      group.add_member(reg->pk);
      ++stats.registrations_applied;
      ++stats.root_updates;
    } else if (const auto* slashed = std::get_if<eth::MemberSlashed>(&ev)) {
      ++stats.slashes_applied;
      if (group.is_active(slashed->index)) {
        group.remove_member(slashed->index);
        ++stats.root_updates;
      }
    } else {
      return;
    }
    stats.sync_bytes += GroupSync::kEventWireBytes;
    if (group.root() != roots.back()) roots.push_back(group.root());
  }
};

void expect_matches_oracle(const GroupSync& sync, const PerEventOracle& oracle,
                           int block) {
  ASSERT_EQ(sync.group().root(), oracle.group.root()) << "block " << block;
  ASSERT_EQ(sync.group().member_count(), oracle.group.member_count())
      << "block " << block;
  ASSERT_EQ(sync.stats().registrations_applied, oracle.stats.registrations_applied);
  ASSERT_EQ(sync.stats().slashes_applied, oracle.stats.slashes_applied);
  ASSERT_EQ(sync.stats().root_updates, oracle.stats.root_updates);
  ASSERT_EQ(sync.stats().sync_bytes, oracle.stats.sync_bytes);
  // total_roots equality is the per-registration root-history claim: a
  // block of k registrations must add k distinct roots, not one.
  ASSERT_EQ(sync.total_roots(), oracle.roots.size()) << "block " << block;
  ASSERT_LE(oracle.roots.size(), GroupSync::kMaxRootHistory);
  // Every oracle root sits in the history at exactly its absolute index.
  for (std::size_t i = 0; i < oracle.roots.size(); ++i) {
    EXPECT_TRUE(sync.root_in_window(oracle.roots[i], i))
        << "root " << i << " block " << block;
    if (i + 1 < oracle.roots.size()) {
      EXPECT_FALSE(sync.root_in_window(oracle.roots[i], i + 1))
          << "root " << i << " block " << block;
    }
  }
}

// Drives one (chain, contract, GroupSync) stack through contract
// transactions and compares it with the per-event oracle after every
// block.
TEST(GroupSyncBatchTest, BatchedBlocksMatchScalarEventApplication) {
  eth::MembershipConfig mcfg;
  mcfg.tree_depth = 8;
  eth::Chain chain{TestNet::chain_config()};
  eth::RegistryListContract contract(chain, mcfg);
  GroupSync sync(chain, mcfg.tree_depth);
  const PerEventOracle oracle(chain, mcfg.tree_depth);

  Rng rng(4040);
  std::vector<field::Fr> sks;
  std::uint64_t now = 0;

  // Block shapes: a registration storm (6 joins in one block), a mixed
  // block whose slash lands *after* same-block registrations (the batch
  // must flush before the slash reads membership), an empty block, and a
  // slash-only block.
  for (int block = 0; block < 8; ++block) {
    for (const eth::Address account : {1, 2}) chain.ledger().mint(account, 100'000'000);
    const int joins = (block % 3 == 0) ? 6 : (block % 3 == 1 ? 3 : 0);
    for (int j = 0; j < joins; ++j) {
      const field::Fr sk = field::Fr::random(rng);
      sks.push_back(sk);
      const field::Fr pk = hash::poseidon_hash1(sk);
      chain.submit(1, mcfg.stake_wei, eth::MembershipContract::kRegisterCalldataBytes,
                   [&contract, pk](eth::TxContext& ctx) { contract.register_member(ctx, pk); },
                   now);
    }
    if (block >= 2 && block % 2 == 0 && !sks.empty()) {
      const field::Fr sk = sks[static_cast<std::size_t>(block)];  // post-join slash
      chain.submit(2, 0, eth::MembershipContract::kSlashCalldataBytes,
                   [&contract, sk](eth::TxContext& ctx) { contract.slash(ctx, sk); }, now);
    }
    now += chain.config().block_time_seconds;
    chain.mine_block(now);
    expect_matches_oracle(sync, oracle, block);
  }
  EXPECT_EQ(sync.stats().slashes_applied, 3u);
}

// Raw event transactions reach shapes the contract refuses to emit: a
// slash of a member that is already removed (a no-op on the tree that
// still counts as an applied slash and costs sync bytes).
TEST(GroupSyncBatchTest, PerEventOracleAgreesAfterEverySealedBlock) {
  constexpr std::size_t kDepth = 6;
  eth::Chain chain{TestNet::chain_config()};
  GroupSync sync(chain, kDepth);
  const PerEventOracle oracle(chain, kDepth);

  Rng rng(5150);
  std::vector<field::Fr> pks;
  std::uint64_t now = 0;
  const auto emit = [&](const eth::ContractEvent& ev) {
    chain.submit(1, 0, 0, [ev](eth::TxContext& ctx) { ctx.emit(ev); }, now);
  };
  const auto join = [&](int count) {
    for (int j = 0; j < count; ++j) {
      pks.push_back(field::Fr::random(rng));
      emit(eth::MemberRegistered{pks.back(), pks.size() - 1});
    }
  };
  const auto slash = [&](std::uint64_t index) {
    emit(eth::MemberSlashed{pks.at(index), index, 2, 0, 0});
  };
  int block = 0;
  const auto seal = [&] {
    now += chain.config().block_time_seconds;
    chain.mine_block(now);
    expect_matches_oracle(sync, oracle, block++);
  };

  join(8);  // a registration burst inside one block
  seal();
  join(3);  // same-block slash of a member that joined just before it
  slash(9);
  join(2);
  seal();
  slash(9);  // already removed: no tree mutation, no new root
  join(4);
  seal();
  seal();  // empty block
  slash(0);  // slash-only block, the second one a repeat
  slash(0);
  seal();

  EXPECT_EQ(sync.stats().registrations_applied, 17u);
  EXPECT_EQ(sync.stats().slashes_applied, 4u);
  EXPECT_EQ(sync.stats().root_updates, 19u);  // 17 joins + 2 effective slashes
  EXPECT_EQ(sync.group().member_count(), 15u);
}

TEST(WakuRlnRelayTest, SharedGroupSyncMatchesPrivateViews) {
  // A world where every peer shares one GroupSync must expose the same
  // roots and membership as per-peer private syncs (the views are
  // deterministically identical; sharing only removes redundant hashing).
  TestNet tn(3);  // private syncs
  for (auto& n : tn.nodes) n->request_registration();
  tn.run_seconds(15);
  const field::Fr private_root = tn.nodes[0]->group().root();
  EXPECT_EQ(tn.nodes[1]->group().root(), private_root);
  EXPECT_EQ(tn.nodes[2]->group().root(), private_root);
  EXPECT_EQ(tn.nodes[0]->group().member_count(), 3u);
  // Harness worlds share one sync; same membership state shape.
  HarnessConfig hc = HarnessConfig::defaults();
  hc.node_count = 3;
  hc.seed = tn.rng.next_u64() | 1;
  SimHarness world(hc);
  world.register_all();
  EXPECT_EQ(world.node(0).group().member_count(), 3u);
  EXPECT_EQ(world.node(0).group().root(), world.node(2).group().root());
  EXPECT_EQ(&world.node(0).group(), &world.node(1).group());  // one tree
}

// ---------------------------------------------------------------------------
// The world-shared proof-verdict memo (ProofMemo in RlnValidatorContext).

std::string stats_line(const WakuRlnRelay::Stats& s) {
  const std::uint64_t fields[] = {
      s.published,     s.accepted,       s.invalid_envelope,  s.invalid_epoch,
      s.invalid_slot,  s.unknown_root,   s.invalid_proof,     s.duplicates,
      s.double_signals, s.slashes_submitted, s.proof_verifications,
      s.proof_cache_hits};
  std::string out;
  for (const std::uint64_t f : fields) out.append(std::to_string(f)).append(",");
  return out;
}

// A signal for `payload` by `sender`, proved against its own group view.
rln::RlnSignal make_signal(TestNet& tn, WakuRlnRelay& sender, const Bytes& payload,
                           std::uint64_t seed) {
  rln::RlnProver prover(tn.crs.pk, sender.identity());
  const auto index = sender.group().index_of(sender.identity().pk);
  Rng prng(seed);
  const auto signal =
      prover.create_signal(payload, sender.current_epoch(), sender.group(), *index, prng);
  EXPECT_TRUE(signal.has_value());
  return *signal;
}

struct MemoWorld {
  std::string fingerprint;
  std::uint64_t logical_verifications = 0;  ///< summed Stats::proof_verifications
  std::uint64_t shared_memo_runs = 0;       ///< the shared memo's runs (0 if private)
};

// Drives one traffic script through a TestNet and returns everything it
// observably produced: each peer's Stats and delivery log, the offender's
// contract status and the burnt stake. The script spans more epochs than
// the retention window, so the memo's epoch buckets are pruned mid-run,
// and covers every validation outcome the memo feeds: accept, invalid
// proof, duplicate share and double signal.
MemoWorld run_memo_world(bool share_validator) {
  TestNet tn(8, TestNet::rln_config(), share_validator);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);
  for (std::size_t e = 0; e < 7; ++e) {
    const std::string payload = std::string("honest-").append(std::to_string(e));
    tn.nodes[1 + e % 4]->publish("t", util::to_bytes(payload));
    tn.run_seconds(10);
  }
  WakuRlnRelay& spammer = *tn.nodes[0];
  spammer.publish_unchecked("t", util::to_bytes("spam-1"));
  spammer.publish_unchecked("t", util::to_bytes("spam-2"));
  tn.run_seconds(30);

  const Bytes fake = util::to_bytes("forged");
  rln::RlnSignal forged = make_signal(tn, *tn.nodes[5], fake, 6);
  forged.proof.bytes[40] ^= 0xff;
  // Sent past the sender's own validator, so its peers judge them.
  tn.relays[5]->publish("t", WakuRlnRelay::encode_envelope(forged, fake),
                        /*apply_validator=*/false);
  const Bytes same = util::to_bytes("same-message");
  const rln::RlnSignal s1 = make_signal(tn, *tn.nodes[6], same, 8);
  const rln::RlnSignal s2 = make_signal(tn, *tn.nodes[6], same, 9);
  tn.relays[6]->publish("t", WakuRlnRelay::encode_envelope(s1, same));
  tn.run_seconds(5);
  tn.relays[6]->publish("t", WakuRlnRelay::encode_envelope(s2, same),
                        /*apply_validator=*/false);
  tn.run_seconds(15);

  MemoWorld world;
  std::string& out = world.fingerprint;
  for (std::size_t i = 0; i < tn.nodes.size(); ++i) {
    out.append("node").append(std::to_string(i)).append(" ").append(
        stats_line(tn.nodes[i]->stats()));
    for (const Bytes& m : tn.delivered[tn.relays[i]->id()]) {
      out.append(" ").append(util::to_hex(m));
    }
    out += "\n";
    world.logical_verifications += tn.nodes[i]->stats().proof_verifications;
  }
  out.append("spammer_active=")
      .append(std::to_string(tn.contract->is_active(spammer.identity().pk)))
      .append(" burnt=")
      .append(std::to_string(tn.chain.ledger().burnt_total()));

  const RlnValidatorContext* first = tn.nodes[0]->validator_context().get();
  for (std::size_t i = 1; i < tn.nodes.size(); ++i) {
    EXPECT_EQ(tn.nodes[i]->validator_context().get() == first, share_validator);
  }
  if (share_validator) world.shared_memo_runs = first->memo.verifier_runs();
  return world;
}

TEST(ProofMemoTest, SharedContextMatchesPrivateContextsExactly) {
  // With private contexts every relay verifies through its own memo, so
  // no verdict is ever reused across relays: this is the memo-less world.
  const MemoWorld shared = run_memo_world(true);
  const MemoWorld isolated = run_memo_world(false);
  EXPECT_EQ(shared.fingerprint, isolated.fingerprint);
  EXPECT_EQ(shared.logical_verifications, isolated.logical_verifications);
  // The shared world did share: far fewer verifier runs than the per-node
  // logical verifications its Stats report.
  EXPECT_GT(shared.shared_memo_runs, 0u);
  EXPECT_LT(shared.shared_memo_runs, shared.logical_verifications / 2);
}

TEST(ProofMemoTest, ForgedIdNeverBorrowsAnotherMessagesVerdict) {
  // Two messages under one id: a valid signal and the same signal with a
  // corrupted proof. Keyed on the id alone, whichever is seen first would
  // decide the other's verdict.
  TestNet tn(2);
  tn.register_all();
  WakuRlnRelay& sender = *tn.nodes[0];
  const Bytes payload = util::to_bytes("borrowed verdict");
  const rln::RlnSignal good = make_signal(tn, sender, payload, 11);
  rln::RlnSignal bad = good;
  bad.proof.bytes[7] ^= 0x01;
  const auto valid =
      gossipsub::GsMessage::create("t", WakuRlnRelay::encode_envelope(good, payload));
  auto forged =
      gossipsub::GsMessage::create("t", WakuRlnRelay::encode_envelope(bad, payload));
  forged.id = valid.id;

  const field::Fr x = zksnark::RlnCircuit::message_to_x(payload);
  for (const bool valid_first : {true, false}) {
    const auto ctx = RlnValidatorContext::make(tn.crs, 1);
    const auto check = [&](const gossipsub::GsMessage& msg) {
      const auto decoded = WakuRlnRelay::decode_envelope(msg.data);
      EXPECT_TRUE(decoded.has_value());
      const ProofMemo::Verdict v =
          ctx->memo.verify(msg, decoded->second, decoded->first, ctx->verifier);
      EXPECT_EQ(v.x, x);
      return v.ok;
    };
    if (valid_first) {
      EXPECT_TRUE(check(valid));
      EXPECT_FALSE(check(forged));
    } else {
      EXPECT_FALSE(check(forged));
      EXPECT_TRUE(check(valid));
    }
    EXPECT_EQ(ctx->memo.verifier_runs(), 2u);
    // Equal bytes in a different buffer take the byte-compare path and
    // hit whichever message owns the slot, without another verifier run.
    gossipsub::GsMessage copy = valid_first ? valid : forged;
    copy.data = util::SharedBytes::copy_of(copy.data.span());
    ASSERT_NE(copy.data.data(), (valid_first ? valid : forged).data.data());
    EXPECT_EQ(check(copy), valid_first);
    EXPECT_EQ(ctx->memo.verifier_runs(), 2u);
  }
}

TEST(ProofMemoTest, SerialWorldRunsTheVerifierOncePerDistinctMessage) {
  HarnessConfig hc = HarnessConfig::defaults();
  hc.node_count = 12;
  SimHarness world(hc);
  world.subscribe_all("t");
  world.register_all();
  world.run_seconds(2);
  constexpr std::size_t kHonest = 4;
  for (std::size_t i = 0; i < kHonest; ++i) {
    const std::string payload = std::string("msg-").append(std::to_string(i));
    ASSERT_EQ(world.node(i).publish("t", util::to_bytes(payload)),
              WakuRlnRelay::PublishOutcome::kPublished);
  }
  // One more distinct message whose proof fails, and one that never
  // reaches the verifier (no RLN envelope).
  WakuRlnRelay& forger = world.node(kHonest);
  rln::RlnProver prover(world.crs().pk, forger.identity());
  Rng prng(3);
  const Bytes payload = util::to_bytes("forged");
  auto signal = prover.create_signal(payload, forger.current_epoch(), forger.group(),
                                     *forger.group().index_of(forger.identity().pk), prng);
  ASSERT_TRUE(signal.has_value());
  signal->proof.bytes[0] ^= 0xff;
  world.relay(kHonest).publish("t", WakuRlnRelay::encode_envelope(*signal, payload));
  world.relay(kHonest + 1).publish("t", util::to_bytes("not an envelope"));
  world.run_seconds(10);

  const WakuRlnRelay::Stats total = world.aggregate_stats();
  EXPECT_EQ(total.accepted, kHonest * hc.node_count);
  EXPECT_GE(total.invalid_proof, 1u);
  EXPECT_GE(total.invalid_envelope, 1u);
  EXPECT_EQ(world.validator_context()->memo.verifier_runs(), kHonest + 1);
  // Stats still count every node's own logical verification.
  EXPECT_GT(total.proof_verifications, kHonest * (hc.node_count - 1));
}

}  // namespace
}  // namespace wakurln::waku
