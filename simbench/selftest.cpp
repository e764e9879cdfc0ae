// Self-test of the benchmark at toy size:
//   1. the chunked run_until driving yields deterministic counts identical
//      to one uninterrupted run of the same pre-scheduled plan, serially
//      and at 2 world threads, for both workload shapes;
//   2. the span self-time arithmetic on a hand-built span tree.

#include <cstdio>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace simbench {

namespace {

int failures = 0;

void expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++failures;
}

void check_driving(WorkloadSpec spec) {
  const Plan plan = make_plan(spec, 7);
  std::uint64_t reference = 0;
  for (const unsigned threads : {1u, 2u}) {
    for (const bool chunked : {true, false}) {
      DriveOptions opt;
      opt.world_threads = threads;
      opt.chunked = chunked;
      const Outcome o = drive(spec, plan, opt);
      const std::string label = spec.name + " threads=" + std::to_string(threads) +
                                (chunked ? " chunked" : " uninterrupted");
      for (const std::string& e : o.errors) std::printf("     %s: %s\n", label.c_str(), e.c_str());
      expect(o.ok, label + " passes its output checks");
      if (threads == 1 && chunked) {
        reference = o.counts.fingerprint();
        expect(o.counts.honest_delivered > 0, label + " delivers traffic");
      } else {
        expect(o.counts.fingerprint() == reference,
               label + " counts equal the serial chunked run's");
      }
    }
  }
}

void check_self_times() {
  // root [0,100]: a [10,40] (with child [15,20]), b [30,60] overlapping a,
  // c [70,80], d [90,120] reaching past the root's end.
  SpanRecorder rec(true);
  const int root = rec.add("root", 0, 100, -1, 0);
  const int a = rec.add("a", 10, 40, root, 0);
  rec.add("leaf", 15, 20, a, 0);
  rec.add("b", 30, 60, root, 0);
  rec.add("c", 70, 80, root, 0);
  rec.add("c", 90, 120, root, 0);
  rec.add("other_run", 0, 50, -1, 1);
  const auto self = self_times_ns(rec.spans());
  // Children of root cover [10,60] + [70,80] + [90,100] = 70.
  expect(self[0] == 30, "root self time = 100 - union of children = 30");
  expect(self[1] == 25, "nested span self time = 30 - 5 = 25");
  expect(self[2] == 5, "leaf self time = its duration");
  const auto layers = fold_layers(rec, 0);
  expect(layers.at("c").count == 2 && layers.at("c").total_s == 40e-9,
         "fold sums spans of one name");
  expect(layers.count("other_run") == 0, "fold keeps to one run id");
}

}  // namespace

int run_self_test() {
  check_self_times();

  WorkloadSpec relay = workload_by_name("relay_mesh");
  relay.name = "toy_relay_mesh";
  relay.nodes = 40;
  relay.publishers = 8;
  relay.publishes_per_epoch = 4;
  relay.epochs = 2;
  check_driving(relay);

  WorkloadSpec churn = workload_by_name("membership_churn");
  churn.name = "toy_membership_churn";
  churn.nodes = 24;
  churn.publishers = 4;
  churn.publishes_per_epoch = 2;
  churn.epochs = 3;
  churn.stormers = 6;
  check_driving(churn);

  std::printf("%s: %d failure(s)\n", failures == 0 ? "self-test passed" : "self-test FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace simbench
