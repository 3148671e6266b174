#include "midas/serve/overload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "midas/common/chaos.h"
#include "midas/common/failpoint.h"
#include "midas/common/memory.h"
#include "midas/datagen/molecule_gen.h"
#include "midas/serve/engine_host.h"
#include "midas/serve/update_queue.h"

namespace midas {
namespace serve {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

struct FailpointGuard {
  FailpointGuard() { fail::DisarmAll(); }
  ~FailpointGuard() { fail::DisarmAll(); }
};

MidasConfig TestConfig() {
  MidasConfig cfg;
  cfg.budget = {3, 7, 9};
  cfg.fct.sup_min = 0.45;
  cfg.fct.max_edges = 3;
  cfg.cluster.num_coarse = 3;
  cfg.epsilon = 0.0;
  cfg.sample_cap = 0;
  cfg.seed = 1234;
  return cfg;
}

std::unique_ptr<MidasEngine> MakeEngine(MoleculeGenerator& gen,
                                        MoleculeGenConfig& data) {
  auto engine =
      std::make_unique<MidasEngine>(gen.Generate(data), TestConfig());
  engine->Initialize();
  return engine;
}

struct LabeledBatch {
  BatchUpdate batch;
  LabelDictionary labels;
};

LabeledBatch MakeBatch(MoleculeGenerator& gen, MoleculeGenConfig& data,
                       const GraphDatabase& base, size_t adds, bool novel) {
  GraphDatabase copy = base;
  LabeledBatch out;
  out.batch = gen.GenerateAdditions(copy, data, adds, novel);
  out.labels = copy.labels();
  return out;
}

template <typename Pred>
bool PollUntil(Pred pred, int timeout_ms) {
  const auto deadline = steady_clock::now() + milliseconds(timeout_ms);
  while (steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(5));
  }
  return pred();
}

// --- AdmissionController ----------------------------------------------------

TEST(OverloadAdmissionTest, CodelShedsAfterSustainedCongestionAndResets) {
  AdmissionControlConfig cfg;
  cfg.target_sojourn_ms = 5.0;
  cfg.interval_ms = 20.0;
  cfg.min_interval_ms = 5.0;
  cfg.retry_after_floor_ms = 1.0;
  AdmissionController ctrl(cfg);

  // A single above-target sojourn opens the window but does not shed yet.
  ctrl.ObserveSojourn(50.0);
  EXPECT_FALSE(ctrl.shedding());
  EXPECT_TRUE(ctrl.Admit(1).admit);

  // A full interval of above-target sojourns: shedding engages.
  std::this_thread::sleep_for(milliseconds(25));
  ctrl.ObserveSojourn(50.0);
  EXPECT_TRUE(ctrl.shedding());

  // Consecutive sheds halve the interval down to the floor; the hint tracks
  // the interval the shed was decided under.
  AdmissionDecision d1 = ctrl.Admit(1);
  EXPECT_FALSE(d1.admit);
  EXPECT_STREQ(d1.reason, "codel");
  EXPECT_DOUBLE_EQ(d1.retry_after_ms, 20.0);
  EXPECT_DOUBLE_EQ(ctrl.Admit(1).retry_after_ms, 10.0);
  EXPECT_DOUBLE_EQ(ctrl.Admit(1).retry_after_ms, 5.0);
  EXPECT_DOUBLE_EQ(ctrl.Admit(1).retry_after_ms, 5.0);  // floor
  EXPECT_EQ(ctrl.shed_total(), 4u);

  // One sub-target observation resets the control law completely.
  ctrl.ObserveSojourn(1.0);
  EXPECT_FALSE(ctrl.shedding());
  EXPECT_TRUE(ctrl.Admit(1).admit);
  EXPECT_EQ(ctrl.shed_total(), 4u);
}

TEST(OverloadAdmissionTest, CostCeilingShedsExpensiveBatches) {
  AdmissionControlConfig cfg;
  cfg.max_estimated_cost_ms = 100.0;
  cfg.retry_after_floor_ms = 1.0;
  AdmissionController ctrl(cfg);

  // Unprimed EWMA: no cost estimate, everything admits.
  EXPECT_TRUE(ctrl.Admit(1000000).admit);

  // One committed round primes the per-edge estimate: 1000ms / 10 edges.
  ctrl.ObserveRound(10, 1000.0);
  EXPECT_DOUBLE_EQ(ctrl.per_edge_ewma_ms(), 100.0);

  AdmissionDecision d = ctrl.Admit(10);  // est 1000ms > 100ms ceiling
  EXPECT_FALSE(d.admit);
  EXPECT_STREQ(d.reason, "cost");
  EXPECT_DOUBLE_EQ(d.retry_after_ms, 900.0);  // scales with the overage
  EXPECT_TRUE(ctrl.Admit(1).admit);           // est 100ms, at the ceiling
  EXPECT_EQ(ctrl.shed_total(), 1u);
}

TEST(OverloadAdmissionTest, ColdStartRetryHintIsClamped) {
  // A cold EWMA primed by one slow warm-up round used to produce retry
  // hints measured in minutes or hours. The cap bounds the hint; the floor
  // still applies underneath it.
  AdmissionControlConfig cfg;
  cfg.max_estimated_cost_ms = 100.0;
  cfg.retry_after_floor_ms = 50.0;
  cfg.retry_after_cap_ms = 30000.0;
  AdmissionController ctrl(cfg);

  // One pathological first round: 2 minutes for a single edge.
  ctrl.ObserveRound(1, 120000.0);
  AdmissionDecision d = ctrl.Admit(1000);  // est 120s/edge * 1000 edges
  ASSERT_FALSE(d.admit);
  EXPECT_STREQ(d.reason, "cost");
  EXPECT_DOUBLE_EQ(d.retry_after_ms, 30000.0);

  // A barely-over-ceiling estimate hits the floor instead of a sub-floor
  // overage hint.
  AdmissionControlConfig small = cfg;
  small.retry_after_floor_ms = 50.0;
  AdmissionController ctrl2(small);
  ctrl2.ObserveRound(100, 10100.0);  // 101ms/edge
  AdmissionDecision d2 = ctrl2.Admit(1);
  ASSERT_FALSE(d2.admit);
  EXPECT_DOUBLE_EQ(d2.retry_after_ms, 50.0);

  // Degenerate configs sanitize instead of emitting garbage: a negative
  // floor clamps to zero, a cap below the floor clamps to the floor.
  AdmissionControlConfig weird;
  weird.max_estimated_cost_ms = 100.0;
  weird.retry_after_floor_ms = -10.0;
  weird.retry_after_cap_ms = 1000.0;
  AdmissionController ctrl3(weird);
  ctrl3.ObserveRound(1, 1e9);
  AdmissionDecision d3 = ctrl3.Admit(1000);
  ASSERT_FALSE(d3.admit);
  EXPECT_GE(d3.retry_after_ms, 0.0);
  EXPECT_LE(d3.retry_after_ms, 1000.0);

  AdmissionControlConfig inverted;
  inverted.max_estimated_cost_ms = 100.0;
  inverted.retry_after_floor_ms = 500.0;
  inverted.retry_after_cap_ms = 1.0;  // below the floor
  AdmissionController ctrl4(inverted);
  ctrl4.ObserveRound(1, 1e9);
  AdmissionDecision d4 = ctrl4.Admit(1000);
  ASSERT_FALSE(d4.admit);
  EXPECT_DOUBLE_EQ(d4.retry_after_ms, 500.0);
}

TEST(OverloadAdmissionTest, DisabledControllerPassesEverything) {
  AdmissionControlConfig cfg;
  cfg.enabled = false;
  cfg.target_sojourn_ms = 0.001;
  cfg.max_estimated_cost_ms = 0.001;
  AdmissionController ctrl(cfg);
  ctrl.ObserveSojourn(1e9);
  ctrl.ObserveSojourn(1e9);
  ctrl.ObserveRound(1, 1e9);
  EXPECT_TRUE(ctrl.Admit(1000000).admit);
  EXPECT_FALSE(ctrl.shedding());
  EXPECT_EQ(ctrl.shed_total(), 0u);
}

// --- CircuitBreaker ---------------------------------------------------------

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndProbesClosed) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.open_cooldown_ms = 50.0;
  CircuitBreaker breaker(cfg);

  EXPECT_TRUE(breaker.AllowAttempt());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.RecordFailure());
  // A success clears the streak: two more failures are not enough...
  EXPECT_FALSE(breaker.RecordSuccess(1.0));
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // ...but the third consecutive one trips it open.
  EXPECT_TRUE(breaker.RecordFailure());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_GT(breaker.RetryAfterMs(), 0.0);
  EXPECT_FALSE(breaker.AllowAttempt());  // cooldown not elapsed

  // Cooldown elapsed: the next attempt is the half-open probe; its success
  // closes the breaker and clears the hint.
  std::this_thread::sleep_for(milliseconds(60));
  EXPECT_TRUE(breaker.AllowAttempt());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.RecordSuccess(1.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_DOUBLE_EQ(breaker.RetryAfterMs(), 0.0);
}

TEST(CircuitBreakerTest, FailedProbeDoublesCooldownUntilSuccessResets) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_cooldown_ms = 30.0;
  cfg.cooldown_multiplier = 2.0;
  cfg.cooldown_max_ms = 5000.0;
  CircuitBreaker breaker(cfg);

  EXPECT_TRUE(breaker.RecordFailure());
  EXPECT_DOUBLE_EQ(breaker.RetryAfterMs(), 30.0);

  std::this_thread::sleep_for(milliseconds(40));
  EXPECT_TRUE(breaker.AllowAttempt());  // the probe
  EXPECT_TRUE(breaker.RecordFailure()); // failed probe: reopen, doubled
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_DOUBLE_EQ(breaker.RetryAfterMs(), 60.0);
  EXPECT_FALSE(breaker.AllowAttempt());

  std::this_thread::sleep_for(milliseconds(70));
  EXPECT_TRUE(breaker.AllowAttempt());
  EXPECT_TRUE(breaker.RecordSuccess(1.0));  // successful probe resets
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.RecordFailure());     // next trip: original cooldown
  EXPECT_DOUBLE_EQ(breaker.RetryAfterMs(), 30.0);
}

TEST(CircuitBreakerTest, LatencySloStreakTrips) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 0;  // failure trip off: only the SLO applies
  cfg.latency_slo_ms = 10.0;
  cfg.slo_violation_threshold = 2;
  CircuitBreaker breaker(cfg);

  EXPECT_FALSE(breaker.RecordSuccess(20.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // A fast round in between resets the streak.
  EXPECT_FALSE(breaker.RecordSuccess(1.0));
  EXPECT_FALSE(breaker.RecordSuccess(20.0));
  EXPECT_TRUE(breaker.RecordSuccess(20.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
}

// --- DegradationLadder ------------------------------------------------------

TEST(DegradationLadderTest, EscalatesOneRungPerEvalAndDescendsWithDwell) {
  DegradationLadderConfig cfg;  // defaults: dwell 2, margin 0.08
  DegradationLadder ladder(cfg);

  // Saturated pressure walks up exactly one rung per evaluation — a spike
  // cannot leap straight to lame-duck.
  const OverloadState up[] = {
      OverloadState::kTrimCache,    OverloadState::kTightenBudgets,
      OverloadState::kCoalesceOnly, OverloadState::kShedWork,
      OverloadState::kLameDuck,     OverloadState::kLameDuck};
  for (OverloadState expected : up) {
    EXPECT_EQ(ladder.Evaluate(0.99), expected);
  }
  EXPECT_TRUE(ladder.AtLeast(OverloadState::kCoalesceOnly));

  // Recovery needs the dwell: two sub-exit evaluations per rung down.
  const OverloadState down[] = {
      OverloadState::kLameDuck,     OverloadState::kShedWork,
      OverloadState::kShedWork,     OverloadState::kCoalesceOnly,
      OverloadState::kCoalesceOnly, OverloadState::kTightenBudgets,
      OverloadState::kTightenBudgets, OverloadState::kTrimCache,
      OverloadState::kTrimCache,    OverloadState::kHealthy};
  for (OverloadState expected : down) {
    EXPECT_EQ(ladder.Evaluate(0.0), expected);
  }
  EXPECT_EQ(ladder.state(), OverloadState::kHealthy);
  EXPECT_EQ(ladder.evals(), 16u);
}

TEST(DegradationLadderTest, HysteresisHoldsInsideTheExitMargin) {
  DegradationLadder ladder{DegradationLadderConfig()};
  EXPECT_EQ(ladder.Evaluate(0.72), OverloadState::kTrimCache);
  // Exit line for kTrimCache is 0.70 - 0.08 = 0.62: readings above it hold
  // the rung no matter how long they persist.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ladder.Evaluate(0.66), OverloadState::kTrimCache);
  }
  // Below the exit line the dwell still applies.
  EXPECT_EQ(ladder.Evaluate(0.5), OverloadState::kTrimCache);
  EXPECT_EQ(ladder.Evaluate(0.5), OverloadState::kHealthy);
}

TEST(DegradationLadderTest, TransitionLogIsBounded) {
  OverloadTransitionLog log(3);
  for (int i = 0; i < 5; ++i) {
    OverloadTransition t;
    t.source = "ladder";
    t.from = std::to_string(i);
    t.to = std::to_string(i + 1);
    log.Append(std::move(t));
  }
  EXPECT_EQ(log.total(), 5u);
  std::vector<OverloadTransition> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.front().from, "2");  // oldest two evicted
  EXPECT_EQ(entries.back().to, "5");
}

// --- MemoryBudget -----------------------------------------------------------

TEST(MemoryBudgetTest, TracksComponentsAndSyntheticPressure) {
  MemoryBudget budget(1000);
  budget.Register("a", [] { return size_t{300}; });
  budget.Register("b", [] { return size_t{200}; });
  budget.SetSyntheticBytes(100);

  MemoryBudget::Sample s = budget.SampleNow();
  EXPECT_EQ(s.total_bytes, 600u);
  EXPECT_EQ(s.synthetic_bytes, 100u);
  EXPECT_DOUBLE_EQ(s.pressure, 0.6);
  ASSERT_EQ(s.components.size(), 2u);
  EXPECT_EQ(budget.last_total_bytes(), 600u);
  EXPECT_DOUBLE_EQ(budget.last_pressure(), 0.6);

  budget.Unregister("a");
  budget.SetSyntheticBytes(0);
  s = budget.SampleNow();
  EXPECT_EQ(s.total_bytes, 200u);
  EXPECT_DOUBLE_EQ(s.pressure, 0.2);

  // No budget: pressure is defined as 0 (the watchdog stays quiet).
  budget.set_budget_bytes(0);
  s = budget.SampleNow();
  EXPECT_DOUBLE_EQ(s.pressure, 0.0);
}

// --- ChaosSchedule ----------------------------------------------------------

TEST(ChaosScheduleTest, SameSeedReplaysIdentically) {
  chaos::ChaosSchedule::Config cfg;
  cfg.seed = 4242;
  cfg.steps = 64;
  chaos::ChaosSchedule a(cfg), b(cfg);
  EXPECT_EQ(a.Describe(), b.Describe());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].Describe(), b.events()[i].Describe());
  }

  chaos::ChaosSchedule::Config other = cfg;
  other.seed = 4243;
  chaos::ChaosSchedule c(other);
  EXPECT_NE(a.Describe(), c.Describe());
}

TEST(ChaosScheduleTest, EveryScheduleEndsCalm) {
  chaos::ChaosSchedule::Config cfg;
  cfg.seed = 7;
  cfg.steps = 16;
  chaos::ChaosSchedule s(cfg);
  ASSERT_GE(s.events().size(), 2u);
  const auto& tail = s.events();
  EXPECT_EQ(tail[tail.size() - 2].kind, chaos::ChaosEvent::Kind::kClearPressure);
  EXPECT_EQ(tail[tail.size() - 1].kind, chaos::ChaosEvent::Kind::kQuiesce);
  for (const chaos::ChaosEvent& e : s.events()) {
    EXPECT_LE(e.step, cfg.steps);
    if (e.kind == chaos::ChaosEvent::Kind::kMemoryPressure) {
      EXPECT_LE(e.pressure_bytes, cfg.max_pressure_bytes);
    }
    if (e.kind == chaos::ChaosEvent::Kind::kLoadBurst) {
      EXPECT_GE(e.burst_batches, 1);
      EXPECT_LE(e.burst_batches, cfg.max_burst_batches);
    }
  }
}

// --- BoundedUpdateQueue overload hooks --------------------------------------

TEST(UpdateQueueOverloadTest, BlockedPushTimesOutWithDeadline) {
  BoundedUpdateQueue q(1, OverflowPolicy::kBlock);
  EXPECT_EQ(q.Push(BatchUpdate()), BoundedUpdateQueue::PushOutcome::kQueued);

  const auto start = steady_clock::now();
  const auto outcome =
      q.Push(BatchUpdate(), nullptr, nullptr, milliseconds(50));
  const double waited_ms =
      std::chrono::duration<double, std::milli>(steady_clock::now() - start)
          .count();
  EXPECT_EQ(outcome, BoundedUpdateQueue::PushOutcome::kRejectedTimeout);
  EXPECT_GE(waited_ms, 45.0);
  EXPECT_EQ(q.admitted(), 1u);
}

TEST(UpdateQueueOverloadTest, DrainOnlyWakesBlockedProducers) {
  BoundedUpdateQueue q(1, OverflowPolicy::kBlock);
  EXPECT_EQ(q.Push(BatchUpdate()), BoundedUpdateQueue::PushOutcome::kQueued);

  std::atomic<int> outcome{-1};
  std::thread producer([&] {
    outcome.store(static_cast<int>(q.Push(BatchUpdate())),
                  std::memory_order_release);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(outcome.load(std::memory_order_acquire), -1);  // still blocked
  q.SetDrainOnly();
  producer.join();
  EXPECT_EQ(outcome.load(std::memory_order_acquire),
            static_cast<int>(BoundedUpdateQueue::PushOutcome::kRejectedDraining));
  // New pushes bounce immediately; the queued item stays poppable.
  EXPECT_EQ(q.Push(BatchUpdate()),
            BoundedUpdateQueue::PushOutcome::kRejectedDraining);
  BoundedUpdateQueue::Item item;
  EXPECT_TRUE(q.Pop(&item, milliseconds(100)));
}

TEST(UpdateQueueOverloadTest, PolicyOverrideWakesBlockedProducerIntoCoalesce) {
  BoundedUpdateQueue q(1, OverflowPolicy::kBlock);
  EXPECT_EQ(q.Push(BatchUpdate()), BoundedUpdateQueue::PushOutcome::kQueued);

  std::atomic<int> outcome{-1};
  std::thread producer([&] {
    outcome.store(static_cast<int>(q.Push(BatchUpdate())),
                  std::memory_order_release);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(outcome.load(std::memory_order_acquire), -1);
  q.SetPolicyOverride(OverflowPolicy::kCoalesce);
  producer.join();
  EXPECT_EQ(outcome.load(std::memory_order_acquire),
            static_cast<int>(BoundedUpdateQueue::PushOutcome::kCoalesced));
  EXPECT_EQ(q.effective_policy(), OverflowPolicy::kCoalesce);
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.admitted(), 2u);

  q.ClearPolicyOverride();
  EXPECT_EQ(q.effective_policy(), OverflowPolicy::kBlock);

  BoundedUpdateQueue::Item item;
  ASSERT_TRUE(q.Pop(&item, milliseconds(100)));
  EXPECT_EQ(item.parts.size(), 2u);  // the blocked push became a part
}

TEST(UpdateQueueOverloadTest, ApproxBytesTracksContents) {
  BoundedUpdateQueue q(4, OverflowPolicy::kReject);
  EXPECT_EQ(q.ApproxBytes(), 0u);

  BatchUpdate batch;
  batch.deletions = {1, 2, 3};
  const size_t expected = ApproxBatchBytes(batch);
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(q.Push(std::move(batch)), BoundedUpdateQueue::PushOutcome::kQueued);
  EXPECT_EQ(q.ApproxBytes(), expected);

  BoundedUpdateQueue::Item item;
  ASSERT_TRUE(q.Pop(&item, milliseconds(100)));
  EXPECT_EQ(q.ApproxBytes(), 0u);
}

// --- EngineHost: overload surfaces ------------------------------------------

TEST(EngineHostOverloadTest, LameDuckShedsSubmittersAndRecovers) {
  TempDir dir("midas_overload_lameduck");
  MoleculeGenerator gen(313);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);
  GraphDatabase base = engine->db();

  const size_t kBudget = size_t{1} << 30;
  HostConfig cfg;
  cfg.queue_capacity = 8;
  cfg.overload.memory_budget_bytes = kBudget;
  // Keep CoDel out of the way: only the ladder should act here.
  cfg.overload.admission.target_sojourn_ms = 1e9;
  EngineHost host(std::move(engine), dir.path, cfg);
  std::string err;
  ASSERT_TRUE(host.Start(&err)) << err;

  // Saturate the watchdog with synthetic pressure: the ladder walks to
  // lame-duck one rung per writer tick.
  host.memory_budget().SetSyntheticBytes(kBudget + (kBudget >> 3));
  ASSERT_TRUE(PollUntil(
      [&] { return host.overload_state() == OverloadState::kLameDuck; },
      20000));

  LabeledBatch lb = MakeBatch(gen, data, base, 1, false);
  SubmitResult shed = host.Submit(std::move(lb.batch), lb.labels);
  EXPECT_EQ(shed.status, SubmitStatus::kShedOverload);
  EXPECT_EQ(shed.shed_reason, "ladder");
  EXPECT_GT(shed.retry_after_ms, 0.0);
  EXPECT_GE(host.stats().shed_overload, 1u);

  // Pressure gone: the ladder dwells back down and submissions flow again.
  host.memory_budget().SetSyntheticBytes(0);
  ASSERT_TRUE(PollUntil(
      [&] { return host.overload_state() == OverloadState::kHealthy; },
      30000));
  lb = MakeBatch(gen, data, base, 1, false);
  SubmitResult ok = host.Submit(std::move(lb.batch), lb.labels);
  EXPECT_TRUE(ok.accepted());
  EXPECT_TRUE(host.WaitIdle(milliseconds(60000)));
  EXPECT_FALSE(host.dead());

  // The ladder's walk is in the transition log, in order.
  bool saw_lame_duck = false;
  for (const OverloadTransition& t : host.overload_transitions().Snapshot()) {
    if (t.source == "ladder" && t.to == "lame_duck") saw_lame_duck = true;
  }
  EXPECT_TRUE(saw_lame_duck);
  host.Stop();
}

TEST(EngineHostOverloadTest, BlockedSubmitTimesOutWithRetryHint) {
  if (!fail::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  TempDir dir("midas_overload_submit_timeout");
  FailpointGuard guard;
  MoleculeGenerator gen(414);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);
  GraphDatabase base = engine->db();

  HostConfig cfg;
  cfg.queue_capacity = 1;
  cfg.overflow = OverflowPolicy::kBlock;
  cfg.submit_timeout_ms = 25.0;
  // Retries sleep 40 and then 80 ms, each past the submit deadline, so the
  // writer holds every batch long enough on its own; the in-process
  // recoveries between attempts are too quick to be relied on for that.
  cfg.backoff_initial_ms = 40.0;
  // The breaker would stop the writer (and shed upstream) long before a
  // blocked push times out; this test wants the queue to stay full.
  cfg.overload.breaker.enabled = false;
  EngineHost host(std::move(engine), dir.path, cfg);
  std::string err;
  ASSERT_TRUE(host.Start(&err)) << err;

  // Every round fails all attempts and backs off in between: the writer is
  // pinned long enough that a blocked producer hits its deadline.
  fail::Arm("serve.round.before_apply", 0, -1);
  bool timed_out = false;
  double hint = 0.0;
  for (int i = 0; i < 20 && !timed_out; ++i) {
    LabeledBatch lb = MakeBatch(gen, data, base, 1, false);
    SubmitResult r = host.Submit(std::move(lb.batch), lb.labels);
    if (r.status == SubmitStatus::kRejectedTimeout) {
      timed_out = true;
      hint = r.retry_after_ms;
    }
  }
  EXPECT_TRUE(timed_out);
  EXPECT_DOUBLE_EQ(hint, 25.0);
  EXPECT_GE(host.stats().submit_timeouts, 1u);

  fail::DisarmAll();
  host.Stop();
}

// --- Coalesce-only under racing producers -----------------------------------

// 4 producers race into a host whose ladder was forced to coalesce-only.
// Every accepted batch must stay causally attributable: its trace id shows
// up exactly once across the committed rounds' primary ids and links, and
// the admission counters must reconcile with the panel the rounds produced.
TEST(OverloadCoalesceRaceTest, CoalesceUnderPressureKeepsTraceLinks) {
  TempDir dir("midas_overload_coalesce_race");
  MoleculeGenerator gen(515);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);
  GraphDatabase base = engine->db();
  const size_t initial = base.size();

  const size_t kBudget = size_t{1} << 30;
  HostConfig cfg;
  cfg.queue_capacity = 1;  // force overflow: coalescing must do the absorbing
  cfg.overflow = OverflowPolicy::kBlock;
  cfg.overload.memory_budget_bytes = kBudget;
  cfg.overload.admission.target_sojourn_ms = 1e9;
  cfg.flight.capacity = 1024;  // every round's record must survive the test
  EngineHost host(std::move(engine), dir.path, cfg);
  std::string err;
  ASSERT_TRUE(host.Start(&err)) << err;

  // Drive the ladder to exactly kCoalesceOnly: 0.90 of budget sits between
  // the coalesce rung (0.88) and the shed rung (0.94).
  host.memory_budget().SetSyntheticBytes(
      static_cast<size_t>(0.90 * static_cast<double>(kBudget)));
  ASSERT_TRUE(PollUntil(
      [&] { return host.overload_state() == OverloadState::kCoalesceOnly; },
      20000));

  // Batches are pre-generated serially (the generator is not a shared-state
  // API); the race under test is Submit vs Submit vs the writer.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 6;
  std::vector<std::vector<LabeledBatch>> work(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      work[p].push_back(MakeBatch(gen, data, base, 1, false));
    }
  }

  std::vector<std::vector<std::string>> trace_ids(kProducers);
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (LabeledBatch& lb : work[p]) {
        SubmitResult r = host.Submit(std::move(lb.batch), lb.labels);
        // Coalesce-only means no producer is ever turned away or parked:
        // full queue -> merged into the newest pending item.
        ASSERT_TRUE(r.accepted());
        accepted.fetch_add(1, std::memory_order_relaxed);
        trace_ids[p].push_back(r.trace_id);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_EQ(accepted.load(), kProducers * kPerProducer);
  ASSERT_TRUE(host.WaitIdle(milliseconds(120000)));

  // Every batch applied: the panel's database grew by exactly one graph per
  // submission, however the rounds were merged.
  EXPECT_EQ(host.snapshot()->db_size,
            initial + static_cast<size_t>(kProducers * kPerProducer));

  HostStats s = host.stats();
  EXPECT_EQ(s.admitted, static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(s.rejected_overflow, 0u);
  EXPECT_EQ(s.quarantined, 0u);
  // Rounds + merged parts reconcile with admissions.
  EXPECT_EQ(s.rounds_ok + s.coalesced,
            static_cast<uint64_t>(kProducers * kPerProducer));

  // Causal links: each accepted trace id appears exactly once across the
  // committed records — as a round's primary id or in a round's links.
  std::vector<std::shared_ptr<const obs::FlightRecord>> records =
      host.flights().Snapshot();
  uint64_t coalesced_parts = 0;
  std::map<std::string, int> seen;
  for (const auto& rec : records) {
    if (rec->outcome != "ok") continue;
    coalesced_parts += rec->coalesced_parts;
    seen[rec->trace_id]++;
    for (const std::string& link : rec->links) seen[link]++;
  }
  EXPECT_EQ(coalesced_parts, s.coalesced);
  for (int p = 0; p < kProducers; ++p) {
    for (const std::string& id : trace_ids[p]) {
      EXPECT_EQ(seen[id], 1) << "trace " << id
                             << " lost or duplicated across merged rounds";
    }
  }

  // Recovery: pressure gone, ladder dwells home, policy override lifts.
  host.memory_budget().SetSyntheticBytes(0);
  ASSERT_TRUE(PollUntil(
      [&] { return host.overload_state() == OverloadState::kHealthy; },
      30000));
  EXPECT_FALSE(host.dead());
  host.Stop();
}

// --- Deterministic chaos drill ----------------------------------------------

// One full overload drill: a seeded chaos schedule (bursts + background
// pressure), then a scripted finale that walks the ladder to coalesce-only,
// trips the breaker open via failpoints, and recovers to healthy. Returns
// the host's transition log as "source:from->to" strings.
std::vector<std::string> RunOverloadDrill(uint64_t seed, int run,
                                          size_t* max_tracked_bytes) {
  TempDir dir("midas_overload_drill_run" + std::to_string(run));
  FailpointGuard guard;
  MoleculeGenerator gen(777);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);
  GraphDatabase base = engine->db();

  const size_t kBudget = size_t{1} << 30;
  HostConfig cfg;
  cfg.queue_capacity = 8;
  cfg.backoff_initial_ms = 1.0;
  cfg.overload.memory_budget_bytes = kBudget;
  // CoDel depends on wall-clock queue waits; park it so the drill's
  // transitions are a pure function of the scripted pressure + failpoints.
  cfg.overload.admission.target_sojourn_ms = 1e9;
  cfg.overload.breaker.failure_threshold = 2;
  cfg.overload.breaker.open_cooldown_ms = 800.0;
  EngineHost host(std::move(engine), dir.path, cfg);
  std::string err;
  EXPECT_TRUE(host.Start(&err)) << err;

  size_t max_bytes = 0;
  auto note_bytes = [&] {
    max_bytes = std::max(max_bytes, host.memory_budget().last_total_bytes());
  };
  auto submit_one = [&] {
    LabeledBatch lb = MakeBatch(gen, data, base, 1, false);
    return host.Submit(std::move(lb.batch), lb.labels);
  };

  // Phase 1: the seeded schedule. Pressure is capped below the first ladder
  // rung (0.60 < 0.70 of budget) so this phase shakes the host — bursts,
  // background pressure, per-step quiesce — without any transition the
  // finale's strict comparison would depend on.
  chaos::ChaosSchedule::Config ccfg;
  ccfg.seed = seed;
  ccfg.steps = 6;
  ccfg.burst_prob = 0.5;
  ccfg.pressure_prob = 0.5;
  ccfg.failpoint_prob = 0.0;
  ccfg.max_burst_batches = 3;
  ccfg.max_pressure_bytes = static_cast<size_t>(0.60 * static_cast<double>(kBudget));
  chaos::ChaosSchedule schedule(ccfg);
  if (run == 0) {
    std::printf("%s", schedule.Describe().c_str());
  }
  for (uint64_t step = 0; step <= schedule.steps(); ++step) {
    for (const chaos::ChaosEvent& e : schedule.EventsAt(step)) {
      switch (e.kind) {
        case chaos::ChaosEvent::Kind::kArmFailpoint:
          fail::ArmSpec(e.failpoint_spec);
          break;
        case chaos::ChaosEvent::Kind::kLoadBurst:
          for (int i = 0; i < e.burst_batches; ++i) {
            EXPECT_TRUE(submit_one().accepted());
          }
          break;
        case chaos::ChaosEvent::Kind::kMemoryPressure:
          host.memory_budget().SetSyntheticBytes(e.pressure_bytes);
          break;
        case chaos::ChaosEvent::Kind::kClearPressure:
          host.memory_budget().SetSyntheticBytes(0);
          break;
        case chaos::ChaosEvent::Kind::kQuiesce:
          EXPECT_TRUE(host.WaitIdle(milliseconds(120000)));
          break;
      }
    }
    EXPECT_TRUE(host.WaitIdle(milliseconds(120000)));
    note_bytes();
  }

  // Phase 2 (scripted finale, part of every seeded run): walk the ladder to
  // exactly coalesce-only...
  host.memory_budget().SetSyntheticBytes(
      static_cast<size_t>(0.91 * static_cast<double>(kBudget)));
  EXPECT_TRUE(PollUntil(
      [&] {
        note_bytes();
        return host.overload_state() == OverloadState::kCoalesceOnly;
      },
      30000));
  EXPECT_TRUE(submit_one().accepted());  // degraded, but still serving
  EXPECT_TRUE(host.WaitIdle(milliseconds(120000)));

  // ...trip the breaker: two consecutive failed attempts reach the
  // threshold mid-batch; the third attempt commits the batch while the
  // breaker stays open until its cooldown probe.
  if (fail::CompiledIn()) {
    fail::Arm("serve.round.before_apply", 0, 2);
    EXPECT_TRUE(submit_one().accepted());
    EXPECT_TRUE(host.WaitIdle(milliseconds(120000)));
    fail::DisarmAll();
    SubmitResult r = submit_one();
    if (r.status == SubmitStatus::kShedOverload) {
      // Submitted inside the cooldown window: typed shed + retry hint.
      EXPECT_EQ(r.shed_reason, "breaker");
      EXPECT_GT(r.retry_after_ms, 0.0);
    } else {
      EXPECT_TRUE(r.accepted());
    }
    // The cooldown elapses, the next batch is the half-open probe, and its
    // success closes the breaker.
    EXPECT_TRUE(PollUntil(
        [&] {
          return host.breaker().state() != CircuitBreaker::State::kOpen;
        },
        30000));
    EXPECT_TRUE(submit_one().accepted());
    EXPECT_TRUE(host.WaitIdle(milliseconds(120000)));
    EXPECT_TRUE(PollUntil(
        [&] {
          return host.breaker().state() == CircuitBreaker::State::kClosed;
        },
        30000));
  }

  // ...and recover: pressure cleared, ladder dwells back to healthy.
  host.memory_budget().SetSyntheticBytes(0);
  EXPECT_TRUE(PollUntil(
      [&] { return host.overload_state() == OverloadState::kHealthy; },
      30000));
  note_bytes();
  EXPECT_TRUE(submit_one().accepted());
  EXPECT_TRUE(host.WaitIdle(milliseconds(120000)));

  // End-of-drill health: the host must hand back a fully serving instance.
  EXPECT_FALSE(host.dead());
  EXPECT_EQ(host.overload_state(), OverloadState::kHealthy);
  EXPECT_EQ(host.breaker().state(), CircuitBreaker::State::kClosed);

  std::vector<std::string> transitions;
  for (const OverloadTransition& t : host.overload_transitions().Snapshot()) {
    transitions.push_back(t.source + ":" + t.from + "->" + t.to);
  }
  host.Stop();
  if (max_tracked_bytes != nullptr) *max_tracked_bytes = max_bytes;
  return transitions;
}

TEST(OverloadDrillTest, SeededDrillReplaysIdenticalTransitions) {
  const uint64_t kSeed = 42;
  std::printf("overload drill seed=%llu (set in-source to replay)\n",
              static_cast<unsigned long long>(kSeed));
  size_t max_bytes1 = 0, max_bytes2 = 0;
  std::vector<std::string> run1 = RunOverloadDrill(kSeed, 0, &max_bytes1);
  std::vector<std::string> run2 = RunOverloadDrill(kSeed, 1, &max_bytes2);

  // The drill's whole point: the same seed produces the same resilience
  // story, transition for transition.
  EXPECT_EQ(run1, run2);

  // The ladder visited >= 3 degraded states (in escalation order) and the
  // breaker opened and closed again.
  auto count = [&](const std::string& needle) {
    int n = 0;
    for (const std::string& t : run1) {
      if (t == needle) ++n;
    }
    return n;
  };
  EXPECT_GE(count("ladder:healthy->trim_cache"), 1);
  EXPECT_GE(count("ladder:trim_cache->tighten_budgets"), 1);
  EXPECT_GE(count("ladder:tighten_budgets->coalesce_only"), 1);
  EXPECT_GE(count("ladder:trim_cache->healthy"), 1);
  if (fail::CompiledIn()) {
    EXPECT_GE(count("breaker:closed->open"), 1);
    EXPECT_GE(count("breaker:open->half_open"), 1);
    EXPECT_GE(count("breaker:half_open->closed"), 1);
  }

  // The watchdog's contract: tracked bytes never exceeded the budget.
  const size_t kBudget = size_t{1} << 30;
  EXPECT_LE(max_bytes1, kBudget);
  EXPECT_LE(max_bytes2, kBudget);
}

}  // namespace
}  // namespace serve
}  // namespace midas
