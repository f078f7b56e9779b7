// Tests for the multi-channel fusion extension.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/fusion.hpp"
#include "signal/rng.hpp"

namespace nsync::core {
namespace {

using nsync::signal::Rng;
using nsync::signal::Signal;

Signal band_noise(std::size_t frames, std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, 2, 100.0);
  double lp0 = 0.0, lp1 = 0.0;
  for (std::size_t n = 0; n < frames; ++n) {
    lp0 += 0.35 * (rng.normal() - lp0);
    lp1 += 0.35 * (rng.normal() - lp1);
    s(n, 0) = lp0;
    s(n, 1) = lp1;
  }
  return s;
}

Signal observe(const Signal& b, std::uint64_t seed, bool tampered) {
  Rng rng(seed);
  Signal a = b;
  for (std::size_t n = 0; n < a.frames(); ++n) {
    for (std::size_t c = 0; c < a.channels(); ++c) {
      a(n, c) += rng.normal(0.0, 0.02);
    }
  }
  if (tampered) {
    double lp = 0.0;
    for (std::size_t n = a.frames() / 3; n < 2 * a.frames() / 3; ++n) {
      lp += 0.35 * (rng.normal() - lp);
      for (std::size_t c = 0; c < a.channels(); ++c) a(n, c) = lp;
    }
  }
  return a;
}

NsyncConfig small_config() {
  NsyncConfig cfg;
  cfg.sync = SyncMethod::kDwm;
  cfg.dwm.n_win = 64;
  cfg.dwm.n_hop = 32;
  cfg.dwm.n_ext = 24;
  cfg.dwm.n_sigma = 12.0;
  cfg.r = 0.3;
  return cfg;
}

class FusionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ref_a_ = band_noise(1000, 1);
    ref_b_ = band_noise(1000, 2);
    for (std::uint64_t s = 0; s < 5; ++s) {
      FusionIds::SignalMap run;
      run["A"] = observe(ref_a_, 100 + s, false);
      run["B"] = observe(ref_b_, 200 + s, false);
      train_.push_back(std::move(run));
    }
  }

  FusionIds make(FusionRule rule) {
    FusionIds ids(std::make_shared<VotingPolicy>(rule));
    ids.add_channel("A", ref_a_, small_config());
    ids.add_channel("B", ref_b_, small_config());
    ids.fit(train_);
    return ids;
  }

  Signal ref_a_, ref_b_;
  std::vector<FusionIds::SignalMap> train_;
};

TEST_F(FusionFixture, RegistrationAndIntrospection) {
  FusionIds ids(std::make_shared<VotingPolicy>(FusionRule::kAny));
  ids.add_channel("A", ref_a_, small_config());
  EXPECT_EQ(ids.channels(), 1u);
  EXPECT_THROW(ids.add_channel("A", ref_a_, small_config()),
               std::invalid_argument);
  EXPECT_THROW((void)ids.member("Z"), std::invalid_argument);
  EXPECT_EQ(fusion_rule_name(FusionRule::kMajority), "majority");
}

TEST_F(FusionFixture, BenignPassesAllRules) {
  for (FusionRule rule :
       {FusionRule::kAny, FusionRule::kMajority, FusionRule::kAll}) {
    FusionIds ids = make(rule);
    FusionIds::SignalMap obs;
    obs["A"] = observe(ref_a_, 900, false);
    obs["B"] = observe(ref_b_, 901, false);
    EXPECT_FALSE(ids.detect(obs).intrusion) << fusion_rule_name(rule);
  }
}

TEST_F(FusionFixture, AttackOnBothChannelsCaughtByAllRules) {
  for (FusionRule rule :
       {FusionRule::kAny, FusionRule::kMajority, FusionRule::kAll}) {
    FusionIds ids = make(rule);
    FusionIds::SignalMap obs;
    obs["A"] = observe(ref_a_, 902, true);
    obs["B"] = observe(ref_b_, 903, true);
    const FusionDetection d = ids.detect(obs);
    EXPECT_TRUE(d.intrusion) << fusion_rule_name(rule);
    EXPECT_EQ(d.alarming_channels, 2u);
    EXPECT_EQ(d.per_channel.size(), 2u);
  }
}

TEST_F(FusionFixture, SingleChannelLeakSplitsTheRules) {
  // Attack visible on channel A only (channel B's observation is benign):
  // kAny fires, kAll does not; with two channels, majority (> half) does
  // not fire either.
  FusionIds::SignalMap obs;
  obs["A"] = observe(ref_a_, 904, true);
  obs["B"] = observe(ref_b_, 905, false);
  EXPECT_TRUE(make(FusionRule::kAny).detect(obs).intrusion);
  EXPECT_FALSE(make(FusionRule::kAll).detect(obs).intrusion);
  EXPECT_FALSE(make(FusionRule::kMajority).detect(obs).intrusion);
}

TEST_F(FusionFixture, MissingChannelThrows) {
  FusionIds ids = make(FusionRule::kAny);
  FusionIds::SignalMap incomplete;
  incomplete["A"] = observe(ref_a_, 906, false);
  EXPECT_THROW(ids.detect(incomplete), std::invalid_argument);

  FusionIds unfit(std::make_shared<VotingPolicy>(FusionRule::kAny));
  unfit.add_channel("A", ref_a_, small_config());
  std::vector<FusionIds::SignalMap> bad_train = {{}};
  EXPECT_THROW(unfit.fit(bad_train), std::invalid_argument);
}

TEST_F(FusionFixture, EmptyFusionRejected) {
  FusionIds ids(std::make_shared<VotingPolicy>(FusionRule::kAny));
  std::vector<FusionIds::SignalMap> empty_train = {};
  EXPECT_THROW(ids.fit(empty_train), std::logic_error);
  FusionIds::SignalMap obs;
  EXPECT_THROW(ids.detect(obs), std::logic_error);
}

// ---------------------------------------------------------------------------
// Rule parsing

TEST(FusionRuleParsing, RoundTripsEveryRule) {
  for (FusionRule rule :
       {FusionRule::kAny, FusionRule::kMajority, FusionRule::kAll}) {
    EXPECT_EQ(parse_fusion_rule(fusion_rule_name(rule)), rule);
  }
}

TEST(FusionRuleParsing, RejectsUnknownNamesListingTheValidSet) {
  try {
    (void)parse_fusion_rule("bogus");
    FAIL() << "unknown rule accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    for (const char* valid : {"any", "majority", "all"}) {
      EXPECT_NE(what.find(valid), std::string::npos)
          << "valid set missing '" << valid << "': " << what;
    }
  }
  EXPECT_THROW((void)parse_fusion_rule(""), std::invalid_argument);
  EXPECT_THROW((void)parse_fusion_rule("ANY"), std::invalid_argument);
  EXPECT_THROW((void)parse_fusion_rule("weighted"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Channel anomaly scores

TEST(ChannelScoreMath, ThresholdRatioEdgeCases) {
  EXPECT_EQ(threshold_ratio(2.0, 4.0), 0.5);
  EXPECT_EQ(threshold_ratio(4.0, 4.0), 1.0);
  // NaN features are masked faulted windows: no evidence.
  EXPECT_EQ(threshold_ratio(std::nan(""), 1.0), 0.0);
  // Degenerate thresholds: positive evidence over t <= 0 scores the
  // ceiling (discriminate's strict `feature > threshold` alarms there),
  // no evidence scores zero.
  EXPECT_EQ(threshold_ratio(1.0, 0.0), kMaxChannelScore);
  EXPECT_EQ(threshold_ratio(0.0, 0.0), 0.0);
  // Extreme ratios clamp instead of overflowing telemetry doubles.
  EXPECT_EQ(threshold_ratio(1e308, 1e-3), kMaxChannelScore);
}

TEST(ChannelScoreMath, AgreesWithTheDiscriminator) {
  DetectionFeatures f;
  f.c_disp = {0.2, 0.9};
  f.h_dist_f = {0.1};
  f.v_dist_f = {0.5, 1.2, 0.3};
  Thresholds t;
  t.c_c = 1.0;
  t.h_c = 1.0;
  t.v_c = 2.0;
  // Peak ratio 0.9 (c_disp[1]); strictly below 1 and no alarm.
  EXPECT_EQ(channel_score(f, t), 0.9);
  EXPECT_FALSE(discriminate(f, t).intrusion);
  // Push one feature past its critical value: score > 1 iff alarm.
  f.v_dist_f.push_back(3.0);  // ratio 1.5
  EXPECT_EQ(channel_score(f, t), 1.5);
  EXPECT_TRUE(discriminate(f, t).intrusion);
}

TEST_F(FusionFixture, DetectAnalysesNamesTheOffendingChannel) {
  FusionIds ids = make(FusionRule::kAny);
  std::map<std::string, Analysis> analyses;
  analyses.emplace("A", ids.member("A").analyze(observe(ref_a_, 910, false)));
  try {
    (void)ids.detect_analyses(analyses);
    FAIL() << "missing channel accepted";
  } catch (const FusionChannelError& e) {
    EXPECT_EQ(e.kind(), FusionChannelError::Kind::kMissing);
    EXPECT_EQ(e.channel(), "B");
  }
  analyses.emplace("B", ids.member("B").analyze(observe(ref_b_, 911, false)));
  analyses.emplace("Z", ids.member("A").analyze(observe(ref_a_, 912, false)));
  try {
    (void)ids.detect_analyses(analyses);
    FAIL() << "unknown extra channel accepted";
  } catch (const FusionChannelError& e) {
    EXPECT_EQ(e.kind(), FusionChannelError::Kind::kUnknown);
    EXPECT_EQ(e.channel(), "Z");
  }
  analyses.erase("Z");
  EXPECT_NO_THROW((void)ids.detect_analyses(analyses));
}

// ---------------------------------------------------------------------------
// VotingPolicy

TEST(VotingPolicyEvaluate, MatchesFusedIntrusionOverEveryCombination) {
  // Exhaustive 3-channel sweep: every alarm/health combination must fuse
  // exactly as the historical fused_intrusion() vote, with offline
  // channels excluded and equal weights over the online ones.
  const ChannelHealth kStates[] = {ChannelHealth::kHealthy,
                                   ChannelHealth::kDegraded,
                                   ChannelHealth::kOffline};
  for (FusionRule rule :
       {FusionRule::kAny, FusionRule::kMajority, FusionRule::kAll}) {
    const VotingPolicy policy(rule);
    for (int mask = 0; mask < 8; ++mask) {
      for (int h0 = 0; h0 < 3; ++h0) {
        for (int h1 = 0; h1 < 3; ++h1) {
          for (int h2 = 0; h2 < 3; ++h2) {
            const int hs[] = {h0, h1, h2};
            std::vector<ChannelScore> channels;
            std::size_t online = 0, alarming = 0;
            for (int k = 0; k < 3; ++k) {
              ChannelScore c;
              c.name = std::string(1, static_cast<char>('A' + k));
              c.alarm = (mask >> k) & 1;
              c.score = c.alarm ? 2.0 : 0.5;
              c.first_alarm_window = c.alarm ? 10 + k : -1;
              c.health = kStates[hs[k]];
              if (c.health != ChannelHealth::kOffline) {
                ++online;
                if (c.alarm) ++alarming;
              }
              channels.push_back(std::move(c));
            }
            const FusedVerdict v = policy.evaluate(channels);
            EXPECT_EQ(v.intrusion, fused_intrusion(rule, alarming, online));
            EXPECT_EQ(v.alarming_channels, alarming);
            EXPECT_EQ(v.online_channels, online);
            const double expect_score =
                online > 0 ? static_cast<double>(alarming) /
                                 static_cast<double>(online)
                           : 0.0;
            EXPECT_EQ(v.score, expect_score);
            for (const ChannelContribution& c : v.channels) {
              EXPECT_EQ(c.weight, c.health == ChannelHealth::kOffline
                                      ? 0.0
                                      : 1.0 / static_cast<double>(online));
            }
          }
        }
      }
    }
  }
}

TEST(VotingPolicyEvaluate, FirstAlarmWindowIsEarliestAlarmingOnline) {
  const VotingPolicy policy(FusionRule::kAny);
  std::vector<ChannelScore> channels(3);
  channels[0] = {"A", 2.0, true, 40, ChannelHealth::kHealthy};
  channels[1] = {"B", 3.0, true, 7, ChannelHealth::kOffline};  // excluded
  channels[2] = {"C", 2.5, true, 21, ChannelHealth::kDegraded};
  const FusedVerdict v = policy.evaluate(channels);
  EXPECT_TRUE(v.intrusion);
  EXPECT_EQ(v.first_alarm_window, 21);
}

// ---------------------------------------------------------------------------
// WeightedPolicy

TEST(WeightedPolicyFit, LearnsNormalizedReliabilityWeights) {
  WeightedPolicy policy;
  EXPECT_FALSE(policy.trained());
  const std::vector<std::string> names = {"steady", "noisy"};
  // "steady" sits low and tight on benign runs; "noisy" rides high with a
  // wide spread — reliability weighting must prefer "steady".
  const std::vector<std::vector<double>> runs = {
      {0.10, 0.85}, {0.12, 0.30}, {0.11, 0.90}, {0.09, 0.45}, {0.10, 0.70}};
  policy.fit(names, runs);
  ASSERT_TRUE(policy.trained());
  ASSERT_EQ(policy.weights().size(), 2u);
  EXPECT_EQ(policy.weights()[0].first, "steady");
  EXPECT_EQ(policy.weights()[1].first, "noisy");
  EXPECT_NEAR(policy.weights()[0].second + policy.weights()[1].second, 1.0,
              1e-12);
  EXPECT_GT(policy.weights()[0].second, policy.weights()[1].second);
}

TEST(WeightedPolicyFit, CorrelationShrinksRedundantChannels) {
  // Three channels with identical benign mean/spread; A and B co-move
  // perfectly, C is independent — the shrinkage must leave C with more
  // weight than either redundant twin.
  const std::vector<std::string> names = {"A", "B", "C"};
  const std::vector<std::vector<double>> runs = {{0.1, 0.1, 0.3},
                                                 {0.3, 0.3, 0.1},
                                                 {0.2, 0.2, 0.2},
                                                 {0.3, 0.3, 0.2},
                                                 {0.1, 0.1, 0.2}};
  WeightedPolicy policy;
  policy.fit(names, runs);
  const auto& w = policy.weights();
  EXPECT_NEAR(w[0].second, w[1].second, 1e-12);  // symmetric twins
  EXPECT_GT(w[2].second, w[0].second);
}

TEST(WeightedPolicyFit, ValidatesItsCalibrationMatrix) {
  WeightedPolicy policy;
  const std::vector<std::string> names = {"A", "B"};
  EXPECT_THROW(policy.fit({}, {{0.1}, {0.2}}), std::invalid_argument);
  // A spread needs two points.
  EXPECT_THROW(policy.fit(names, {{0.1, 0.2}}), std::invalid_argument);
  // Ragged rows: one score column per channel.
  EXPECT_THROW(policy.fit(names, {{0.1, 0.2}, {0.1}}), std::invalid_argument);
  EXPECT_FALSE(policy.trained());
}

TEST(WeightedPolicyConfigValidation, RejectsOutOfRangeKnobs) {
  WeightedPolicyConfig bad;
  bad.threshold = 0.0;
  EXPECT_THROW(WeightedPolicy{bad}, std::invalid_argument);
  bad = {};
  bad.degraded_weight = 1.5;
  EXPECT_THROW(WeightedPolicy{bad}, std::invalid_argument);
  bad = {};
  bad.score_cap = 0.5;
  EXPECT_THROW(WeightedPolicy{bad}, std::invalid_argument);
  bad = {};
  bad.spread_floor = 0.0;
  EXPECT_THROW(WeightedPolicy{bad}, std::invalid_argument);
  // The restore constructor re-checks both config and weights.
  EXPECT_THROW(WeightedPolicy(WeightedPolicyConfig{}, {{"A", -0.25}}),
               std::invalid_argument);
  const WeightedPolicy restored(WeightedPolicyConfig{}, {{"A", 0.7},
                                                         {"B", 0.3}});
  EXPECT_TRUE(restored.trained());
  ASSERT_EQ(restored.weights().size(), 2u);
  EXPECT_EQ(restored.weights()[0].second, 0.7);
}

TEST(WeightedPolicyEvaluate, BenignScoresStayBelowTheDefaultThreshold) {
  // With no alarming channel the soft vote has zero vote mass and the
  // margin term is bounded by gain/cap (benign scores cannot exceed 1),
  // so the default threshold cannot be crossed without real alarm mass.
  const WeightedPolicy policy;  // untrained -> uniform weights
  std::vector<ChannelScore> channels(3);
  channels[0] = {"A", 0.99, false, -1, ChannelHealth::kHealthy};
  channels[1] = {"B", 0.80, false, -1, ChannelHealth::kHealthy};
  channels[2] = {"C", 1.00, false, -1, ChannelHealth::kDegraded};
  const FusedVerdict v = policy.evaluate(channels);
  EXPECT_FALSE(v.intrusion);
  EXPECT_LE(v.score,
            kWeightedRefineGain / policy.config().score_cap + 1e-12);
  double weight_total = 0.0;
  for (const ChannelContribution& c : v.channels) weight_total += c.weight;
  EXPECT_NEAR(weight_total, 1.0, 1e-12);
}

TEST(WeightedPolicyEvaluate, UnanimousAlarmsCrossTheThreshold) {
  const WeightedPolicy policy;
  std::vector<ChannelScore> channels(2);
  channels[0] = {"A", 2.0, true, 64, ChannelHealth::kHealthy};
  channels[1] = {"B", 3.0, true, 32, ChannelHealth::kHealthy};
  const FusedVerdict v = policy.evaluate(channels);
  EXPECT_TRUE(v.intrusion);
  EXPECT_GT(v.score, 1.0);  // full vote mass alone exceeds the threshold
  EXPECT_EQ(v.first_alarm_window, 32);
  EXPECT_EQ(v.alarming_channels, 2u);
}

TEST(WeightedPolicyEvaluate, OfflineChannelsAreExcludedEntirely) {
  // A dead sensor reporting a saturated score must not contribute: with
  // the only alarming channel offline, the fusion stays benign.
  const WeightedPolicy policy;
  std::vector<ChannelScore> channels(3);
  channels[0] = {"A", 0.2, false, -1, ChannelHealth::kHealthy};
  channels[1] = {"B", 0.3, false, -1, ChannelHealth::kHealthy};
  channels[2] = {"C", 1e9, true, 5, ChannelHealth::kOffline};
  const FusedVerdict v = policy.evaluate(channels);
  EXPECT_FALSE(v.intrusion);
  EXPECT_EQ(v.online_channels, 2u);
  EXPECT_EQ(v.alarming_channels, 0u);
  EXPECT_EQ(v.channels[2].weight, 0.0);
}

TEST(WeightedPolicyEvaluate, DegradedChannelsCarryLessOfTheVote) {
  WeightedPolicy policy;
  policy.fit(std::vector<std::string>{"A", "B"},
             {{0.1, 0.1}, {0.3, 0.3}, {0.2, 0.2}});
  // Equal learned weights; degrade B and its renormalized share drops.
  std::vector<ChannelScore> channels(2);
  channels[0] = {"A", 0.5, false, -1, ChannelHealth::kHealthy};
  channels[1] = {"B", 0.5, false, -1, ChannelHealth::kDegraded};
  const FusedVerdict v = policy.evaluate(channels);
  EXPECT_GT(v.channels[0].weight, v.channels[1].weight);
  EXPECT_NEAR(v.channels[0].weight + v.channels[1].weight, 1.0, 1e-12);
  EXPECT_NEAR(v.channels[1].weight / v.channels[0].weight,
              policy.config().degraded_weight, 1e-12);
}

TEST(WeightedPolicyEvaluate, ScoreCapBoundsASaturatedChannel) {
  // One saturated benign-side channel (sensor fault) must not drag the
  // fused score past the threshold on its own: the margin term clamps
  // per-channel scores at score_cap and the vote mass stays zero.
  const WeightedPolicy policy;
  std::vector<ChannelScore> channels(2);
  channels[0] = {"A", kMaxChannelScore, false, -1, ChannelHealth::kHealthy};
  channels[1] = {"B", 0.1, false, -1, ChannelHealth::kHealthy};
  const FusedVerdict v = policy.evaluate(channels);
  EXPECT_LE(v.score, kWeightedRefineGain + 1e-12);
  const double margin_mean =
      0.5 * (policy.config().score_cap + 0.1) / policy.config().score_cap;
  EXPECT_NEAR(v.score, kWeightedRefineGain * margin_mean, 1e-12);
}

TEST_F(FusionFixture, WeightedFusionEndToEnd) {
  EXPECT_THROW(FusionIds(std::shared_ptr<FusionPolicy>{}),
               std::invalid_argument);
  auto policy = std::make_shared<WeightedPolicy>();
  FusionIds ids{std::shared_ptr<FusionPolicy>(policy)};
  ids.add_channel("A", ref_a_, small_config());
  ids.add_channel("B", ref_b_, small_config());
  ids.fit(train_);
  EXPECT_TRUE(policy->trained());  // fit() trains the policy in place
  ASSERT_EQ(policy->weights().size(), 2u);
  EXPECT_EQ(ids.policy().name(), "weighted");

  FusionIds::SignalMap benign;
  benign["A"] = observe(ref_a_, 920, false);
  benign["B"] = observe(ref_b_, 921, false);
  const FusionDetection clean = ids.detect(benign);
  EXPECT_FALSE(clean.intrusion);
  EXPECT_EQ(clean.contributions.size(), 2u);

  FusionIds::SignalMap tampered;
  tampered["A"] = observe(ref_a_, 922, true);
  tampered["B"] = observe(ref_b_, 923, true);
  const FusionDetection hit = ids.detect(tampered);
  EXPECT_TRUE(hit.intrusion);
  EXPECT_GT(hit.fused_score, clean.fused_score);
}

}  // namespace
}  // namespace nsync::core
