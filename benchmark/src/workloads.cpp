#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "eval/dataset.hpp"
#include "runtime/thread_pool.hpp"

namespace bench {

using nsync::core::NsyncIds;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "farm_realtime", "farm_saturate", "print_churn", "offline_analyze"};
  return names;
}

std::string workload_why(const std::string& name) {
  if (name == "farm_realtime") {
    return "open-loop print farm at 25-50% shard load: DWM/TDEB and the shard "
           "queue set detection latency, the wire does little";
  }
  if (name == "farm_saturate") {
    return "closed loop of tiny FEEDs from 128 printers: per-message wire, "
           "server and queue cost dominates, DSP is a few %";
  }
  if (name == "print_churn") {
    return "short prints admitted, streamed, polled and evicted under "
           "--checkpoint and --baseline-dir: the engine's write side";
  }
  if (name == "offline_analyze") {
    return "Table VIII grid through STFT, analyze() and detect() on one "
           "thread: the batch path with no wire, queue or engine";
  }
  throw std::invalid_argument("unknown workload " + name);
}

void RunResult::put(const std::string& name, double raw, std::size_t samples,
                    double scale) {
  metrics[name] = {raw * scale, find_metric(name)->unit, samples};
  if (scale != 1.0) notes["raw_metrics"][name] = raw;
}

double KindData::min_duration_s() const {
  double d = std::numeric_limits<double>::infinity();
  for (const auto* pool : {&benign, &attacked}) {
    for (const auto& print : *pool) {
      for (const Signal& s : print) d = std::min(d, s.duration());
    }
  }
  return d;
}

KindData build_kind(const KindRequest& req, std::uint64_t seed) {
  using nsync::eval::Dataset;
  using nsync::eval::EvalScale;
  EvalScale scale = EvalScale::quick();
  scale.object_height = 0.2 * static_cast<double>(req.layers);
  scale.train_count = req.train;
  scale.benign_test_count = req.benign;
  scale.malicious_per_attack = 1;
  scale.seed = seed * 1000003u + static_cast<std::uint64_t>(req.kind) * 101u +
               req.layers;
  const Dataset ds(req.kind, scale, req.channels);

  KindData k;
  k.kind = req.kind;
  k.channels = req.channels;
  const auto render = [&](const nsync::eval::ProcessSignals& p) {
    std::vector<Signal> out;
    for (const auto ch : req.channels) out.push_back(p.raw.at(ch));
    return out;
  };
  for (const auto ch : req.channels) {
    k.names.push_back(nsync::sensors::side_channel_name(ch));
  }
  k.references = render(ds.reference());
  k.train = nsync::runtime::parallel_transform(
      ds.train().size(), [&](std::size_t i) { return render(ds.train()[i]); });
  const auto test = nsync::runtime::parallel_transform(
      ds.test().size(), [&](std::size_t i) { return render(ds.test()[i]); });
  for (std::size_t i = 0; i < ds.test().size(); ++i) {
    (ds.test()[i].malicious ? k.attacked : k.benign).push_back(test[i]);
  }
  for (const Signal& ref : k.references) {
    nsync::core::NsyncConfig cfg;
    cfg.sync = nsync::core::SyncMethod::kDwm;
    cfg.dwm = nsync::eval::dwm_params_for(req.kind, ref.sample_rate());
    k.configs.push_back(cfg);
  }
  if (!req.fit) return k;

  // OCC thresholds per channel from the training prints, and each training
  // print's channel score under them: the calibration input of the
  // client-side WeightedPolicy.
  const std::size_t C = req.channels.size();
  std::vector<std::vector<double>> scores(k.train.size(),
                                          std::vector<double>(C, 0.0));
  k.thresholds.resize(C);
  nsync::runtime::parallel_for(0, C, [&](std::size_t c) {
    NsyncIds ids(k.references[c], k.configs[c]);
    std::vector<nsync::core::Analysis> analyses;
    for (const auto& run : k.train) analyses.push_back(ids.analyze(run[c]));
    ids.fit_from_analyses(analyses);
    k.thresholds[c] = ids.thresholds();
    for (std::size_t r = 0; r < analyses.size(); ++r) {
      scores[r][c] =
          nsync::core::channel_score(analyses[r].features, k.thresholds[c]);
    }
  });
  auto weighted = std::make_shared<nsync::core::WeightedPolicy>();
  weighted->fit(k.names, scores);
  k.weighted = std::move(weighted);
  return k;
}

nsync::engine::SessionSpec make_spec(
    const KindData& k, std::string name, std::string model,
    std::shared_ptr<const nsync::core::FusionPolicy> policy) {
  nsync::engine::SessionSpec spec;
  spec.name = std::move(name);
  spec.model = std::move(model);
  spec.policy = std::move(policy);
  for (std::size_t c = 0; c < k.names.size(); ++c) {
    nsync::engine::ChannelSpec ch;
    ch.name = k.names[c];
    ch.reference = k.references[c];
    ch.config = k.configs[c];
    ch.thresholds = k.thresholds[c];
    spec.channels.push_back(std::move(ch));
  }
  return spec;
}

std::vector<std::size_t> block_frames(const KindData& k, double seconds) {
  std::vector<std::size_t> out;
  for (const Signal& ref : k.references) {
    out.push_back(static_cast<std::size_t>(
        std::max(1.0, std::round(seconds * ref.sample_rate()))));
  }
  return out;
}

}  // namespace bench
