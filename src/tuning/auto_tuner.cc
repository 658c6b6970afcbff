#include "src/tuning/auto_tuner.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace bsched {
namespace {

Bytes LogScale(double u, Bytes lo, Bytes hi) {
  const double lg = std::log(static_cast<double>(lo));
  const double hg = std::log(static_cast<double>(hi));
  return static_cast<Bytes>(std::llround(std::exp(lg + (hg - lg) * std::clamp(u, 0.0, 1.0))));
}

}  // namespace

AutoTuner::AutoTuner(JobConfig base, AutoTunerOptions options)
    : base_(std::move(base)), options_(options), rng_(options.seed) {
  BSCHED_CHECK(options_.partition_lo > 0);
  BSCHED_CHECK(options_.partition_hi >= options_.partition_lo);
  BSCHED_CHECK(options_.credit_hi >= options_.credit_lo);
  base_.mode = SchedMode::kByteScheduler;
  base_.warmup_iters = options_.profile_warmup;
  base_.measure_iters = options_.profile_iters;
}

Bytes AutoTuner::PartitionFromUnit(double u) const {
  return LogScale(u, options_.partition_lo, options_.partition_hi);
}

Bytes AutoTuner::CreditFromUnit(double u) const {
  return LogScale(u, options_.credit_lo, options_.credit_hi);
}

double AutoTuner::EvaluateConfigured(Bytes partition, Bytes credit) const {
  JobConfig job = base_;
  job.partition_bytes = partition;
  // A credit below one partition degenerates to stop-and-wait with a cap;
  // keep it meaningful by flooring at the partition size.
  job.credit_bytes = std::max(credit, partition);
  return RunTrainingJob(job).samples_per_sec;
}

double AutoTuner::EvaluateObjective(Bytes partition, Bytes credit) {
  // Profiled speeds carry run-to-run jitter; the tuner must cope with it.
  return EvaluateConfigured(partition, credit) *
         (1.0 + options_.noise_frac * rng_.NextGaussian());
}

AutoTuner::Result AutoTuner::Tune(ParamSearch& search) {
  BSCHED_CHECK(search.dims() == 2);
  Result result;
  Bytes last_partition = -1;
  for (int trial = 0; trial < options_.max_trials; ++trial) {
    const std::vector<double> x = search.Suggest();
    Trial t;
    t.partition_bytes = PartitionFromUnit(x[0]);
    t.credit_bytes = CreditFromUnit(x[1]);
    t.speed = EvaluateObjective(t.partition_bytes, t.credit_bytes);
    search.Observe(x, t.speed);

    // Tuning cost: the profiling time itself, plus a checkpoint/restart for
    // PS jobs whenever the partition size changes (§5 "Auto-tuning
    // support").
    const double profile_sec = options_.profile_iters *
                               (t.speed > 0 ? base_.total_gpus() * base_.model.batch_per_gpu /
                                                  t.speed
                                            : 0.0);
    result.tuning_cost_sec += profile_sec;
    if (base_.setup.arch == ArchType::kPs && t.partition_bytes != last_partition &&
        last_partition >= 0) {
      result.tuning_cost_sec += options_.ps_restart_sec;
    }
    last_partition = t.partition_bytes;

    if (t.speed > result.best_speed) {
      result.best_speed = t.speed;
      result.best = TunedParams{t.partition_bytes, std::max(t.credit_bytes, t.partition_bytes)};
    }
    result.trials.push_back(t);
  }
  return result;
}

AutoTuner::Result AutoTuner::TuneWithBo() {
  BayesianOptimizer bo(2, options_.seed);
  return Tune(bo);
}

double AutoTuner::EvaluatePerLayer(const std::vector<Bytes>& per_layer, Bytes credit) {
  JobConfig job = base_;
  job.per_layer_partition = per_layer;
  // The uniform size is still needed for any layer with a zero entry.
  job.partition_bytes = MiB(4);
  job.credit_bytes = credit;
  const JobResult result = RunTrainingJob(job);
  return result.samples_per_sec * (1.0 + options_.noise_frac * rng_.NextGaussian());
}

AutoTuner::PerLayerResult AutoTuner::TunePerLayer(const TunedParams& start, int rounds) {
  BSCHED_CHECK(start.partition_bytes > 0);
  PerLayerResult result;
  result.per_layer.assign(base_.model.layers.size(), start.partition_bytes);
  result.speed = EvaluatePerLayer(result.per_layer, start.credit_bytes);
  ++result.extra_trials;
  for (int round = 0; round < rounds; ++round) {
    for (size_t layer = 0; layer < result.per_layer.size(); ++layer) {
      // Only layers that actually get partitioned have a knob worth turning.
      if (base_.model.layers[layer].param_bytes <= start.partition_bytes) {
        continue;
      }
      const Bytes current = result.per_layer[layer];
      for (const Bytes candidate : {current / 2, current * 2}) {
        if (candidate < options_.partition_lo || candidate > options_.partition_hi) {
          continue;
        }
        std::vector<Bytes> trial = result.per_layer;
        trial[layer] = candidate;
        const double speed = EvaluatePerLayer(trial, start.credit_bytes);
        ++result.extra_trials;
        if (speed > result.speed) {
          result.speed = speed;
          result.per_layer = std::move(trial);
        }
      }
    }
  }
  return result;
}

}  // namespace bsched
