// Auto-tuning of partition size δ and credit size c (§4.3, §5): runs short
// profiling jobs on the simulated cluster at candidate (δ, c) points and
// lets a search strategy (BO by default) pick the next candidate. As in the
// paper, the master Core tunes and broadcasts; PS jobs pay a checkpoint-
// restart cost whenever the partition size changes (re-sharding parameters),
// all-reduce jobs retune live.
#ifndef SRC_TUNING_AUTO_TUNER_H_
#define SRC_TUNING_AUTO_TUNER_H_

#include <vector>

#include "src/common/rng.h"
#include "src/runtime/training_job.h"
#include "src/tuning/search.h"

namespace bsched {

struct AutoTunerOptions {
  int max_trials = 10;
  // Log-scale search ranges for the two knobs.
  Bytes partition_lo = KiB(64);
  Bytes partition_hi = MiB(96);
  Bytes credit_lo = KiB(64);
  Bytes credit_hi = MiB(512);
  // Iterations of each profiling run.
  int profile_warmup = 1;
  int profile_iters = 3;
  // Relative measurement jitter applied to profiled speeds.
  double noise_frac = 0.01;
  uint64_t seed = 1;
  // Wall-clock charged per PS restart (checkpoint + reload), §5.
  double ps_restart_sec = 5.0;
};

class AutoTuner {
 public:
  struct Trial {
    Bytes partition_bytes = 0;
    Bytes credit_bytes = 0;
    double speed = 0.0;
  };

  struct Result {
    TunedParams best{};
    double best_speed = 0.0;
    // Total virtual tuning cost: profiling time plus PS restart overhead.
    double tuning_cost_sec = 0.0;
    std::vector<Trial> trials;
  };

  // `base` describes the job to tune; its mode is forced to ByteScheduler.
  AutoTuner(JobConfig base, AutoTunerOptions options);

  // Runs `options.max_trials` suggestions from `search` (2-D: δ, c).
  Result Tune(ParamSearch& search);

  // Runs BO with the paper's defaults.
  Result TuneWithBo();

  // Profiles one configuration (with measurement jitter); exposed for the
  // figure benches and for search-cost experiments.
  double EvaluateObjective(Bytes partition, Bytes credit);

  // The deterministic part of the objective: profiled speed without jitter.
  // Const and shared-state-free, so lattice points evaluate concurrently.
  double EvaluateConfigured(Bytes partition, Bytes credit) const;

  // §7 extension "dynamic partition size": per-layer partition sizes.
  struct PerLayerResult {
    std::vector<Bytes> per_layer;
    double speed = 0.0;
    int extra_trials = 0;
  };

  // Profiles a per-layer configuration.
  double EvaluatePerLayer(const std::vector<Bytes>& per_layer, Bytes credit);

  // Greedy coordinate refinement around a tuned uniform configuration: for
  // each layer large enough to partition, tries {δ/2, δ, 2δ} and keeps the
  // best (repeated `rounds` times). Demonstrates the paper's observation
  // that per-layer sizes can win a little more at significant search cost.
  PerLayerResult TunePerLayer(const TunedParams& start, int rounds = 1);

  // Coordinate mapping between the unit cube and byte sizes (log scale).
  Bytes PartitionFromUnit(double u) const;
  Bytes CreditFromUnit(double u) const;

 private:
  JobConfig base_;
  AutoTunerOptions options_;
  Rng rng_;
};

}  // namespace bsched

#endif  // SRC_TUNING_AUTO_TUNER_H_
