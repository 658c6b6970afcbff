// Figure 15 (repo extension): training speed under a volatile network
// fabric. Sweeps the dynamic-network volatility amplitude (seeded
// random-walk link drift plus on/off cross traffic, src/net/net_dynamics.h)
// and compares vanilla FIFO against ByteScheduler on a 2-machine PS cluster.
// The paper's argument predicts the gap should *grow* with volatility: as
// links derate, the job turns communication-bound, and priority scheduling
// with partitioning recovers overlap that FIFO head-of-line blocking wastes.
//
// The amplitude sweep's cells are independent simulations evaluated by
// ParallelFor; rows are bit-identical at any --jobs value. Every cell
// sets JobConfig::delayed_notify: each worker's aggregation notification
// arrives as a control message, which is how the recorded rows were
// produced.
//
// Flags: --jobs N          sweep workers (default: hardware concurrency)
//        --model NAME      zoo model (default resnet50)
//        --gbps F          per-NIC bandwidth, >= 1e-6 (default 25)
//        --seed N          dynamics seed (default 3)
//        --csv PATH        also write the rows as CSV
//        --check-determinism  recompute the sweep at --jobs 1 and require
//                          byte-identical CSV rows
//        --require-growing-gain  fail unless ByteScheduler's gain over
//                          vanilla is larger at the highest amplitude than
//                          at amplitude 0 (the figure's acceptance check)
// An unknown flag, an unknown --model, a --gbps below 1e-6 or a negative
// --seed exits 2.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/exec/sweep_runner.h"
#include "src/model/zoo.h"
#include "src/net/net_dynamics.h"
#include "src/runtime/training_job.h"

namespace bsched {
namespace {

const std::vector<double> kAmplitudes = {0.0, 0.2, 0.4, 0.6, 0.8};

struct VolatilityRow {
  double amplitude = 0.0;
  double vanilla = 0.0;       // samples/sec
  double bytescheduler = 0.0;  // samples/sec
  double gain() const { return vanilla > 0 ? bytescheduler / vanilla : 0.0; }
};

NetDynamicsConfig Fabric(uint64_t seed, double amplitude) {
  NetDynamicsConfig dyn;
  dyn.seed = seed;
  dyn.volatility_amplitude = amplitude;
  // CASSINI-style on/off background flows ride along at every nonzero
  // amplitude; amplitude 0 is the calm fabric (identity schedules).
  dyn.cross_flows = amplitude > 0.0 ? 2 : 0;
  dyn.cross_load = 0.35 * amplitude;
  return dyn;
}

// Defaults picked so the calm fabric is (nearly) compute-bound — vanilla ~=
// bytescheduler at amplitude 0 — and volatility derates the links into the
// comm-bound regime where priority scheduling pays, so the gap widens with
// amplitude: the figure's thesis. ResNet50 is the zoo's least
// communication-bound model, which leaves the calm cluster with headroom.
struct SweepSpec {
  std::string model = "resnet50";
  double gbps = 25.0;
  uint64_t seed = 3;
};

JobConfig CellJob(const SweepSpec& spec, SchedMode mode, double amplitude) {
  JobConfig job = bench::WithMode(
      bench::MakeJob(ModelByName(spec.model).value(), Setup::MxnetPsTcp(), /*num_machines=*/2,
                     Bandwidth::Gbps(spec.gbps)),
      mode);
  job.warmup_iters = 1;
  job.measure_iters = 3;
  job.delayed_notify = true;
  job.dynamics = Fabric(spec.seed, amplitude);
  return job;
}

// The full figure: one row per amplitude, both modes, cells evaluated
// concurrently on `jobs` threads. Deterministic: rows depend only on the spec,
// never on `jobs`.
std::vector<VolatilityRow> ComputeSweep(const SweepSpec& spec, int jobs) {
  const std::vector<double> speeds = ParallelFor(
      kAmplitudes.size() * 2,
      [&](size_t index) {
        const double amplitude = kAmplitudes[index / 2];
        const SchedMode mode =
            (index % 2 == 0) ? SchedMode::kVanilla : SchedMode::kByteScheduler;
        return bench::RunSpeed(CellJob(spec, mode, amplitude));
      },
      jobs);
  std::vector<VolatilityRow> rows;
  for (size_t i = 0; i < kAmplitudes.size(); ++i) {
    VolatilityRow row;
    row.amplitude = kAmplitudes[i];
    row.vanilla = speeds[2 * i];
    row.bytescheduler = speeds[2 * i + 1];
    rows.push_back(row);
  }
  return rows;
}

// CSV with full double precision: the determinism check compares these
// strings byte for byte across --jobs values.
std::string ToCsv(const std::vector<VolatilityRow>& rows) {
  std::ostringstream out;
  out << "amplitude,vanilla_img_s,bytescheduler_img_s,gain\n";
  for (const VolatilityRow& row : rows) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.1f,%.17g,%.17g,%.17g\n", row.amplitude, row.vanilla,
                  row.bytescheduler, row.gain());
    out << buf;
  }
  return out.str();
}

}  // namespace
}  // namespace bsched

int main(int argc, char** argv) {
  using namespace bsched;

  const Flags flags(argc, argv);
  const int jobs = bench::InitBenchJobs(argc, argv,
                                        {"model", "gbps", "seed", "csv", "check-determinism",
                                         "require-growing-gain"});
  SweepSpec spec;
  spec.model = flags.GetString("model", spec.model);
  spec.gbps = flags.GetGbps("gbps", spec.gbps);
  spec.seed = flags.GetSeed("seed", spec.seed);
  const std::string csv_path = flags.GetString("csv", "");
  const bool check_determinism = flags.GetBool("check-determinism", false);
  const bool require_growing_gain = flags.GetBool("require-growing-gain", false);
  // A bad value exits 2 naming the flag, as bschedctl does, instead of
  // aborting inside the sweep.
  if (!ModelByName(spec.model).has_value()) {
    flags.RejectValue("model", "a zoo model name");
  }

  // "shards=1" is literal text: perfbench/reference/eval.txt pins this header.
  std::printf("Figure 15: volatility sweep (%s, mxnet ps tcp, 2 machines, %.0f Gbps, "
              "seed=%llu, shards=1, jobs=%d)\n",
              spec.model.c_str(), spec.gbps, static_cast<unsigned long long>(spec.seed), jobs);

  const std::vector<VolatilityRow> rows = ComputeSweep(spec, jobs);
  std::printf("  %-10s %14s %16s %8s\n", "amplitude", "vanilla img/s", "bytesched img/s",
              "gain");
  for (const VolatilityRow& row : rows) {
    std::printf("  %-10.1f %14.1f %16.1f %7.1f%%\n", row.amplitude, row.vanilla,
                row.bytescheduler, 100.0 * (row.gain() - 1.0));
  }

  int failures = 0;

  if (check_determinism) {
    // Bit-identical rows at any worker count.
    if (ToCsv(ComputeSweep(spec, 1)) != ToCsv(rows)) {
      std::fprintf(stderr, "FATAL: sweep rows depend on --jobs\n");
      ++failures;
    } else {
      std::printf("  determinism: rows byte-identical at jobs {1,%d}\n", jobs);
    }
  }

  if (require_growing_gain) {
    const double calm = rows.front().gain();
    const double stormy = rows.back().gain();
    if (!(stormy > calm)) {
      std::fprintf(stderr,
                   "FATAL: ByteScheduler gain does not grow with volatility "
                   "(%.4fx at %.1f vs %.4fx at %.1f)\n",
                   calm, rows.front().amplitude, stormy, rows.back().amplitude);
      ++failures;
    } else {
      std::printf("  gain grows with volatility: %.2fx calm -> %.2fx at amplitude %.1f\n",
                  calm, stormy, rows.back().amplitude);
    }
  }

  if (!csv_path.empty()) {
    std::ofstream out(csv_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      ++failures;
    } else {
      out << ToCsv(rows);
      std::printf("  wrote %s\n", csv_path.c_str());
    }
  }

  return failures == 0 ? 0 : 1;
}
