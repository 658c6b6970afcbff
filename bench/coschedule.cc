// §7 extension "co-scheduling in a shared cluster": two training jobs share
// the same machines' NICs and PS shards. Compares each job running alone,
// both running with independent schedulers (blind contention in the fabric's
// FIFO queues), and both running under one coordinated per-worker Core with
// global layer priorities.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/harness.h"
#include "src/common/table.h"
#include "src/model/zoo.h"

using namespace bsched;

namespace {

JobConfig PsJob(const ModelProfile& model) {
  JobConfig job = bench::MakeJob(model, Setup::MxnetPsRdma(), 4, Bandwidth::Gbps(100));
  return bench::WithMode(job, SchedMode::kByteScheduler);
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBenchJobs(argc, argv);
  std::printf("Co-scheduling (sec. 7): two jobs sharing one 4-machine PS cluster\n"
              "(MXNet PS RDMA, 100 Gbps, ByteScheduler in every configuration)\n\n");

  const JobConfig a = PsJob(Vgg16());
  const JobConfig b = PsJob(Transformer());
  const double a_alone = bench::RunSpeed(a);
  const double b_alone = bench::RunSpeed(b);
  const auto indep = RunCoscheduledPsJobs({a, b}, CoschedulePolicy::kIndependent);
  const auto coord = RunCoscheduledPsJobs({a, b}, CoschedulePolicy::kCoordinated);

  Table t({"configuration", "VGG16 (img/s)", "Transformer (tokens/s)"});
  t.AddRow({"each job alone", Table::Num(a_alone, 0), Table::Num(b_alone, 0)});
  t.AddRow({"shared, independent schedulers", Table::Num(indep[0].samples_per_sec, 0),
            Table::Num(indep[1].samples_per_sec, 0)});
  t.AddRow({"shared, coordinated scheduler", Table::Num(coord[0].samples_per_sec, 0),
            Table::Num(coord[1].samples_per_sec, 0)});
  t.RenderAscii(std::cout);

  const double indep_sum =
      indep[0].samples_per_sec / a_alone + indep[1].samples_per_sec / b_alone;
  const double coord_sum =
      coord[0].samples_per_sec / a_alone + coord[1].samples_per_sec / b_alone;
  std::printf("\nnormalized combined throughput: independent %.2f vs coordinated %.2f\n",
              indep_sum, coord_sum);
  std::printf("Expected shape: sharing slows both jobs. Naive coordination (one shared\n"
              "Core, global layer priority) shifts bandwidth toward the job whose largest\n"
              "tensors sit near the input (Transformer) and starves the other -- it is\n"
              "not Pareto-better, which is precisely why the paper leaves cross-job\n"
              "co-scheduling as an open problem (sec. 7).\n");
  return 0;
}
