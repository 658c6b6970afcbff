// Regenerates the §6.2 "Different DNN models" datapoints: AlexNet and VGG19
// speedups with 32 GPUs on MXNet PS RDMA (paper: 96% and 60%).
#include <cstdio>
#include <iostream>

#include "bench/harness.h"
#include "src/common/table.h"
#include "src/model/zoo.h"

using namespace bsched;

int main(int argc, char** argv) {
  bench::InitBenchJobs(argc, argv);
  std::printf("Extra models (sec. 6.2): 32 GPUs, MXNet PS RDMA, 100 Gbps\n\n");
  Table table({"model", "baseline", "bytescheduler", "speedup", "paper"});
  struct Row {
    ModelProfile model;
    const char* paper;
  };
  for (const Row& row : {Row{AlexNet(), "~96%"}, Row{Vgg19(), "~60%"}}) {
    JobConfig job = bench::MakeJob(row.model, Setup::MxnetPsRdma(), 4, Bandwidth::Gbps(100));
    const double baseline = bench::RunSpeed(bench::WithMode(job, SchedMode::kVanilla));
    const double sched = bench::RunSpeed(bench::WithMode(job, SchedMode::kByteScheduler));
    table.AddRow({row.model.name, Table::Num(baseline, 0), Table::Num(sched, 0),
                  bench::GainPercent(sched, baseline), row.paper});
  }
  table.RenderAscii(std::cout);
  return 0;
}
