// Regenerates Figure 12: Transformer training speed across the five setups
// and 8-64 GPUs, for baseline / ByteScheduler / P3 / linear scaling.
#include "bench/harness.h"
#include "src/model/zoo.h"

int main(int argc, char** argv) {
  bsched::bench::InitObsBenchJobs(argc, argv);
  bsched::bench::PrintScalingFigure("Figure 12: training Transformer", bsched::Transformer(),
                                    /*include_p3=*/true);
  return 0;
}
