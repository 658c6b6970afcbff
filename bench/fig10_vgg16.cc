// Regenerates Figure 10: VGG16 training speed across the five setups and
// 8-64 GPUs, for baseline / ByteScheduler / P3 (MXNet PS TCP pane only) /
// linear scaling.
#include "bench/harness.h"
#include "src/model/zoo.h"

int main(int argc, char** argv) {
  bsched::bench::InitObsBenchJobs(argc, argv);
  bsched::bench::PrintScalingFigure("Figure 10: training VGG16", bsched::Vgg16(),
                                    /*include_p3=*/true);
  return 0;
}
