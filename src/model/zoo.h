// Model zoo: layer-wise profiles of the DNNs the paper evaluates (VGG16,
// ResNet50, Transformer in the main figures; AlexNet and VGG19 in §6.2 text),
// plus a parameterized synthetic generator for property tests.
//
// Parameter counts follow the published architectures; per-layer compute
// weights follow published per-layer FLOP breakdowns; absolute compute time is
// calibrated to typical single-V100 throughput so the communication/compute
// ratio — the quantity every result depends on — is realistic.
#ifndef SRC_MODEL_ZOO_H_
#define SRC_MODEL_ZOO_H_

#include <optional>
#include <string>

#include "src/common/rng.h"
#include "src/model/profile.h"

namespace bsched {

// ~138 M params (552 MB fp32); giant fc6 tensor (411 MB) near the output.
ModelProfile Vgg16();

// ~144 M params; VGG16 plus three extra conv layers.
ModelProfile Vgg19();

// ~61 M params, very fast compute: the most communication-bound CNN here.
ModelProfile AlexNet();

// ~25.5 M params, compute-heavy: the least communication-bound model.
ModelProfile ResNet50();

// ~214 M params (transformer-big); huge embedding tensor at the input.
// sample_unit is "tokens", default batch 512 tokens/GPU as in the paper.
ModelProfile Transformer();

// BERT-large-like encoder stack: ~334 M params (1.3 GB fp32), 24 uniform
// encoder layers behind a large row-sparse embedding. Not part of the
// paper's evaluation; included for users studying deeper uniform models.
ModelProfile BertLarge();

// Returns the zoo model with the given name ("vgg16", "vgg19", "alexnet",
// "resnet50", "transformer", "bert-large"), or nullopt for any other name.
std::optional<ModelProfile> ModelByName(const std::string& name);

// The 3-layer contrived DNN of the paper's Figure 2 (sizes/durations chosen
// so the optimal schedule beats FIFO by ~44 %).
ModelProfile ContrivedFig2Model();

// Random layered model for property/fuzz tests: layer sizes are log-uniform
// in [min_bytes, max_bytes], compute weights uniform.
struct SyntheticSpec {
  int num_layers = 10;
  Bytes min_layer_bytes = KiB(64);
  Bytes max_layer_bytes = MiB(64);
  SimTime total_compute = SimTime::Millis(100);
};
ModelProfile SyntheticModel(const SyntheticSpec& spec, Rng& rng);

}  // namespace bsched

#endif  // SRC_MODEL_ZOO_H_
