#include "src/model/zoo.h"

#include <cmath>
#include <optional>
#include <vector>

#include "src/common/check.h"

namespace bsched {
namespace {

// VGG16 conv/fc stack; params in millions of floats, forward GFLOPs/image.
std::vector<LayerSpec> Vgg16Specs() {
  return {
      {"conv1_1", 0.002, 0.17}, {"conv1_2", 0.037, 3.70},  {"conv2_1", 0.074, 1.85},
      {"conv2_2", 0.148, 3.70}, {"conv3_1", 0.295, 1.85},  {"conv3_2", 0.590, 3.70},
      {"conv3_3", 0.590, 3.70}, {"conv4_1", 1.180, 1.85},  {"conv4_2", 2.360, 3.70},
      {"conv4_3", 2.360, 3.70}, {"conv5_1", 2.360, 0.92},  {"conv5_2", 2.360, 0.92},
      {"conv5_3", 2.360, 0.92}, {"fc6", 102.760, 0.21},    {"fc7", 16.780, 0.03},
      {"fc8", 4.100, 0.01},
  };
}

}  // namespace

ModelProfile Vgg16() {
  // ~190 images/s on one V100 at batch 32.
  return MakeModel("vgg16", "images", 32, 190.0, Vgg16Specs());
}

ModelProfile Vgg19() {
  std::vector<LayerSpec> specs = Vgg16Specs();
  // Insert the three extra convolutions of configuration E.
  specs.insert(specs.begin() + 7, {"conv3_4", 0.590, 3.70});
  specs.insert(specs.begin() + 11, {"conv4_4", 2.360, 3.70});
  specs.insert(specs.begin() + 15, {"conv5_4", 2.360, 0.92});
  ModelProfile m = MakeModel("vgg19", "images", 32, 155.0, specs);
  return m;
}

ModelProfile AlexNet() {
  const std::vector<LayerSpec> specs = {
      {"conv1", 0.035, 0.21}, {"conv2", 0.307, 0.45}, {"conv3", 0.885, 0.30},
      {"conv4", 0.664, 0.22}, {"conv5", 0.443, 0.15}, {"fc6", 37.750, 0.075},
      {"fc7", 16.780, 0.034}, {"fc8", 4.100, 0.008},
  };
  return MakeModel("alexnet", "images", 32, 1500.0, specs);
}

ModelProfile ResNet50() {
  // Stages aggregated at bottleneck-block granularity (16 blocks + stem + fc).
  const std::vector<LayerSpec> specs = {
      {"conv1", 0.0095, 0.24},   {"s1_b1", 0.073, 0.23},  {"s1_b2", 0.069, 0.23},
      {"s1_b3", 0.069, 0.23},    {"s2_b1", 0.377, 0.26},  {"s2_b2", 0.279, 0.25},
      {"s2_b3", 0.279, 0.25},    {"s2_b4", 0.279, 0.25},  {"s3_b1", 1.507, 0.25},
      {"s3_b2", 1.112, 0.24},    {"s3_b3", 1.112, 0.24},  {"s3_b4", 1.112, 0.24},
      {"s3_b5", 1.112, 0.24},    {"s3_b6", 1.112, 0.24},  {"s4_b1", 6.030, 0.27},
      {"s4_b2", 4.460, 0.26},    {"s4_b3", 4.460, 0.26},  {"fc", 2.049, 0.004},
  };
  // ~340 images/s on one V100 at batch 32.
  return MakeModel("resnet50", "images", 32, 340.0, specs);
}

ModelProfile Transformer() {
  // Transformer "big" (d_model = 1024), the variant large enough to be
  // communication-bound on the paper's testbed.
  std::vector<LayerSpec> specs;
  // Shared source/target embedding: the dominant tensor, at the input.
  specs.push_back({"embed", 37.90, 0.9});
  for (int i = 1; i <= 6; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "enc%d", i);
    specs.push_back({name, 12.60, 1.0});
  }
  for (int i = 1; i <= 6; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "dec%d", i);
    specs.push_back({name, 16.80, 1.3});
  }
  // Output projection is weight-tied with the embedding (Transformer base),
  // so only its bias contributes a separate tensor.
  specs.push_back({"generator", 0.037, 0.9});
  // ~3800 tokens/s/GPU at per-GPU batch of 512 tokens.
  ModelProfile m = MakeModel("transformer", "tokens", 512, 3800.0, specs);
  // Embedding gradients are row-sparse in MXNet: ps-lite does not split them
  // across servers, so the 150 MB tensor lands whole on one shard.
  m.layers[0].splittable = false;
  return m;
}

ModelProfile BertLarge() {
  std::vector<LayerSpec> specs;
  // Token + position + segment embeddings (row-sparse gradients).
  specs.push_back({"embed", 31.3, 0.3});
  for (int i = 1; i <= 24; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "enc%d", i);
    // Per encoder layer: attention (4 x 1024^2) + FFN (2 x 1024 x 4096).
    specs.push_back({name, 12.60, 1.0});
  }
  specs.push_back({"pooler", 1.05, 0.05});
  // ~1050 tokens/s/GPU at a 256-token per-GPU batch (seq 128 x batch 2-ish).
  ModelProfile m = MakeModel("bert-large", "tokens", 256, 1050.0, specs);
  m.layers[0].splittable = false;  // row-sparse embedding gradients
  return m;
}

std::optional<ModelProfile> ModelByName(const std::string& name) {
  if (name == "vgg16") {
    return Vgg16();
  }
  if (name == "vgg19") {
    return Vgg19();
  }
  if (name == "alexnet") {
    return AlexNet();
  }
  if (name == "resnet50") {
    return ResNet50();
  }
  if (name == "transformer") {
    return Transformer();
  }
  if (name == "bert-large") {
    return BertLarge();
  }
  return std::nullopt;
}

ModelProfile ContrivedFig2Model() {
  ModelProfile m;
  m.name = "contrived-fig2";
  m.sample_unit = "samples";
  m.batch_per_gpu = 1;
  // Three layers with deliberately mismatched compute/communication so FIFO
  // transmission order (layer 2 first) delays next-iteration FP badly, while
  // priority order + partitioning hides most communication.
  m.layers = {
      {"l0", MiB(8), SimTime::Millis(2), SimTime::Millis(4)},
      {"l1", MiB(2), SimTime::Millis(3), SimTime::Millis(5)},
      {"l2", MiB(12), SimTime::Millis(3), SimTime::Millis(5)},
  };
  return m;
}

ModelProfile SyntheticModel(const SyntheticSpec& spec, Rng& rng) {
  BSCHED_CHECK(spec.num_layers > 0);
  BSCHED_CHECK(spec.min_layer_bytes > 0);
  BSCHED_CHECK(spec.max_layer_bytes >= spec.min_layer_bytes);
  ModelProfile m;
  m.name = "synthetic";
  m.batch_per_gpu = 1;
  const double log_lo = std::log(static_cast<double>(spec.min_layer_bytes));
  const double log_hi = std::log(static_cast<double>(spec.max_layer_bytes));
  std::vector<double> weights(spec.num_layers);
  double weight_sum = 0.0;
  for (double& w : weights) {
    w = rng.Uniform(0.2, 1.0);
    weight_sum += w;
  }
  for (int i = 0; i < spec.num_layers; ++i) {
    Layer layer;
    layer.name = "l" + std::to_string(i);
    layer.param_bytes = static_cast<Bytes>(std::llround(std::exp(rng.Uniform(log_lo, log_hi))));
    const double frac = weights[i] / weight_sum;
    layer.fp_time = SimTime(
        static_cast<int64_t>(std::llround(spec.total_compute.nanos() / 3.0 * frac)));
    layer.bp_time = SimTime(
        static_cast<int64_t>(std::llround(spec.total_compute.nanos() * 2.0 / 3.0 * frac)));
    m.layers.push_back(std::move(layer));
  }
  return m;
}

}  // namespace bsched
