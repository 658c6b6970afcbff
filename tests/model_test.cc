#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.h"
#include "src/model/profile.h"
#include "src/model/zoo.h"

namespace bsched {
namespace {

TEST(ProfileTest, MakeModelCalibratesCompute) {
  // 2 layers, batch 10, 100 samples/s -> 0.1 s of compute per iteration.
  ModelProfile m = MakeModel("m", "samples", 10, 100.0,
                             {{"a", 1.0, 1.0}, {"b", 2.0, 3.0}});
  EXPECT_EQ(m.num_layers(), 2);
  EXPECT_NEAR(m.TotalComputeTime().ToSeconds(), 0.1, 1e-9);
  // FP:BP is 1:2.
  EXPECT_NEAR(m.TotalBpTime().ToSeconds(), 2.0 * m.TotalFpTime().ToSeconds(), 1e-9);
  // Compute split proportional to gflops.
  EXPECT_NEAR(m.layers[1].fp_time.ToSeconds(), 3.0 * m.layers[0].fp_time.ToSeconds(), 1e-6);
  // fp32 params.
  EXPECT_EQ(m.layers[0].param_bytes, 4'000'000);
}

TEST(ProfileTest, WithBatchScalesComputeOnly) {
  ModelProfile m = Vgg16();
  ModelProfile half = m.WithBatch(16);
  EXPECT_EQ(half.TotalParamBytes(), m.TotalParamBytes());
  EXPECT_NEAR(half.TotalComputeTime().ToSeconds(), m.TotalComputeTime().ToSeconds() / 2, 1e-6);
  EXPECT_EQ(half.batch_per_gpu, 16);
}

TEST(ZooTest, Vgg16Shape) {
  ModelProfile m = Vgg16();
  EXPECT_EQ(m.num_layers(), 16);
  // ~138M params -> ~552 MB of fp32.
  EXPECT_NEAR(static_cast<double>(m.TotalParamBytes()), 138.0e6 * 4, 3.0e6 * 4);
  // fc6 dominates: > 400 MB.
  EXPECT_GT(m.MaxTensorBytes(), 400'000'000);
  // The giant tensor sits near the output (last quarter of the layer list).
  int max_idx = 0;
  for (int i = 0; i < m.num_layers(); ++i) {
    if (m.layers[i].param_bytes == m.MaxTensorBytes()) {
      max_idx = i;
    }
  }
  EXPECT_GT(max_idx, m.num_layers() * 3 / 4 - 1);
  // Batch 32 at ~190 img/s -> ~168 ms compute.
  EXPECT_NEAR(m.TotalComputeTime().ToSeconds(), 32.0 / 190.0, 1e-3);
}

TEST(ZooTest, Vgg19HasThreeMoreLayersThanVgg16) {
  EXPECT_EQ(Vgg19().num_layers(), Vgg16().num_layers() + 3);
  EXPECT_GT(Vgg19().TotalParamBytes(), Vgg16().TotalParamBytes());
}

TEST(ZooTest, ResNet50IsComputeHeavy) {
  ModelProfile r = ResNet50();
  ModelProfile v = Vgg16();
  // ~25.5M params -> ~102 MB.
  EXPECT_NEAR(static_cast<double>(r.TotalParamBytes()), 25.5e6 * 4, 1.5e6 * 4);
  // Communication-to-computation ratio far below VGG16's.
  const double r_ratio = static_cast<double>(r.TotalParamBytes()) / r.TotalComputeTime().ToSeconds();
  const double v_ratio = static_cast<double>(v.TotalParamBytes()) / v.TotalComputeTime().ToSeconds();
  EXPECT_LT(r_ratio, v_ratio / 3);
}

TEST(ZooTest, AlexNetIsMostCommBound) {
  ModelProfile a = AlexNet();
  ModelProfile v = Vgg16();
  const double a_ratio = static_cast<double>(a.TotalParamBytes()) / a.TotalComputeTime().ToSeconds();
  const double v_ratio = static_cast<double>(v.TotalParamBytes()) / v.TotalComputeTime().ToSeconds();
  EXPECT_GT(a_ratio, v_ratio);
}

TEST(ZooTest, TransformerEmbeddingAtInput) {
  ModelProfile t = Transformer();
  EXPECT_EQ(t.sample_unit, "tokens");
  EXPECT_EQ(t.batch_per_gpu, 512);
  // The input-side embedding is (tied with generator) the largest tensor.
  EXPECT_EQ(t.layers[0].param_bytes, t.MaxTensorBytes());
  // Transformer big: ~214M params.
  EXPECT_NEAR(static_cast<double>(t.TotalParamBytes()), 214.0e6 * 4, 5.0e6 * 4);
}

TEST(ZooTest, ModelByNameRoundTrips) {
  for (const char* name :
       {"vgg16", "vgg19", "alexnet", "resnet50", "transformer", "bert-large"}) {
    ASSERT_TRUE(ModelByName(name).has_value()) << name;
    EXPECT_EQ(ModelByName(name)->name, name);
  }
  EXPECT_FALSE(ModelByName("vgg").has_value());
}

TEST(ZooTest, BertLargeShape) {
  ModelProfile b = BertLarge();
  EXPECT_EQ(b.num_layers(), 26);
  // ~334M params -> ~1.3 GB fp32.
  EXPECT_NEAR(static_cast<double>(b.TotalParamBytes()), 334.0e6 * 4, 8.0e6 * 4);
  EXPECT_FALSE(b.layers[0].splittable);  // row-sparse embedding
  // 24 uniform encoder layers.
  for (int i = 2; i <= 24; ++i) {
    EXPECT_EQ(b.layers[i].param_bytes, b.layers[1].param_bytes) << i;
  }
}

TEST(ZooTest, ContrivedModelHasThreeLayers) {
  ModelProfile m = ContrivedFig2Model();
  EXPECT_EQ(m.num_layers(), 3);
  EXPECT_GT(m.layers[2].param_bytes, m.layers[0].param_bytes);
}

TEST(ZooTest, SyntheticModelRespectsSpec) {
  Rng rng(5);
  SyntheticSpec spec;
  spec.num_layers = 25;
  spec.min_layer_bytes = KiB(16);
  spec.max_layer_bytes = MiB(4);
  spec.total_compute = SimTime::Millis(50);
  ModelProfile m = SyntheticModel(spec, rng);
  EXPECT_EQ(m.num_layers(), 25);
  for (const Layer& l : m.layers) {
    EXPECT_GE(l.param_bytes, spec.min_layer_bytes);
    EXPECT_LE(l.param_bytes, spec.max_layer_bytes);
  }
  EXPECT_NEAR(m.TotalComputeTime().ToMillis(), 50.0, 0.1);
}

TEST(ZooTest, SyntheticModelDeterministicPerSeed) {
  Rng r1(77);
  Rng r2(77);
  SyntheticSpec spec;
  ModelProfile a = SyntheticModel(spec, r1);
  ModelProfile b = SyntheticModel(spec, r2);
  for (int i = 0; i < a.num_layers(); ++i) {
    EXPECT_EQ(a.layers[i].param_bytes, b.layers[i].param_bytes);
  }
}

}  // namespace
}  // namespace bsched
