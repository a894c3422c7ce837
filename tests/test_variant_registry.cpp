#include "src/core/variant_registry.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/error.hpp"
#include "src/core/runner.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/scene.hpp"

namespace ebbiot {
namespace {

TEST(VariantRegistryTest, GlobalRegistryHoldsBuiltinsAndExtensions) {
  VariantRegistry& reg = variantRegistry();
  EXPECT_GE(reg.size(), 6U);
  for (const char* key : {"EBBIOT", "EBBI+KF", "EBMS", "EBBINNOT", "Hybrid",
                          "EBBINNOT-Hybrid"}) {
    EXPECT_TRUE(reg.contains(key)) << key;
    ASSERT_NE(reg.find(key), nullptr);
    EXPECT_FALSE(reg.find(key)->description.empty());
  }
  EXPECT_FALSE(reg.contains("nonesuch"));
  EXPECT_EQ(reg.find("nonesuch"), nullptr);
}

TEST(VariantRegistryTest, BuildProducesPipelineNamedLikeTheKey) {
  const VariantContext ctx{240, 180};
  for (const std::string& key : variantRegistry().keys()) {
    const std::unique_ptr<Pipeline> p = variantRegistry().build(key, ctx);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), key);
  }
}

TEST(VariantRegistryTest, DuplicateEmptyAndNullRegistrationsRejected) {
  VariantRegistry local;
  local.add("x", "a variant", [](const VariantContext&) {
    return std::make_unique<EbbiotPipeline>(EbbiotPipelineConfig{}, "x");
  });
  EXPECT_THROW(local.add("x", "again", [](const VariantContext&) {
    return std::make_unique<EbbiotPipeline>(EbbiotPipelineConfig{}, "x");
  }),
               LogicError);
  EXPECT_THROW(local.add("", "no key", [](const VariantContext&) {
    return std::make_unique<EbbiotPipeline>(EbbiotPipelineConfig{});
  }),
               LogicError);
  EXPECT_THROW(local.add("y", "no builder", nullptr), LogicError);
}

TEST(VariantRegistryTest, UnknownKeyAndNameMismatchThrowOnBuild) {
  VariantRegistry local;
  EXPECT_THROW((void)local.build("missing", VariantContext{}), LogicError);
  local.add("well-named", "name disagrees with key",
            [](const VariantContext&) {
              return std::make_unique<EbbiotPipeline>(EbbiotPipelineConfig{},
                                                      "something-else");
            });
  EXPECT_THROW((void)local.build("well-named", VariantContext{}), LogicError);
}

TEST(VariantRegistryTest, ContextGeometryReachesThePipelines) {
  VariantRegistry local;
  registerBuiltinVariants(local);
  const VariantContext ctx{120, 90};
  const std::unique_ptr<Pipeline> p = local.build("EBBIOT", ctx);
  const auto* ebbiot = dynamic_cast<EbbiotPipeline*>(p.get());
  ASSERT_NE(ebbiot, nullptr);
  EXPECT_EQ(ebbiot->config().width, 120);
  EXPECT_EQ(ebbiot->config().height, 90);
}

// --- Runner integration: one runRecording call sweeps the registry.

struct Fixture {
  Fixture() : scene(240, 180) {
    scene.addLinear(ObjectClass::kCar, BBox{-48, 60, 48, 22}, Vec2f{60, 0},
                    0, secondsToUs(20.0));
    scene.addLinear(ObjectClass::kVan, BBox{240, 100, 60, 28}, Vec2f{-45, 0},
                    secondsToUs(1.0), secondsToUs(20.0));
    EventSynthConfig config;
    config.backgroundActivityHz = 0.3;
    config.seed = 31;
    synth = std::make_unique<FastEventSynth>(scene, config);
  }
  ScriptedScene scene;
  std::unique_ptr<FastEventSynth> synth;
};

TEST(VariantRegistryRunnerTest, OneRunEvaluatesEveryRegisteredVariant) {
  Fixture fix;
  const RunnerConfig config = makeRegistryRunnerConfig(240, 180);
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(6.0), config);
  // All registered variants evaluated side by side: the three paper
  // built-ins plus the NN-filtered and hybrid back ends — >= 5 pipelines
  // in one call, each with per-variant ops and PR counts.
  ASSERT_GE(result.pipelines.size(), 5U);
  EXPECT_EQ(result.pipelines.size(), variantRegistry().size());
  for (const PipelineRunStats& stats : result.pipelines) {
    EXPECT_TRUE(variantRegistry().contains(stats.name)) << stats.name;
    EXPECT_EQ(stats.frames, result.frames) << stats.name;
    EXPECT_GT(stats.totalOps.total(), 0U) << stats.name;
    EXPECT_EQ(stats.counts.size(), config.iouThresholds.size());
  }
  // The paper's three are registry entries like any other.
  EXPECT_NE(result.stats("EBBIOT"), nullptr);
  EXPECT_NE(result.stats("EBBI+KF"), nullptr);
  EXPECT_NE(result.stats("EBMS"), nullptr);
  // The extension variants track the easy scene too.
  const PipelineRunStats* nn = result.stats("EBBINNOT");
  const PipelineRunStats* hybrid = result.stats("Hybrid");
  ASSERT_NE(nn, nullptr);
  ASSERT_NE(hybrid, nullptr);
  EXPECT_GT(nn->counts[2].recall(), 0.5);
  EXPECT_GT(hybrid->counts[2].recall(), 0.5);
}

TEST(VariantRegistryRunnerTest, NamedVariantsRideAlongBuiltins) {
  Fixture fix;
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.variants = {"EBBIOT", "Hybrid", "EBBINNOT"};
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(2.0), config);
  ASSERT_EQ(result.pipelines.size(), 3U);
  EXPECT_EQ(result.pipelines[0].name, "EBBIOT");
  EXPECT_EQ(result.pipelines[1].name, "Hybrid");
  EXPECT_EQ(result.pipelines[2].name, "EBBINNOT");
}

TEST(VariantRegistryRunnerTest, LocalRegistrySweepsAdHocGrid) {
  // Ad-hoc grids run as factories; nothing is registered.
  Fixture fix;
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.variants.clear();
  for (int s1 : {3, 6}) {
    config.extraPipelines.push_back([s1] {
      EbbiotPipelineConfig c;
      c.rpn.s1 = s1;
      return std::make_unique<EbbiotPipeline>(
          c, "EBBIOT-s" + std::to_string(s1));
    });
  }
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(2.0), config);
  ASSERT_EQ(result.pipelines.size(), 2U);
  EXPECT_NE(result.stats("EBBIOT-s3"), nullptr);
  EXPECT_NE(result.stats("EBBIOT-s6"), nullptr);
  // The global registry was not polluted by the local sweep.
  EXPECT_FALSE(variantRegistry().contains("EBBIOT-s3"));
}

TEST(VariantRegistryRunnerTest, VariantDuplicatingBuiltinRejected) {
  Fixture fix;
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.variants.push_back("EBBIOT");  // clashes with the default entry
  EXPECT_THROW(
      (void)runRecording(*fix.synth, fix.scene, secondsToUs(1.0), config),
      LogicError);
}

}  // namespace
}  // namespace ebbiot
