// Named registry of pipeline variants.
//
// Every end-to-end pipeline the harness knows how to build self-registers
// here under a string key, so evaluations, benches and examples sweep
// *registered variants* instead of hard-coded config structs:
//
//   RunnerConfig config = makeRegistryRunnerConfig(240, 180);
//   RunResult run = runRecording(source, scene, duration, config);
//   // -> one run, every registered variant evaluated side by side.
//
// The global registry is seeded with the paper's three built-ins plus the
// back-end extensions (EBBINNOT's NN region filter, the hybrid OT+KF
// tracker, and their combination); a new pipeline paper becomes one
// `variantRegistry().add(...)` call:
//
//   variantRegistry().add(
//       "EBBIOT-cca", "CCA proposer behind the paper tracker",
//       [](const VariantContext& ctx) {
//         EbbiotPipelineConfig c;
//         c.width = ctx.width; c.height = ctx.height;
//         c.rpnKind = RpnKind::kCca;
//         return std::make_unique<EbbiotPipeline>(c, "EBBIOT-cca");
//       });
//
// Ad-hoc parameter grids and customised built-ins do not register
// anything: they enter a run as RunnerConfig::extraPipelines factories,
// leaving the global registry untouched.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/pipeline.hpp"

namespace ebbiot {

/// Everything a variant builder may depend on at build time, and the
/// sensor geometry of a RunnerConfig.  Kept small on purpose: variants
/// own their full config; the context only carries what must match the
/// recording being evaluated.
struct VariantContext {
  int width = 240;   ///< sensor width of the recording
  int height = 180;  ///< sensor height of the recording
};

/// Builds one pipeline instance for the given context.  The pipeline's
/// name() must equal the variant's registry key.
using VariantBuilder =
    std::function<std::unique_ptr<Pipeline>(const VariantContext&)>;

struct VariantInfo {
  std::string key;          ///< unique name, also the Pipeline::name()
  std::string description;  ///< one-liner for bench/example tables
  VariantBuilder build;
};

/// Ordered, key-unique collection of pipeline variants.
class VariantRegistry {
 public:
  /// An empty registry (for tests).  The process-wide instance seeded
  /// with the built-ins is variantRegistry().
  VariantRegistry() = default;

  /// Register a variant; throws LogicError on a duplicate key, empty key,
  /// or null builder.
  void add(std::string key, std::string description, VariantBuilder build);

  [[nodiscard]] bool contains(std::string_view key) const;
  /// The variant with this key, or nullptr.
  [[nodiscard]] const VariantInfo* find(std::string_view key) const;
  /// All variants in registration order.
  [[nodiscard]] const std::vector<VariantInfo>& variants() const {
    return variants_;
  }
  /// All keys in registration order.
  [[nodiscard]] std::vector<std::string> keys() const;
  [[nodiscard]] std::size_t size() const { return variants_.size(); }

  /// Build the keyed variant; throws LogicError on an unknown key, and if
  /// the built pipeline's name() does not equal the key.
  [[nodiscard]] std::unique_ptr<Pipeline> build(
      std::string_view key, const VariantContext& context) const;

 private:
  std::vector<VariantInfo> variants_;
};

/// Register the paper's built-ins and the back-end extension variants
/// into `registry`: EBBIOT, EBBI+KF, EBMS, EBBINNOT (NN region filter),
/// Hybrid (OT association + KF coasting), EBBINNOT-Hybrid (both), and
/// EBBIOT-CCA (the future-work connected-components proposer).
/// Throws if any of those keys is already present.
void registerBuiltinVariants(VariantRegistry& registry);

/// The process-wide registry, seeded with registerBuiltinVariants() on
/// first use.
[[nodiscard]] VariantRegistry& variantRegistry();

}  // namespace ebbiot
