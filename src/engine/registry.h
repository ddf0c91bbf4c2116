// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Name -> factory registry for engine sketches. The built-in wrappers
// (Misra-Gries, robust HH, CRHF-HH, AMS F2, SIS-L0, rank decision) register
// themselves on first access to Global(); callers can add their own sketches
// at runtime, which is how a new algorithm joins the serving pipeline
// without touching the ingestor.

#ifndef WBS_ENGINE_REGISTRY_H_
#define WBS_ENGINE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/sketch.h"

namespace wbs::engine {

/// What kind of answers a sketch family produces — the contract the typed
/// query surface (engine::Client) enforces: asking a heavy-hitter sketch for
/// a scalar estimate, or a moment sketch for a candidate list, is an
/// InvalidArgument at query time instead of a silently empty answer.
enum class SketchFamily {
  kHeavyHitter,      ///< candidate list: PointEstimate / TopK
  kScalarEstimate,   ///< numeric scalar: ScalarEstimate (F2, L0, ...)
  kRankVerdict,      ///< boolean decision: RankVerdict
  kGeneric,          ///< unconstrained (custom sketches); all queries allowed
};

class SketchRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Sketch>(const SketchConfig&)>;

  /// Says why a config is one the family cannot serve: an exponent
  /// outside its range, or a dimension above the family's cap. Create
  /// returns it as InvalidArgument, prefixed with the sketch name.
  using ConfigCheck = Status (*)(const SketchConfig&);

  /// The process-wide registry, with the built-in sketches pre-registered.
  static SketchRegistry& Global();

  /// Registers a factory under `name`; rejects duplicates. `family`
  /// declares which typed queries the sketch answers (kGeneric = all);
  /// `check`, if set, vets every config before the factory sees it.
  Status Register(const std::string& name, Factory factory,
                  SketchFamily family = SketchFamily::kGeneric,
                  ConfigCheck check = nullptr);

  /// Instantiates the named sketch with `config`, after the family's
  /// config check. Every engine cell is built here, whether its config
  /// came from a local Client or was decoded from a tcp hello, so a hostile
  /// config is refused before anything is allocated for it.
  Result<std::unique_ptr<Sketch>> Create(const std::string& name,
                                         const SketchConfig& config) const;

  /// The declared answer family of `name`.
  Result<SketchFamily> FamilyOf(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  struct Entry {
    Factory factory;
    SketchFamily family;
    ConfigCheck check;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> factories_;
};

/// Registers the built-in wrappers (defined in builtin_sketches.cc); called
/// once by SketchRegistry::Global().
void RegisterBuiltinSketches(SketchRegistry* registry);

}  // namespace wbs::engine

#endif  // WBS_ENGINE_REGISTRY_H_
