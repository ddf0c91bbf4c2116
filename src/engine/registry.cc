// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "engine/registry.h"

namespace wbs::engine {

SketchRegistry& SketchRegistry::Global() {
  static SketchRegistry* instance = [] {
    auto* r = new SketchRegistry();
    RegisterBuiltinSketches(r);
    return r;
  }();
  return *instance;
}

Status SketchRegistry::Register(const std::string& name, Factory factory,
                                SketchFamily family, ConfigCheck check) {
  if (name.empty()) {
    return Status::InvalidArgument("SketchRegistry: empty sketch name");
  }
  if (!factory) {
    return Status::InvalidArgument("SketchRegistry: null factory for " + name);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      factories_.emplace(name, Entry{std::move(factory), family, check});
  (void)it;
  if (!inserted) {
    return Status::FailedPrecondition("SketchRegistry: duplicate name " + name);
  }
  return Status::OK();
}

Result<std::unique_ptr<Sketch>> SketchRegistry::Create(
    const std::string& name, const SketchConfig& config) const {
  Factory factory;
  ConfigCheck check = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      return Status::NotFound("SketchRegistry: unknown sketch " + name);
    }
    factory = it->second.factory;
    check = it->second.check;
  }
  if (check != nullptr) {
    if (Status s = check(config); !s.ok()) {
      return Status::InvalidArgument("SketchRegistry: " + name +
                                     " config: " + s.message());
    }
  }
  std::unique_ptr<Sketch> sketch = factory(config);
  if (sketch == nullptr) {
    return Status::Internal("SketchRegistry: factory for " + name +
                            " returned null");
  }
  return sketch;
}

Result<SketchFamily> SketchRegistry::FamilyOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::NotFound("SketchRegistry: unknown sketch " + name);
  }
  return it->second.family;
}

std::vector<std::string> SketchRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, entry] : factories_) names.push_back(name);
  return names;
}

}  // namespace wbs::engine
