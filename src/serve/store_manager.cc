#include "serve/store_manager.h"

#include <utility>

#include "util/fault_injection.h"
#include "util/logging.h"

namespace hignn {

Result<std::unique_ptr<StoreManager>> StoreManager::Open(
    const std::string& path, ServeMetrics* metrics) {
  if (path.empty()) {
    return Status::InvalidArgument("store path must not be empty");
  }
  if (metrics == nullptr) {
    return Status::InvalidArgument("metrics must not be null");
  }
  std::unique_ptr<StoreManager> manager(new StoreManager(metrics));
  HIGNN_ASSIGN_OR_RETURN(std::unique_ptr<PredictionEngine> engine,
                         OpenEngine(path));
  auto generation = std::make_shared<StoreGeneration>();
  generation->number = 1;
  generation->path = path;
  generation->engine = std::move(engine);
  manager->Publish(std::move(generation));
  return manager;
}

Result<std::unique_ptr<PredictionEngine>> StoreManager::OpenEngine(
    const std::string& path) {
  if (fault::ShouldFail("serve.store.open")) {
    return Status::IOError("injected store open fault");
  }
  return PredictionEngine::Open(path);
}

std::shared_ptr<const StoreGeneration> StoreManager::Current() const {
  MutexLock lock(mu_);
  return current_;
}

void StoreManager::Publish(std::shared_ptr<const StoreGeneration> next) {
  {
    MutexLock lock(mu_);
    current_ = std::move(next);
    generation_.store(current_->number, std::memory_order_relaxed);
  }
  metrics_->SetStoreGeneration(generation());
}

Result<int64_t> StoreManager::Reload(const std::string& path) {
  MutexLock reload_lock(reload_mu_);
  const std::shared_ptr<const StoreGeneration> previous = Current();
  const std::string source = path.empty() ? previous->path : path;

  // Build the candidate generation entirely off to the side. Traffic
  // keeps flowing against `previous` the whole time; a failure below
  // this block simply never publishes.
  Result<std::unique_ptr<PredictionEngine>> engine = OpenEngine(source);
  metrics_->RecordReload(engine.ok());
  if (!engine.ok()) {
    HIGNN_LOG(kWarning) << "store reload from '" << source
                        << "' failed (generation " << previous->number
                        << " keeps serving): "
                        << engine.status().ToString();
    return engine.status();
  }

  auto next = std::make_shared<StoreGeneration>();
  next->number = previous->number + 1;
  next->path = source;
  next->engine = std::move(engine).value();

  // Crash site between validation and publication: a process killed here
  // must come back serving the old store (the swap is all-or-nothing in
  // memory; nothing on disk changed).
  fault::MaybeCrash("serve.reload.publish");

  Publish(next);
  HIGNN_LOG(kInfo) << "store reloaded from '" << source << "' (generation "
                   << next->number << ", " << next->store().num_users()
                   << " users x " << next->store().num_items() << " items, "
                   << next->store().index().num_levels()
                   << "-level retrieval index)";
  return next->number;
}

}  // namespace hignn
