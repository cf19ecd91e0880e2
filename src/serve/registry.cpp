#include "serve/registry.hpp"

#include <iomanip>
#include <sstream>

namespace enb::serve {

// ---- handle registry -----------------------------------------------------

HandleRegistry::HandleRegistry(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void HandleRegistry::insert_locked(const std::string& name,
                                   analysis::CompiledCircuit circuit) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    lru_.erase(it->second);
    by_name_.erase(it);
    ++evictions_;
  }
  Entry entry;
  entry.info.name = name;
  entry.info.fingerprint = circuit.content_fingerprint();
  entry.info.circuit = std::move(circuit);
  lru_.push_front(std::move(entry));
  by_name_[name] = lru_.begin();
  while (by_name_.size() > capacity_) {
    by_name_.erase(lru_.back().info.name);
    lru_.pop_back();
    ++evictions_;
  }
}

HandleInfo HandleRegistry::get_or_load(
    const std::string& name,
    const std::function<analysis::CompiledCircuit()>& loader) {
  util::UniqueLock lock(mutex_);
  for (;;) {
    const auto it = by_name_.find(name);
    if (it != by_name_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->info;
    }
    if (loading_.insert(name).second) break;  // we own this load
    // Another session is loading this name: two sessions racing on a cold
    // spec must produce one handle (one artifact cache, one profile
    // extraction). Wait for its result; if its loader throws, retry as the
    // new owner.
    loading_cv_.wait(lock);
  }

  // Load outside the lock: a slow compile/map of one circuit must not
  // stall sessions touching unrelated names.
  lock.unlock();
  analysis::CompiledCircuit circuit;
  try {
    circuit = loader();
  } catch (...) {
    lock.lock();
    loading_.erase(name);
    loading_cv_.notify_all();
    throw;
  }
  lock.lock();
  loading_.erase(name);
  ++loads_;
  insert_locked(name, std::move(circuit));
  loading_cv_.notify_all();
  return lru_.front().info;
}

std::optional<HandleInfo> HandleRegistry::find(const std::string& name) {
  const util::LockGuard lock(mutex_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->info;
}

void HandleRegistry::put(const std::string& name,
                         analysis::CompiledCircuit circuit) {
  const util::LockGuard lock(mutex_);
  ++loads_;
  insert_locked(name, std::move(circuit));
}

bool HandleRegistry::evict(const std::string& name) {
  const util::LockGuard lock(mutex_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return false;
  lru_.erase(it->second);
  by_name_.erase(it);
  ++evictions_;
  return true;
}

std::size_t HandleRegistry::clear() {
  const util::LockGuard lock(mutex_);
  const std::size_t dropped = by_name_.size();
  evictions_ += dropped;
  by_name_.clear();
  lru_.clear();
  return dropped;
}

RegistryStats HandleRegistry::stats() const {
  const util::LockGuard lock(mutex_);
  RegistryStats s;
  s.handles = by_name_.size();
  s.loads = loads_;
  s.hits = hits_;
  s.evictions = evictions_;
  for (const Entry& entry : lru_) {
    s.profile_extractions += entry.info.circuit.profile_extractions();
  }
  return s;
}

// ---- result cache --------------------------------------------------------

std::string result_cache_key(const analysis::AnalysisRequest& request) {
  std::ostringstream key;
  key << std::hex << std::setfill('0');
  // An empty circuit handle (profile-override energy bound) hashes as 0;
  // the canonical spec then carries the full override contents, keeping the
  // key value-complete.
  key << std::setw(16)
      << (request.circuit.valid() ? request.circuit.content_fingerprint() : 0);
  key << '|' << std::setw(16)
      << (request.golden.has_value() ? request.golden->content_fingerprint()
                                     : 0);
  key << (request.golden.has_value() ? "g" : "-");
  key << '|' << analysis::canonical_spec(request.options);
  return key.str();
}

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::optional<analysis::AnalysisResult> ResultCache::find(
    const std::string& key, const std::string& name, std::size_t index) {
  const util::LockGuard lock(mutex_);
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  analysis::AnalysisResult result = it->second->result;
  // Identity fields belong to the consumer, not the cache entry.
  result.name = name;
  result.index = index;
  return result;
}

void ResultCache::store(const std::string& key,
                        analysis::AnalysisResult result) {
  const util::LockGuard lock(mutex_);
  ++stores_;
  const auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    // Equal by the determinism contract; keep the existing entry warm.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(result)});
  by_key_[key] = lru_.begin();
  while (by_key_.size() > capacity_) {
    by_key_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
}

std::size_t ResultCache::clear() {
  const util::LockGuard lock(mutex_);
  const std::size_t dropped = by_key_.size();
  evictions_ += dropped;
  by_key_.clear();
  lru_.clear();
  return dropped;
}

ResultCacheStats ResultCache::stats() const {
  const util::LockGuard lock(mutex_);
  ResultCacheStats s;
  s.entries = by_key_.size();
  s.hits = hits_;
  s.misses = misses_;
  s.stores = stores_;
  s.evictions = evictions_;
  return s;
}

}  // namespace enb::serve
