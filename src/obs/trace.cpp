#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iomanip>

#include "util/json.hpp"

namespace enb::obs {

namespace {

// Small dense per-thread tag for the Chrome `tid` field — display identity
// only, never causality (parents are explicit handles).
std::uint32_t thread_tag() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag =
      next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) noexcept {
  const auto delta =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
}

}  // namespace

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::enable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  slots_ = std::vector<Slot>(std::bit_ceil(capacity));
  cursor_.store(0, std::memory_order_relaxed);
  next_id_.store(1, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
}

void TraceRecorder::disable() {
  enabled_.store(false, std::memory_order_release);
}

void TraceRecorder::record(const char* name, SpanHandle handle,
                           SpanHandle parent,
                           std::chrono::steady_clock::time_point start,
                           std::chrono::steady_clock::time_point end,
                           std::string_view detail) noexcept {
  if (!enabled() || slots_.empty()) return;
  const std::uint64_t pos = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[pos & (slots_.size() - 1)];
  slot.name.store(name, std::memory_order_relaxed);
  slot.id.store(handle.id, std::memory_order_relaxed);
  slot.parent.store(parent.id, std::memory_order_relaxed);
  slot.start_ns.store(elapsed_ns(epoch_, start), std::memory_order_relaxed);
  slot.dur_ns.store(elapsed_ns(start, end), std::memory_order_relaxed);
  slot.tid.store(thread_tag(), std::memory_order_relaxed);
  std::array<char, kDetailBytes> packed{};
  if (!detail.empty()) {
    std::memcpy(packed.data(), detail.data(),
                std::min(detail.size(), kDetailBytes));
  }
  for (std::size_t w = 0; w < slot.detail.size(); ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, packed.data() + w * 8, 8);
    slot.detail[w].store(word, std::memory_order_relaxed);
  }
}

std::uint64_t TraceRecorder::recorded() const noexcept {
  return cursor_.load(std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::dropped() const noexcept {
  const std::uint64_t total = recorded();
  return total > slots_.size() ? total - slots_.size() : 0;
}

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  const std::uint64_t total = recorded();
  const std::uint64_t begin =
      total > slots_.size() ? total - slots_.size() : 0;
  out << "{\"traceEvents\": [";
  // Fixed-point microseconds: the default 6-significant-digit float
  // rendering would round away sub-millisecond timing on a long trace.
  out << std::fixed << std::setprecision(3);
  bool first = true;
  for (std::uint64_t pos = begin; pos < total; ++pos) {
    const Slot& slot = slots_[pos & (slots_.size() - 1)];
    const char* name = slot.name.load(std::memory_order_relaxed);
    if (name == nullptr) continue;
    std::array<char, kDetailBytes + 1> detail{};
    for (std::size_t w = 0; w < slot.detail.size(); ++w) {
      const std::uint64_t word = slot.detail[w].load(std::memory_order_relaxed);
      std::memcpy(detail.data() + w * 8, &word, 8);
    }
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\": \"";
    util::json_escape(out, name);
    // Complete ("X") events; timestamps and durations are microseconds.
    out << "\", \"cat\": \"enb\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << slot.tid.load(std::memory_order_relaxed) << ", \"ts\": "
        << static_cast<double>(slot.start_ns.load(std::memory_order_relaxed)) /
               1e3
        << ", \"dur\": "
        << static_cast<double>(slot.dur_ns.load(std::memory_order_relaxed)) /
               1e3
        << ", \"args\": {\"id\": " << slot.id.load(std::memory_order_relaxed)
        << ", \"parent\": " << slot.parent.load(std::memory_order_relaxed)
        << ", \"detail\": \"";
    util::json_escape(out, detail.data());
    out << "\"}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\", \"droppedEvents\": " << dropped()
      << "}\n";
}

// ---- Span -----------------------------------------------------------------

Span::Span(const char* name, SpanHandle parent,
           std::string_view detail) noexcept
    : name_(name), parent_(parent) {
  TraceRecorder& recorder = TraceRecorder::global();
  if (!recorder.enabled()) return;
  armed_ = true;
  handle_ = SpanHandle{recorder.new_id()};
  set_detail(detail);
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!armed_) return;
  TraceRecorder::global().record(
      name_, handle_, parent_, start_, std::chrono::steady_clock::now(),
      std::string_view(detail_.data(), detail_size_));
}

void Span::set_detail(std::string_view detail) noexcept {
  if (!armed_) return;
  detail_size_ = std::min(detail.size(), detail_.size());
  if (detail_size_ > 0) std::memcpy(detail_.data(), detail.data(), detail_size_);
}

}  // namespace enb::obs
