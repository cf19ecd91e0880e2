// Structural stuck-at fault model: the fault universe of a circuit.
//
// The universe is the classic single-stuck-at set — every net (node output)
// stuck at 0 and stuck at 1, in the canonical net order of
// netlist::enumerate_nets — collapsed by *structural equivalence*: two
// faults are equivalent when they produce identical faulty functions at
// every primary output, which the textbook gate rules certify locally
// (e.g. any input of an AND stuck at 0 is equivalent to its output stuck
// at 0, provided the input net feeds nothing else). Simulating one
// representative per class is therefore exact for every member, which is
// what lets the campaign engine expand class results back to per-net
// `.ans` rows without approximation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"

namespace enb::fault {

enum class StuckAt : std::uint8_t { kZero = 0, kOne = 1 };

// Detectability-map sentinels: a class no pattern detected has first
// pattern kNotDetected and first output kNoOutput.
inline constexpr std::uint64_t kNotDetected = ~std::uint64_t{0};
inline constexpr std::uint32_t kNoOutput = ~std::uint32_t{0};

[[nodiscard]] constexpr const char* to_string(StuckAt value) noexcept {
  return value == StuckAt::kZero ? "sa0" : "sa1";
}

struct FaultSite {
  netlist::NodeId node = netlist::kInvalidNode;  // the faulted net's driver
  StuckAt value = StuckAt::kZero;

  friend bool operator==(const FaultSite&, const FaultSite&) = default;
};

// Site index convention: net i (enumerate_nets order == node-id order)
// contributes sites 2i (stuck-at-0) and 2i+1 (stuck-at-1). The convention is
// part of the reproducibility contract — campaign outputs are keyed by it.
[[nodiscard]] constexpr std::size_t site_index(netlist::NodeId net,
                                               StuckAt value) noexcept {
  return 2 * static_cast<std::size_t>(net) + (value == StuckAt::kOne ? 1 : 0);
}

class FaultUniverse {
 public:
  // Builds the universe for `circuit`. With `collapse` the structural
  // equivalence rules merge sites into classes; without it every site is its
  // own class (useful for cross-checking the collapser itself). With
  // `prune_untestable` the static prover (fault/untestable.hpp) marks the
  // classes whose faults provably cannot be detected; class numbering is
  // unchanged — pruning is a per-class annotation the campaign layer uses
  // to shrink its active set, never a renumbering.
  [[nodiscard]] static FaultUniverse build(const netlist::Circuit& circuit,
                                           bool collapse = true,
                                           bool prune_untestable = false);

  [[nodiscard]] std::size_t num_nets() const noexcept {
    return sites_.size() / 2;
  }
  [[nodiscard]] std::size_t num_sites() const noexcept {
    return sites_.size();
  }
  [[nodiscard]] const FaultSite& site(std::size_t site_index) const {
    return sites_.at(site_index);
  }
  [[nodiscard]] std::span<const FaultSite> sites() const noexcept {
    return sites_;
  }

  // Equivalence classes, ordered by their lowest member site index. The
  // representative of a class is that lowest member.
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return rep_site_.size();
  }
  [[nodiscard]] std::size_t class_of(std::size_t site_index) const {
    return class_of_.at(site_index);
  }
  [[nodiscard]] std::size_t representative_site(std::size_t class_index) const {
    return rep_site_.at(class_index);
  }
  [[nodiscard]] const FaultSite& representative(std::size_t class_index) const {
    return sites_[rep_site_.at(class_index)];
  }

  // Untestability annotations; all-false (and num_untestable() == 0) when
  // the universe was built without prune_untestable.
  [[nodiscard]] bool pruned() const noexcept { return pruned_; }
  [[nodiscard]] bool class_untestable(std::size_t class_index) const {
    return pruned_ && untestable_.at(class_index);
  }
  [[nodiscard]] std::uint64_t num_untestable() const noexcept {
    return num_untestable_;
  }

 private:
  std::vector<FaultSite> sites_;       // 2 per net, canonical order
  std::vector<std::size_t> class_of_;  // site index -> class index
  std::vector<std::size_t> rep_site_;  // class index -> lowest site index
  std::vector<bool> untestable_;       // class index -> proved untestable
  std::uint64_t num_untestable_ = 0;
  bool pruned_ = false;
};

}  // namespace enb::fault
