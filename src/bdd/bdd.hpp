// A compact reduced-ordered BDD package.
//
// Canonicity gives O(1) equivalence checks, and the probability recursion
// gives exact signal probabilities — the exact counterpart of the Monte-Carlo
// activity estimator used for the paper's sw0 parameter.
//
// Design notes:
//  * refs are indices into an arena; 0/1 are the terminals. No complement
//    edges (simplicity over peak capacity; our circuits are small).
//  * all binary operators route through ITE with a shared memo cache.
//  * a hard node budget turns combinational blow-up into a typed exception
//    (BddLimitExceeded) instead of an OOM.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace enb::bdd {

class BddLimitExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

using Ref = std::uint32_t;

class Bdd {
 public:
  static constexpr Ref kFalse = 0;
  static constexpr Ref kTrue = 1;

  explicit Bdd(unsigned num_vars, std::size_t node_limit = std::size_t{1} << 22);

  [[nodiscard]] unsigned num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }

  // Literal builders.
  [[nodiscard]] Ref var_ref(unsigned var);
  [[nodiscard]] Ref nvar_ref(unsigned var);

  // Core operator: if-then-else(f, g, h) == f&g | ~f&h.
  [[nodiscard]] Ref ite(Ref f, Ref g, Ref h);

  [[nodiscard]] Ref apply_not(Ref f) { return ite(f, kFalse, kTrue); }
  [[nodiscard]] Ref apply_and(Ref f, Ref g) { return ite(f, g, kFalse); }
  [[nodiscard]] Ref apply_or(Ref f, Ref g) { return ite(f, kTrue, g); }
  [[nodiscard]] Ref apply_xor(Ref f, Ref g) { return ite(f, apply_not(g), g); }
  [[nodiscard]] Ref apply_maj(Ref a, Ref b, Ref c) {
    return ite(a, apply_or(b, c), apply_and(b, c));
  }

  // Restriction f|var=value.
  [[nodiscard]] Ref cofactor(Ref f, unsigned var, bool value);

  // Substitution x_var <- !x_var (used for influence computation).
  [[nodiscard]] Ref flip_var(Ref f, unsigned var);

  [[nodiscard]] Ref exists(Ref f, unsigned var);
  [[nodiscard]] Ref forall(Ref f, unsigned var);

  // P[f = 1] when input i is 1 with probability p[i] (independent inputs).
  [[nodiscard]] double probability(Ref f, std::span<const double> p);

  // P[f = 1] under the uniform distribution.
  [[nodiscard]] double sat_fraction(Ref f);

  // Number of satisfying assignments over all num_vars() inputs. Exact while
  // the count fits a double's 53-bit mantissa (always true for n <= 53).
  [[nodiscard]] double sat_count(Ref f);

  // Number of distinct nodes (terminals included) reachable from f.
  [[nodiscard]] std::size_t node_count(Ref f) const;

  // Structure access (f must not be a terminal for var_of/lo/hi).
  [[nodiscard]] bool is_terminal(Ref f) const noexcept { return f <= kTrue; }
  [[nodiscard]] unsigned var_of(Ref f) const;
  [[nodiscard]] Ref lo(Ref f) const;
  [[nodiscard]] Ref hi(Ref f) const;

 private:
  struct Node {
    std::uint32_t var;
    Ref lo;
    Ref hi;
  };

  [[nodiscard]] Ref make_node(unsigned var, Ref lo, Ref hi);
  [[nodiscard]] std::uint32_t level_of(Ref f) const {
    return nodes_[f].var;  // terminals carry var == num_vars_
  }
  [[nodiscard]] Ref cofactor_at(Ref f, std::uint32_t level, bool value) const;
  void check_var(unsigned var, const char* context) const;

  unsigned num_vars_;
  std::size_t node_limit_;
  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, std::vector<Ref>> unique_;
  std::unordered_map<std::uint64_t, std::vector<std::pair<Node, Ref>>> ite_cache_;
};

}  // namespace enb::bdd
