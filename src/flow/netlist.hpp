#pragma once
// Gate-level netlist for system evaluation: the substrate on which static
// timing, power, and area are computed for the paper's ten benchmarks.
//
// Nets are integer ids. Gates reference library cells by name and are
// stored in topological order (generators construct them that way; the
// validator checks). Sequential state is a flat list of flip-flops with D
// and Q nets; the clock is implicit.

#include <cstdint>
#include <string>
#include <vector>

namespace stco::flow {

using NetId = std::uint32_t;

struct Gate {
  std::string cell;           ///< library cell name (e.g. "NAND2")
  std::vector<NetId> fanin;
  NetId out = 0;
};

struct FlipFlop {
  NetId d = 0;
  NetId q = 0;
};

class GateNetlist {
 public:
  explicit GateNetlist(std::string name = "top") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  NetId new_net() { return num_nets_++; }
  std::size_t num_nets() const { return num_nets_; }

  NetId add_primary_input() {
    const NetId n = new_net();
    primary_inputs_.push_back(n);
    return n;
  }
  void mark_primary_output(NetId n) { primary_outputs_.push_back(n); }

  /// Add a gate whose fanin nets must already exist; returns the output net.
  NetId add_gate(std::string cell, std::vector<NetId> fanin);
  /// Register a flip-flop; Q becomes a new driven net.
  NetId add_flipflop(NetId d);
  /// Flip-flop D nets may only be assigned after logic construction; this
  /// rewires ff index `i` to capture `d`.
  void set_flipflop_d(std::size_t i, NetId d);

  const std::vector<NetId>& primary_inputs() const { return primary_inputs_; }
  const std::vector<NetId>& primary_outputs() const { return primary_outputs_; }
  const std::vector<Gate>& gates() const { return gates_; }
  const std::vector<FlipFlop>& flipflops() const { return flipflops_; }

  std::size_t num_gates() const { return gates_.size(); }
  std::size_t num_flipflops() const { return flipflops_.size(); }

  /// Cell-name histogram.
  std::vector<std::pair<std::string, std::size_t>> cell_histogram() const;

  /// Validates: every gate fanin net is driven by a PI, FF Q, or an earlier
  /// gate (topological legality); every FF D net exists. Throws on error.
  void check() const;

 private:
  std::string name_;
  NetId num_nets_ = 0;
  std::vector<NetId> primary_inputs_;
  std::vector<NetId> primary_outputs_;
  std::vector<Gate> gates_;
  std::vector<FlipFlop> flipflops_;
};

}  // namespace stco::flow
