#include "src/flow/netlist.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace stco::flow {

NetId GateNetlist::add_gate(std::string cell, std::vector<NetId> fanin) {
  if (fanin.empty()) throw std::invalid_argument("add_gate: empty fanin");
  for (NetId n : fanin)
    if (n >= num_nets_) throw std::out_of_range("add_gate: fanin net does not exist");
  const NetId out = new_net();
  gates_.push_back({std::move(cell), std::move(fanin), out});
  return out;
}

NetId GateNetlist::add_flipflop(NetId d) {
  if (d >= num_nets_) throw std::out_of_range("add_flipflop: D net does not exist");
  const NetId q = new_net();
  flipflops_.push_back({d, q});
  return q;
}

void GateNetlist::set_flipflop_d(std::size_t i, NetId d) {
  if (i >= flipflops_.size()) throw std::out_of_range("set_flipflop_d: index");
  if (d >= num_nets_) throw std::out_of_range("set_flipflop_d: net");
  flipflops_[i].d = d;
}

std::vector<std::pair<std::string, std::size_t>> GateNetlist::cell_histogram() const {
  std::map<std::string, std::size_t> h;
  for (const auto& g : gates_) ++h[g.cell];
  return {h.begin(), h.end()};
}

void GateNetlist::check() const {
  std::vector<bool> driven(num_nets_, false);
  for (NetId n : primary_inputs_) driven[n] = true;
  for (const auto& ff : flipflops_) driven[ff.q] = true;
  for (const auto& g : gates_) {
    for (NetId n : g.fanin)
      if (!driven[n])
        throw std::invalid_argument("GateNetlist::check: net used before driven");
    if (driven[g.out])
      throw std::invalid_argument("GateNetlist::check: multiple drivers");
    driven[g.out] = true;
  }
  for (const auto& ff : flipflops_)
    if (!driven[ff.d])
      throw std::invalid_argument("GateNetlist::check: flip-flop D undriven");
  for (NetId n : primary_outputs_)
    if (!driven[n])
      throw std::invalid_argument("GateNetlist::check: primary output undriven");
}

}  // namespace stco::flow
