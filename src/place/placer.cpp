#include "place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "ring/builder.hpp"

namespace xring::place {

namespace {

/// Simulated-annealing start temperature, and the seed of its swap and
/// acceptance stream (fixed, so a placement is reproducible).
constexpr double kInitialTemperatureMm = 8.0;
constexpr std::uint64_t kSeed = 1;

/// Deterministic LCG (shared recurrence across the project's stochastic
/// components).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed * 2862933555777941757ULL + 1) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 11;
  }
  double uniform() { return static_cast<double>(next()) / 9007199254740992.0; }

 private:
  std::uint64_t state_;
};

netlist::Floorplan place(const std::vector<geom::Point>& slots,
                         const std::vector<int>& node_slot) {
  std::vector<netlist::Node> nodes;
  nodes.reserve(node_slot.size());
  for (const int s : node_slot) nodes.push_back({0, slots[s], ""});
  geom::Coord w = 0, h = 0;
  for (const geom::Point& p : slots) {
    w = std::max(w, p.x + 1000);
    h = std::max(h, p.y + 1000);
  }
  return netlist::Floorplan(std::move(nodes), w, h);
}

}  // namespace

double placement_cost_mm(const netlist::Floorplan& floorplan,
                         const netlist::Traffic& traffic) {
  // A fast inner loop: the conflict-aware heuristic ring (the same tour the
  // MILP warm-starts from) and the sum of shorter arcs over the demand set.
  const ring::ConflictOracle oracle(floorplan);
  const ring::Tour tour(ring::heuristic_tour(floorplan, oracle), &floorplan);
  double total_um = 0;
  for (const auto& sig : traffic.signals()) {
    total_um += static_cast<double>(
        std::min(tour.arc_length_cw(sig.src, sig.dst),
                 tour.arc_length_ccw(sig.src, sig.dst)));
  }
  return total_um / 1000.0;
}

PlacementResult optimize_placement(const std::vector<geom::Point>& slots,
                                   int nodes,
                                   const netlist::Traffic& traffic,
                                   const PlacementOptions& options) {
  if (static_cast<int>(slots.size()) != nodes) {
    throw std::invalid_argument("slot count must equal node count");
  }

  PlacementResult result;
  result.node_slot.resize(nodes);
  for (int v = 0; v < nodes; ++v) result.node_slot[v] = v;

  double cost = placement_cost_mm(place(slots, result.node_slot), traffic);
  result.initial_cost_mm = cost;

  std::vector<int> best = result.node_slot;
  double best_cost = cost;

  Lcg rng(kSeed);
  for (int it = 0; it < options.iterations; ++it) {
    // Geometric cooling from the initial temperature to ~1% of it.
    const double t =
        kInitialTemperatureMm *
        std::pow(0.01, static_cast<double>(it) / options.iterations);
    const int a = static_cast<int>(rng.next() % nodes);
    int b = static_cast<int>(rng.next() % nodes);
    if (a == b) b = (b + 1) % nodes;

    std::swap(result.node_slot[a], result.node_slot[b]);
    const double trial =
        placement_cost_mm(place(slots, result.node_slot), traffic);
    const double delta = trial - cost;
    if (delta <= 0 || rng.uniform() < std::exp(-delta / std::max(t, 1e-9))) {
      cost = trial;
      if (cost < best_cost) {
        best_cost = cost;
        best = result.node_slot;
      }
    } else {
      std::swap(result.node_slot[a], result.node_slot[b]);  // reject
    }
  }

  result.node_slot = best;
  result.final_cost_mm = best_cost;
  result.floorplan = place(slots, best);
  return result;
}

}  // namespace xring::place
