#include "ring/tour.hpp"

#include <algorithm>
#include <stdexcept>

namespace xring::ring {

Tour::Tour(std::vector<NodeId> order, const netlist::Floorplan* floorplan)
    : order_(std::move(order)) {
  const int n = size();
  if (n < 3) throw std::invalid_argument("a ring tour needs >= 3 nodes");
  NodeId max_id = 0;
  for (NodeId v : order_) max_id = std::max(max_id, v);
  position_.assign(max_id + 1, -1);
  for (int p = 0; p < n; ++p) {
    if (position_[order_[p]] != -1) {
      throw std::invalid_argument("tour visits a node twice");
    }
    position_[order_[p]] = p;
  }
  hop_lengths_.assign(n, 0);
  prefix_.assign(n + 1, 0);
  if (floorplan != nullptr) {
    for (int h = 0; h < n; ++h) {
      hop_lengths_[h] = floorplan->distance(at(h), at(h + 1));
      total_length_ += hop_lengths_[h];
      prefix_[h + 1] = total_length_;
    }
  }
}

int Tour::hops_cw(NodeId src, NodeId dst) const {
  const int n = size();
  return ((position(dst) - position(src)) % n + n) % n;
}

geom::Coord Tour::arc_length_cw(NodeId src, NodeId dst) const {
  // Integer µm, so the prefix differences equal the hop-by-hop sum exactly.
  const int s = position(src), d = position(dst);
  return d >= s ? prefix_[d] - prefix_[s]
                : total_length_ - prefix_[s] + prefix_[d];
}

std::vector<int> Tour::hops_on_arc_cw(NodeId src, NodeId dst) const {
  const int n = size();
  const int start = position(src);
  const int hops = hops_cw(src, dst);
  std::vector<int> out;
  out.reserve(hops);
  for (int h = 0; h < hops; ++h) out.push_back((start + h) % n);
  return out;
}

std::vector<std::pair<NodeId, NodeId>> Tour::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(size());
  for (int h = 0; h < size(); ++h) out.emplace_back(at(h), at(h + 1));
  return out;
}

namespace {

/// Counts crossings between hop route candidates under a partial/full
/// assignment of hop orders.
int crossings_between(const std::vector<std::array<geom::LRoute, 2>>& options,
                      const std::vector<int>& choice, int upto) {
  int total = 0;
  for (int i = 0; i < upto; ++i) {
    for (int j = i + 1; j < upto; ++j) {
      total += geom::crossing_count(options[i][choice[i]], options[j][choice[j]]);
    }
  }
  return total;
}

}  // namespace

RingGeometry realize(const Tour& tour, const netlist::Floorplan& floorplan) {
  const int n = tour.size();
  std::vector<std::array<geom::LRoute, 2>> options;
  options.reserve(n);
  for (int h = 0; h < n; ++h) {
    options.push_back(geom::l_route_options(floorplan.position(tour.at(h)),
                                            floorplan.position(tour.at(h + 1))));
  }

  // Greedy with one round of local repair: choose each hop's option to
  // minimize crossings against already-fixed hops, then sweep again letting
  // every hop reconsider. The MILP guarantees pairwise compatibility, and in
  // practice two sweeps reach zero crossings; if not, the best assignment
  // found is returned and `crossings` reports the residue honestly.
  std::vector<int> choice(n, 0);
  auto cost_of = [&](int hop, int opt) {
    int c = 0;
    for (int other = 0; other < n; ++other) {
      if (other == hop) continue;
      c += geom::crossing_count(options[hop][opt], options[other][choice[other]]);
    }
    return c;
  };
  for (int sweep = 0; sweep < 4; ++sweep) {
    bool changed = false;
    for (int h = 0; h < n; ++h) {
      const int c0 = cost_of(h, 0);
      const int c1 = cost_of(h, 1);
      const int best = c1 < c0 ? 1 : 0;
      if (best != choice[h]) {
        choice[h] = best;
        changed = true;
      }
    }
    if (!changed) break;
  }

  RingGeometry geo;
  geo.tour = tour;
  geo.hop_orders.reserve(n);
  for (int h = 0; h < n; ++h) {
    geo.hop_orders.push_back(choice[h] == 0 ? options[h][0].order()
                                            : options[h][1].order());
    geo.polyline.append(options[h][choice[h]]);
  }
  geo.crossings = crossings_between(options, choice, n);
  return geo;
}

}  // namespace xring::ring
