#include "netlist/io.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace xring::netlist {

Floorplan read_floorplan(std::istream& in) {
  const auto fail = [](int line, const std::string& what) {
    throw std::invalid_argument("line " + std::to_string(line) + ": " + what);
  };
  const auto where = [](const Node& n) {
    return "node '" + n.name + "' at (" + std::to_string(n.position.x) +
           ", " + std::to_string(n.position.y) + ")";
  };
  geom::Coord width = 0, height = 0;
  std::vector<Node> nodes;
  std::vector<int> node_lines;  // source line of each node
  std::map<std::string, int> line_of_name;
  std::map<std::pair<geom::Coord, geom::Coord>, std::size_t> node_at;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;  // blank or comment-only line
    if (directive == "die") {
      if (!(ls >> width >> height) || width <= 0 || height <= 0) {
        fail(lineno, "malformed die directive");
      }
    } else if (directive == "node") {
      Node n;
      if (!(ls >> n.name >> n.position.x >> n.position.y)) {
        fail(lineno, "malformed node directive");
      }
      if (n.position.x < 0 || n.position.y < 0) {
        fail(lineno, "negative coordinate: " + where(n));
      }
      const auto [named, fresh_name] = line_of_name.emplace(n.name, lineno);
      if (!fresh_name) {
        fail(lineno, "duplicate node name '" + n.name + "' (first on line " +
                         std::to_string(named->second) + ")");
      }
      const auto [placed, fresh_spot] =
          node_at.emplace(std::make_pair(n.position.x, n.position.y),
                          nodes.size());
      if (!fresh_spot) {
        fail(lineno, "coincident nodes: " + where(n) + " coincides with '" +
                         nodes[placed->second].name + "' (line " +
                         std::to_string(node_lines[placed->second]) + ")");
      }
      nodes.push_back(std::move(n));
      node_lines.push_back(lineno);
    } else {
      fail(lineno, "unknown directive '" + directive + "'");
    }
  }
  if (nodes.empty()) throw std::invalid_argument("floorplan has no nodes");
  if (width == 0 || height == 0) {
    // Derive the die from the node bounding box with a one-pitch margin.
    geom::Coord max_x = 0, max_y = 0;
    for (const Node& n : nodes) {
      max_x = std::max(max_x, n.position.x);
      max_y = std::max(max_y, n.position.y);
    }
    width = max_x + 1000;
    height = max_y + 1000;
  } else {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].position.x > width || nodes[i].position.y > height) {
        fail(node_lines[i], "node outside the die: " + where(nodes[i]) +
                                " lies outside the declared " +
                                std::to_string(width) + " x " +
                                std::to_string(height) + " die");
      }
    }
  }
  return Floorplan(std::move(nodes), width, height);
}

Floorplan load_floorplan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open floorplan file: " + path);
  return read_floorplan(in);
}

void write_floorplan(const Floorplan& floorplan, std::ostream& out) {
  out << "# xring floorplan: " << floorplan.size() << " nodes\n";
  out << "die " << floorplan.die_width() << " " << floorplan.die_height()
      << "\n";
  for (const Node& n : floorplan.nodes()) {
    out << "node " << n.name << " " << n.position.x << " " << n.position.y
        << "\n";
  }
}

void save_floorplan(const Floorplan& floorplan, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write floorplan file: " + path);
  write_floorplan(floorplan, out);
}

}  // namespace xring::netlist
