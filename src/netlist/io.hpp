#pragma once

#include <iosfwd>
#include <string>

#include "netlist/floorplan.hpp"

namespace xring::netlist {

/// Plain-text floorplan format, one directive per line:
///
///   # comment
///   die <width_um> <height_um>
///   node <name> <x_um> <y_um>
///
/// Node ids are assigned in file order. The format is deliberately trivial
/// so floorplans can be written by hand or emitted by other tools.
///
/// Throws std::invalid_argument, naming the offending line and the rule, on
/// a malformed or unknown directive, a duplicate node name, two nodes at
/// the same position, a negative coordinate, or a node outside the
/// declared die (the die may be declared anywhere in the file; without one
/// it is derived from the nodes' bounding box).
Floorplan read_floorplan(std::istream& in);
Floorplan load_floorplan(const std::string& path);

void write_floorplan(const Floorplan& floorplan, std::ostream& out);
void save_floorplan(const Floorplan& floorplan, const std::string& path);

}  // namespace xring::netlist
