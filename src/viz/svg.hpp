#pragma once

#include <iosfwd>
#include <string>

#include "analysis/design.hpp"

namespace xring::viz {

/// Renders a synthesized router as SVG: die outline, nodes and their
/// labels, the first six nested ring waveguides with their openings and
/// tree-PDN channels (Fig. 9's green lines), and the shortcut chords
/// (crossed pairs highlighted). Gives designers the Fig. 7/8/9-style view
/// of what the synthesis produced.
void write_svg(const analysis::RouterDesign& design, std::ostream& out);

/// Convenience: renders straight to a file.
void save_svg(const analysis::RouterDesign& design, const std::string& path);

}  // namespace xring::viz
