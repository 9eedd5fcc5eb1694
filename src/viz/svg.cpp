#include "viz/svg.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "geom/closed_path.hpp"
#include "geom/offset.hpp"

namespace xring::viz {

namespace {

/// Categorical palette for nested ring waveguides.
const char* kRingColors[] = {"#1f77b4", "#d62728", "#2ca02c",
                             "#9467bd", "#ff7f0e", "#8c564b"};

constexpr double kPixelsPerMm = 60.0;
constexpr double kMarginMm = 1.5;
constexpr double kScale = kPixelsPerMm / 1000.0;  // µm -> px
constexpr double kMarginPx = kMarginMm * kPixelsPerMm;
/// Nested ring copies are offset visually by this many millimetres so the
/// waveguide stack is readable (physical spacing is much smaller).
constexpr double kRingOffsetMm = 0.25;
/// Cap on rendered ring waveguides (a 32-node design can have a dozen).
constexpr int kMaxWaveguides = 6;

class SvgWriter {
 public:
  SvgWriter(const analysis::RouterDesign& design, std::ostream& out)
      : d_(design), out_(out) {}

  void run() {
    const auto& fp = *d_.floorplan;
    const double w = fp.die_width() * kScale + 2 * kMarginPx;
    const double h = fp.die_height() * kScale + 2 * kMarginPx;
    out_ << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w
         << "\" height=\"" << h << "\" viewBox=\"0 0 " << w << " " << h
         << "\">\n";
    out_ << "<rect x=\"0\" y=\"0\" width=\"" << w << "\" height=\"" << h
         << "\" fill=\"#fcfcf8\"/>\n";
    die_outline();
    rings();
    pdn();
    shortcuts();
    nodes();
    out_ << "</svg>\n";
  }

 private:
  double x(geom::Coord um) const { return um * kScale + kMarginPx; }
  double y(geom::Coord um) const {
    // SVG y grows downward; flip so the layout reads like the paper's
    // figures.
    return (d_.floorplan->die_height() - um) * kScale + kMarginPx;
  }

  void die_outline() {
    out_ << "<rect x=\"" << kMarginPx << "\" y=\"" << kMarginPx
         << "\" width=\"" << d_.floorplan->die_width() * kScale
         << "\" height=\"" << d_.floorplan->die_height() * kScale
         << "\" fill=\"none\" stroke=\"#999\" stroke-dasharray=\"6 4\"/>\n";
  }

  void polyline_path(const geom::Polyline& line, double dx, double dy,
                     const char* color, double width, const char* dash) {
    out_ << "<path d=\"";
    bool first = true;
    for (const geom::Segment& s : line.segments()) {
      if (first || last_ != s.a) {
        out_ << "M" << x(s.a.x) + dx << " " << y(s.a.y) + dy << " ";
      }
      out_ << "L" << x(s.b.x) + dx << " " << y(s.b.y) + dy << " ";
      last_ = s.b;
      first = false;
    }
    out_ << "\" fill=\"none\" stroke=\"" << color << "\" stroke-width=\""
         << width << "\"";
    if (dash != nullptr) out_ << " stroke-dasharray=\"" << dash << "\"";
    out_ << "/>\n";
  }

  void rings() {
    const int shown = std::min<int>(
        kMaxWaveguides, static_cast<int>(d_.mapping.waveguides.size()));
    // Prefer the exact offset geometry (nested copies of the ring); fall
    // back to a visual diagonal shift when the base curve is not simple
    // (collinear overlaps make offsetting ill-defined).
    for (int w = shown - 1; w >= 0; --w) {
      const geom::Coord off_um = static_cast<geom::Coord>(
          (w + 1) * kRingOffsetMm * 1000.0 / shown);
      const char* color = kRingColors[w % 6];
      bool drew_exact = false;
      try {
        const geom::Polyline ring =
            geom::offset_closed(d_.ring.polyline, off_um, /*inward=*/false);
        polyline_path(ring, 0, 0, color, 1.4, nullptr);
        drew_exact = true;
      } catch (const std::invalid_argument&) {
        const double off = off_um * kScale;
        polyline_path(d_.ring.polyline, off, -off, color, 1.4, nullptr);
      }
      if (d_.mapping.waveguides[w].opening >= 0) {
        const geom::Point p =
            d_.floorplan->position(d_.mapping.waveguides[w].opening);
        const double off = drew_exact ? 0.0 : off_um * kScale;
        out_ << "<circle cx=\"" << x(p.x) + off << "\" cy=\"" << y(p.y) - off
             << "\" r=\"4\" fill=\"#fcfcf8\" stroke=\"" << color
             << "\" stroke-width=\"1.2\"/>\n";
      }
    }
  }

  void pdn() {
    if (!d_.has_pdn || d_.pdn.tree_edges.empty()) return;
    const int shown = std::min<int>(
        kMaxWaveguides, static_cast<int>(d_.mapping.waveguides.size()));
    const ring::Tour& tour = d_.ring.tour;
    const geom::Coord base_len = d_.ring.polyline.length();
    if (base_len <= 0) return;

    for (const pdn::TreeEdge& edge : d_.pdn.tree_edges) {
      if (edge.waveguide >= shown) continue;
      const mapping::RingWaveguide& wg = d_.mapping.waveguides[edge.waveguide];
      if (wg.opening < 0) continue;

      // Channel offset: halfway between this ring copy and the next.
      const geom::Coord off_um = static_cast<geom::Coord>(
          (edge.waveguide + 1.5) * kRingOffsetMm * 1000.0 / shown);
      geom::Polyline channel_line;
      try {
        channel_line = geom::offset_closed(d_.ring.polyline, off_um, false);
      } catch (const std::invalid_argument&) {
        return;  // non-simple base curve: skip PDN drawing entirely
      }
      const geom::ClosedPath channel(channel_line);

      // Arc of the opening node on the base ring.
      geom::Coord arc0 = 0;
      for (int p = 0; p < tour.position(wg.opening); ++p) {
        arc0 += tour.hop_length(p);
      }
      const double ratio = static_cast<double>(channel.length()) / base_len;
      auto to_channel_arc = [&](double rel_um) {
        const double abs_um = wg.dir == mapping::Direction::kCw
                                  ? arc0 + rel_um
                                  : arc0 - rel_um;
        return static_cast<geom::Coord>(abs_um * ratio);
      };
      geom::Coord from = to_channel_arc(edge.from_arc_um);
      geom::Coord to = to_channel_arc(edge.to_arc_um);
      if (wg.dir == mapping::Direction::kCcw) std::swap(from, to);
      polyline_path(channel.subpath(from, to), 0, 0, "#2ca02c", 1.0, "2 2");
    }
  }

  void shortcuts() {
    for (const shortcut::Shortcut& s : d_.shortcuts.shortcuts) {
      const geom::LRoute chord(d_.floorplan->position(s.a),
                               d_.floorplan->position(s.b), s.order);
      geom::Polyline line;
      line.append(chord);
      const bool crossed = s.crossing_partner >= 0;
      polyline_path(line, 0, 0, crossed ? "#e377c2" : "#17becf", 1.8,
                    crossed ? nullptr : "4 3");
      if (crossed && s.crossing) {
        out_ << "<circle cx=\"" << x(s.crossing->x) << "\" cy=\""
             << y(s.crossing->y)
             << "\" r=\"3.5\" fill=\"#e377c2\"/>\n";  // the CSE
      }
    }
  }

  void nodes() {
    for (const netlist::Node& n : d_.floorplan->nodes()) {
      out_ << "<circle cx=\"" << x(n.position.x) << "\" cy=\""
           << y(n.position.y)
           << "\" r=\"5\" fill=\"#333\" stroke=\"#fff\"/>\n";
      out_ << "<text x=\"" << x(n.position.x) + 7 << "\" y=\""
           << y(n.position.y) - 7
           << "\" font-family=\"sans-serif\" font-size=\"11\">" << n.name
           << "</text>\n";
    }
  }

  const analysis::RouterDesign& d_;
  std::ostream& out_;
  geom::Point last_{};
};

}  // namespace

void write_svg(const analysis::RouterDesign& design, std::ostream& out) {
  if (design.floorplan == nullptr) {
    throw std::invalid_argument("design has no floorplan attached");
  }
  SvgWriter(design, out).run();
}

void save_svg(const analysis::RouterDesign& design, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write SVG file: " + path);
  write_svg(design, out);
}

}  // namespace xring::viz
