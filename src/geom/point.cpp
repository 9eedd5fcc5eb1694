#include "geom/point.hpp"

namespace xring::geom {

std::string to_string(const Point& p) {
  std::string out = "(";
  out += std::to_string(p.x);
  out += ", ";
  out += std::to_string(p.y);
  out += ')';
  return out;
}

}  // namespace xring::geom
