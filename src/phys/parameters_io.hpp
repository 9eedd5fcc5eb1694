#pragma once

#include <iosfwd>
#include <string>

#include "phys/parameters.hpp"

namespace xring::phys {

/// Plain-text parameter files, one `key = value` per line with `#` comments
/// — e.g.:
///
///   # device losses
///   loss.propagation_db_per_mm = 0.0274
///   loss.crossing_db           = 0.15
///   crosstalk.crossing_db      = -40
///   geometry.modulator_um      = 50
///
/// Unknown keys are an error (typos in loss coefficients silently skew
/// every result otherwise). Unlisted keys keep their preset values, so a
/// file only needs the coefficients it changes. Values parse strictly:
/// the whole token must be a finite number, `loss.*` magnitudes must be
/// >= 0 (except `loss.receiver_sensitivity_dbm`, a power level), the
/// wall-plug efficiency must lie in (0, 1], and `crosstalk.residue_filter`
/// takes only true/false/1/0. A violation throws std::invalid_argument
/// naming the line and the rule.
///
/// `write_parameters` prints max_digits10 significant digits, so a saved
/// file reads back bit for bit.
Parameters read_parameters(std::istream& in, Parameters base = Parameters::oring());
Parameters load_parameters(const std::string& path,
                           Parameters base = Parameters::oring());

void write_parameters(const Parameters& params, std::ostream& out);
void save_parameters(const Parameters& params, const std::string& path);

}  // namespace xring::phys
