#include "phys/parameters_io.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>

namespace xring::phys {

namespace {

/// Key table: one entry per tunable coefficient. Reading and writing share
/// it, so the two can never drift apart.
std::map<std::string, std::function<double&(Parameters&)>> key_table() {
  using F = std::function<double&(Parameters&)>;
  std::map<std::string, F> keys;
  keys["loss.propagation_db_per_mm"] = [](Parameters& p) -> double& {
    return p.loss.propagation_db_per_mm;
  };
  keys["loss.drop_db"] = [](Parameters& p) -> double& { return p.loss.drop_db; };
  keys["loss.through_db"] = [](Parameters& p) -> double& {
    return p.loss.through_db;
  };
  keys["loss.crossing_db"] = [](Parameters& p) -> double& {
    return p.loss.crossing_db;
  };
  keys["loss.bend_db"] = [](Parameters& p) -> double& { return p.loss.bend_db; };
  keys["loss.photodetector_db"] = [](Parameters& p) -> double& {
    return p.loss.photodetector_db;
  };
  keys["loss.splitter_excess_db"] = [](Parameters& p) -> double& {
    return p.loss.splitter_excess_db;
  };
  keys["loss.modulator_db"] = [](Parameters& p) -> double& {
    return p.loss.modulator_db;
  };
  keys["loss.receiver_sensitivity_dbm"] = [](Parameters& p) -> double& {
    return p.loss.receiver_sensitivity_dbm;
  };
  keys["loss.coupler_db"] = [](Parameters& p) -> double& {
    return p.loss.coupler_db;
  };
  keys["loss.laser_wall_plug_efficiency"] = [](Parameters& p) -> double& {
    return p.loss.laser_wall_plug_efficiency;
  };
  keys["crosstalk.crossing_db"] = [](Parameters& p) -> double& {
    return p.crosstalk.crossing_db;
  };
  keys["crosstalk.mrr_through_db"] = [](Parameters& p) -> double& {
    return p.crosstalk.mrr_through_db;
  };
  keys["crosstalk.mrr_drop_residue_db"] = [](Parameters& p) -> double& {
    return p.crosstalk.mrr_drop_residue_db;
  };
  keys["crosstalk.noise_floor_mw"] = [](Parameters& p) -> double& {
    return p.crosstalk.noise_floor_mw;
  };
  keys["crosstalk.snr_warn_db"] = [](Parameters& p) -> double& {
    return p.crosstalk.snr_warn_db;
  };
  keys["geometry.modulator_um"] = [](Parameters& p) -> double& {
    return p.geometry.modulator_um;
  };
  keys["geometry.splitter_um"] = [](Parameters& p) -> double& {
    return p.geometry.splitter_um;
  };
  return keys;
}

std::invalid_argument line_error(int lineno, const std::string& what) {
  return std::invalid_argument("line " + std::to_string(lineno) + ": " + what);
}

/// The whole token as a finite number; `0.5x`, `nan` and `inf` are errors.
double parse_number(const std::string& value, const std::string& key,
                    int lineno) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(v)) {
    throw line_error(lineno, "'" + key + "' must be a finite number, got '" +
                                 value + "'");
  }
  return v;
}

/// Range rules: loss magnitudes are non-negative dB (the receiver
/// sensitivity is a power level, not a loss) and the laser's wall-plug
/// efficiency is a fraction in (0, 1] — 0 would make the laser power
/// infinite.
void check_range(const std::string& key, double v, int lineno) {
  if (key == "loss.laser_wall_plug_efficiency") {
    if (!(v > 0.0 && v <= 1.0)) {
      throw line_error(lineno, "'" + key + "' must be in (0, 1]");
    }
  } else if (key.rfind("loss.", 0) == 0 &&
             key != "loss.receiver_sensitivity_dbm" && v < 0.0) {
    throw line_error(lineno, "'" + key + "' must be >= 0");
  }
}

}  // namespace

Parameters read_parameters(std::istream& in, Parameters base) {
  const auto keys = key_table();
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      // Only whitespace may remain.
      if (line.find_first_not_of(" \t\r") != std::string::npos) {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": expected key = value");
      }
      continue;
    }
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t\r");
      const auto e = s.find_last_not_of(" \t\r");
      return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
    };
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));

    if (key == "crosstalk.residue_filter") {
      if (value != "true" && value != "false" && value != "1" &&
          value != "0") {
        throw line_error(lineno, "'" + key +
                                     "' must be true, false, 1 or 0, got '" +
                                     value + "'");
      }
      base.crosstalk.residue_filter = value == "true" || value == "1";
      continue;
    }
    const auto it = keys.find(key);
    if (it == keys.end()) {
      throw line_error(lineno, "unknown parameter '" + key + "'");
    }
    const double v = parse_number(value, key, lineno);
    check_range(key, v, lineno);
    it->second(base) = v;
  }
  return base;
}

Parameters load_parameters(const std::string& path, Parameters base) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open parameter file: " + path);
  return read_parameters(in, base);
}

void write_parameters(const Parameters& params, std::ostream& out) {
  out << "# xring device parameters\n";
  // Enough digits that reading the file back restores every value bit for
  // bit.
  const auto precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  Parameters copy = params;
  for (const auto& [key, access] : key_table()) {
    out << key << " = " << access(copy) << "\n";
  }
  out << "crosstalk.residue_filter = "
      << (params.crosstalk.residue_filter ? "true" : "false") << "\n";
  out.precision(precision);
}

void save_parameters(const Parameters& params, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write parameter file: " + path);
  write_parameters(params, out);
}

}  // namespace xring::phys
