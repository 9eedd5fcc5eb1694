#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "phys/parameters_io.hpp"

namespace xring::phys {
namespace {

TEST(ParametersIo, RoundTrip) {
  Parameters p = Parameters::oring();
  p.loss.crossing_db = 0.123;
  p.crosstalk.crossing_db = -37.5;
  p.crosstalk.residue_filter = false;
  p.geometry.splitter_um = 33.0;

  std::stringstream buf;
  write_parameters(p, buf);
  const Parameters q = read_parameters(buf, Parameters::proton_plus());
  EXPECT_DOUBLE_EQ(q.loss.crossing_db, 0.123);
  EXPECT_DOUBLE_EQ(q.crosstalk.crossing_db, -37.5);
  EXPECT_FALSE(q.crosstalk.residue_filter);
  EXPECT_DOUBLE_EQ(q.geometry.splitter_um, 33.0);
  EXPECT_DOUBLE_EQ(q.loss.drop_db, p.loss.drop_db);
}

TEST(ParametersIo, PartialFileKeepsBase) {
  std::istringstream in(
      "# only one change\n"
      "loss.drop_db = 1.25\n");
  const Parameters p = read_parameters(in, Parameters::oring());
  EXPECT_DOUBLE_EQ(p.loss.drop_db, 1.25);
  EXPECT_DOUBLE_EQ(p.loss.through_db, Parameters::oring().loss.through_db);
}

TEST(ParametersIo, CommentsAndWhitespaceTolerated) {
  std::istringstream in(
      "\n"
      "   # header comment\n"
      "  loss.bend_db   =   0.009   # trailing\n"
      "\n");
  const Parameters p = read_parameters(in);
  EXPECT_DOUBLE_EQ(p.loss.bend_db, 0.009);
}

TEST(ParametersIo, UnknownKeyRejected) {
  std::istringstream in("loss.tyop_db = 1\n");
  EXPECT_THROW(read_parameters(in), std::invalid_argument);
}

TEST(ParametersIo, MalformedLinesRejected) {
  {
    std::istringstream in("loss.drop_db 0.5\n");
    EXPECT_THROW(read_parameters(in), std::invalid_argument);
  }
  {
    std::istringstream in("loss.drop_db = banana\n");
    EXPECT_THROW(read_parameters(in), std::invalid_argument);
  }
}

TEST(ParametersIo, BooleanFilterParses) {
  for (const char* v : {"true", "1"}) {
    std::istringstream in(std::string("crosstalk.residue_filter = ") + v);
    EXPECT_TRUE(read_parameters(in).crosstalk.residue_filter);
  }
  std::istringstream in("crosstalk.residue_filter = false");
  EXPECT_FALSE(read_parameters(in).crosstalk.residue_filter);
}

/// The std::invalid_argument message read_parameters throws on `text`, or
/// "accepted" when it parses.
std::string rejection(const std::string& text) {
  std::istringstream in(text);
  try {
    read_parameters(in);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(ParametersIo, RejectsNumbersWithTrailingText) {
  for (const char* v : {"0.5x", "0.5 0.6", "1e", "0x", ""}) {
    const std::string msg =
        rejection(std::string("# header\nloss.drop_db = ") + v + "\n");
    EXPECT_NE(msg.find("line 2: 'loss.drop_db' must be a finite number"),
              std::string::npos)
        << v << ": " << msg;
  }
}

TEST(ParametersIo, RejectsNonFiniteNumbers) {
  for (const char* v : {"nan", "inf", "-inf", "1e999"}) {
    const std::string msg = rejection(std::string("crosstalk.crossing_db = ") + v);
    EXPECT_NE(msg.find("line 1: 'crosstalk.crossing_db' must be a finite number"),
              std::string::npos)
        << v << ": " << msg;
  }
}

TEST(ParametersIo, RejectsNegativeLossMagnitudes) {
  EXPECT_EQ(rejection("loss.crossing_db = -0.1"),
            "line 1: 'loss.crossing_db' must be >= 0");
  EXPECT_EQ(rejection("loss.crossing_db = 0"), "accepted");
  // The receiver sensitivity is a power level in dBm, negative by nature;
  // crosstalk coefficients are negative dB ratios.
  EXPECT_EQ(rejection("loss.receiver_sensitivity_dbm = -30"), "accepted");
  EXPECT_EQ(rejection("crosstalk.mrr_through_db = -30"), "accepted");
}

TEST(ParametersIo, RejectsWallPlugEfficiencyOutsideUnitInterval) {
  for (const char* v : {"0", "-0.1", "1.5"}) {
    EXPECT_EQ(rejection(std::string("loss.laser_wall_plug_efficiency = ") + v),
              "line 1: 'loss.laser_wall_plug_efficiency' must be in (0, 1]")
        << v;
  }
  std::istringstream in("loss.laser_wall_plug_efficiency = 1");
  EXPECT_DOUBLE_EQ(read_parameters(in).loss.laser_wall_plug_efficiency, 1.0);
}

TEST(ParametersIo, RejectsNonBooleanResidueFilter) {
  for (const char* v : {"yes", "on", "TRUE", "2", ""}) {
    EXPECT_EQ(rejection(std::string("crosstalk.residue_filter = ") + v),
              std::string("line 1: 'crosstalk.residue_filter' must be true, "
                          "false, 1 or 0, got '") +
                  v + "'");
  }
  std::istringstream in("crosstalk.residue_filter = 0");
  EXPECT_FALSE(read_parameters(in).crosstalk.residue_filter);
}

TEST(ParametersIo, RoundTripIsBitExact) {
  Parameters p = Parameters::oring();
  p.loss.propagation_db_per_mm = 0.027412345678901234;  // 17 digits
  p.crosstalk.noise_floor_mw = 1.0 / 3.0;
  p.geometry.modulator_um = 0.1 + 0.2;
  std::stringstream buf;
  write_parameters(p, buf);
  const Parameters q = read_parameters(buf, Parameters::proton_plus());
  EXPECT_EQ(q.loss.propagation_db_per_mm, p.loss.propagation_db_per_mm);
  EXPECT_EQ(q.crosstalk.noise_floor_mw, p.crosstalk.noise_floor_mw);
  EXPECT_EQ(q.geometry.modulator_um, p.geometry.modulator_um);
  EXPECT_EQ(q.loss.receiver_sensitivity_dbm, p.loss.receiver_sensitivity_dbm);
}

TEST(ParametersIo, MissingFileThrows) {
  EXPECT_THROW(load_parameters("/does/not/exist.params"), std::runtime_error);
}

}  // namespace
}  // namespace xring::phys
