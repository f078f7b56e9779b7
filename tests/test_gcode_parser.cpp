// Tests for G-code parsing, serialization and the Program model.
#include <gtest/gtest.h>

#include "gcode/parser.hpp"
#include "gcode/program.hpp"

namespace nsync::gcode {
namespace {

TEST(ParseLine, BasicLinearMove) {
  const Command c = parse_line("G1 X10.5 Y-2 E0.4 F1800");
  EXPECT_EQ(c.type, CommandType::kLinearMove);
  ASSERT_TRUE(c.x && c.y && c.e && c.f);
  EXPECT_DOUBLE_EQ(*c.x, 10.5);
  EXPECT_DOUBLE_EQ(*c.y, -2.0);
  EXPECT_DOUBLE_EQ(*c.e, 0.4);
  EXPECT_DOUBLE_EQ(*c.f, 1800.0);
  EXPECT_FALSE(c.z);
  EXPECT_TRUE(c.is_move());
  EXPECT_TRUE(c.has_extrusion());
}

TEST(ParseLine, RapidMoveAndHome) {
  EXPECT_EQ(parse_line("G0 Z5").type, CommandType::kRapidMove);
  EXPECT_EQ(parse_line("G28").type, CommandType::kHome);
  EXPECT_EQ(parse_line("G28 X Y").type, CommandType::kHome);  // bare axes ok
}

TEST(ParseLine, ThermalAndFanCodes) {
  const Command hot = parse_line("M104 S205");
  EXPECT_EQ(hot.type, CommandType::kSetHotendTemp);
  EXPECT_DOUBLE_EQ(*hot.s, 205.0);
  EXPECT_EQ(parse_line("M109 S205").type, CommandType::kWaitHotendTemp);
  EXPECT_EQ(parse_line("M140 S60").type, CommandType::kSetBedTemp);
  EXPECT_EQ(parse_line("M190 S60").type, CommandType::kWaitBedTemp);
  const Command fan = parse_line("M106 S128");
  EXPECT_EQ(fan.type, CommandType::kFanOn);
  EXPECT_DOUBLE_EQ(*fan.s, 128.0);
  EXPECT_EQ(parse_line("M107").type, CommandType::kFanOff);
}

TEST(ParseLine, DwellWithMillisecondsAndSeconds) {
  const Command p = parse_line("G4 P500");
  EXPECT_EQ(p.type, CommandType::kDwell);
  EXPECT_DOUBLE_EQ(*p.p, 500.0);
  const Command s = parse_line("G4 S2");
  EXPECT_DOUBLE_EQ(*s.s, 2.0);
}

TEST(ParseLine, CommentsAndBlankLines) {
  const Command pure = parse_line("; hello world");
  EXPECT_EQ(pure.type, CommandType::kComment);
  EXPECT_EQ(pure.text, "hello world");

  const Command trailing = parse_line("G1 X1 ; move right");
  EXPECT_EQ(trailing.type, CommandType::kLinearMove);
  EXPECT_DOUBLE_EQ(*trailing.x, 1.0);

  const Command blank = parse_line("   ");
  EXPECT_EQ(blank.type, CommandType::kComment);
  EXPECT_TRUE(blank.text.empty());
}

TEST(ParseLine, ImplicitG1FromCoordinateWords) {
  const Command c = parse_line("X5 Y6");
  EXPECT_EQ(c.type, CommandType::kLinearMove);
  EXPECT_DOUBLE_EQ(*c.x, 5.0);
}

TEST(ParseLine, UnknownCodesPreserved) {
  const Command c = parse_line("M82");
  EXPECT_EQ(c.type, CommandType::kOther);
  EXPECT_EQ(c.text, "M82");
}

TEST(ParseLine, MalformedNumbersThrow) {
  EXPECT_THROW(parse_line("G1 X1.2.3"), std::invalid_argument);
  EXPECT_THROW(parse_line("G1 Xabc"), std::invalid_argument);
}

TEST(ParseProgram, MultilineWithLineNumbers) {
  const Program p = parse_program("G28\nG1 X1 Y1 F1200\n; layer done\r\nM107");
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0].type, CommandType::kHome);
  EXPECT_EQ(p[1].line, 2u);
  EXPECT_EQ(p[2].type, CommandType::kComment);
  EXPECT_EQ(p[3].type, CommandType::kFanOff);
}

TEST(ParseProgram, SkipsEmptyLines) {
  const Program p = parse_program("\n\nG28\n\n\nG1 X1\n");
  EXPECT_EQ(p.size(), 2u);
}

TEST(Serialization, RoundTripPreservesSemantics) {
  const char* source =
      "G28\n"
      "G92 E0.00000\n"
      "G1 X10.00000 Y20.00000 E1.50000 F1800.00000\n"
      "G4 P250.00000\n"
      "M106 S255.00000\n"
      ";LAYER:3\n";
  const Program p1 = parse_program(source);
  const std::string text = to_gcode(p1);
  const Program p2 = parse_program(text);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].type, p2[i].type) << "command " << i;
    EXPECT_EQ(p1[i].x.has_value(), p2[i].x.has_value());
    if (p1[i].x) {
      EXPECT_NEAR(*p1[i].x, *p2[i].x, 1e-5);
    }
    if (p1[i].e) {
      EXPECT_NEAR(*p1[i].e, *p2[i].e, 1e-5);
    }
    if (p1[i].f) {
      EXPECT_NEAR(*p1[i].f, *p2[i].f, 1e-5);
    }
  }
}

TEST(ProgramStats, CountsMovesAndExtrusion) {
  const Program p = parse_program(
      "G28\n"
      "G1 X10 Y0 F1200\n"      // travel 10 mm
      "G1 X10 Y10 E1.0\n"      // extrude 10 mm
      "G1 X0 Y10 E2.0\n");     // extrude 10 mm
  const ProgramStats st = p.stats();
  EXPECT_EQ(st.moves, 3u);
  EXPECT_EQ(st.extruding_moves, 2u);
  EXPECT_NEAR(st.total_xy_travel, 30.0, 1e-9);
  EXPECT_NEAR(st.total_extrusion, 2.0, 1e-9);
  EXPECT_NEAR(st.max_x, 10.0, 1e-9);
}

TEST(ProgramStats, SetPositionDoesNotTravel) {
  const Program p = parse_program("G92 X100 Y100\nG1 X101 Y100\n");
  const ProgramStats st = p.stats();
  EXPECT_NEAR(st.total_xy_travel, 1.0, 1e-9);
}

TEST(LayerStarts, PrefersLayerComments) {
  const Program p = parse_program(
      ";LAYER:0\nG1 Z0.2\nG1 X5 E1\n;LAYER:1\nG1 Z0.4\nG1 X0 E2\n");
  const auto starts = p.layer_starts();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(starts[1], 3u);
}

TEST(LayerStarts, FallsBackToZChanges) {
  const Program p = parse_program(
      "G1 Z0.2\nG1 X5 E1\nG1 Z0.4\nG1 X0 E2\nG1 Z0.4\n");
  const auto starts = p.layer_starts();
  ASSERT_EQ(starts.size(), 2u);  // the repeated Z0.4 is not a new layer
}

}  // namespace
}  // namespace nsync::gcode
