// Every prtr-bench figure, run in-process the way prtr-bench runs it: at
// --threads 1 with --json and --profile. The report must parse as a bench
// document carrying at least one table or figure scalar, and the profile
// must time the run as the `bench.<figure>` phase.
#include <gtest/gtest.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench/figures.hpp"
#include "prof/regression.hpp"
#include "util/json.hpp"

namespace prtr::bench {
namespace {

class BenchFigures : public testing::TestWithParam<Figure> {};

}  // namespace

// Names the figure in gtest output instead of dumping its bytes.
void PrintTo(const Figure& figure, std::ostream* out) { *out << figure.name; }

namespace {

TEST_P(BenchFigures, WritesReportAndProfile) {
  const Figure& figure = GetParam();
  const std::string name{figure.name};
  const std::string json = testing::TempDir() + "figure_" + name + ".json";
  const std::string profile =
      testing::TempDir() + "figure_" + name + "_profile.json";
  const char* argv[] = {"prtr-bench", name.c_str(),  "--threads",
                        "1",          "--json",      json.c_str(),
                        "--profile",  profile.c_str()};
  const Options options = Options::parse("prtr-bench", 8, argv);

  std::ostringstream stdoutText;
  std::streambuf* const saved = std::cout.rdbuf(stdoutText.rdbuf());
  const int code = runFigure(figure, options);
  std::cout.rdbuf(saved);
  EXPECT_EQ(code, 0);
  EXPECT_FALSE(stdoutText.str().empty());

  const prof::BenchDoc doc = prof::BenchDoc::parseFile(json);
  EXPECT_EQ(doc.bench, name);
  ASSERT_NE(doc.findScalar("threads"), nullptr);
  EXPECT_EQ(*doc.findScalar("threads"), 1.0);
  EXPECT_TRUE(!doc.tables.empty() || doc.scalars.size() > 1)
      << "no table and no scalar beyond threads";

  std::ifstream in{profile};
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const util::json::Value parsed = util::json::Value::parse(text.str());
  const util::json::Value* phases = parsed.find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_NE(phases->find("bench." + name), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Registry, BenchFigures, testing::ValuesIn(figures()),
                         [](const testing::TestParamInfo<Figure>& param) {
                           return std::string{param.param.name};
                         });

TEST(BenchFigureRegistry, NamesAreUniqueAndFindable) {
  for (const Figure& figure : figures()) {
    EXPECT_EQ(findFigure(figure.name), &figure) << figure.name;
    EXPECT_FALSE(figure.summary.empty()) << figure.name;
  }
  EXPECT_EQ(findFigure("all"), nullptr);
  EXPECT_EQ(findFigure("bench_table1"), nullptr);
}

}  // namespace
}  // namespace prtr::bench
