// Tests for the report/visualization layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/apps/npb.hpp"
#include "src/core/report.hpp"
#include "src/core/report_json.hpp"
#include "src/obs/journal.hpp"
#include "src/sim/runtime.hpp"

namespace vapro::core {
namespace {

struct SessionFixture : public ::testing::Test {
  sim::SimConfig make_config() {
    sim::SimConfig cfg;
    cfg.ranks = 16;
    cfg.cores_per_node = 8;
    cfg.seed = 3;
    sim::NoiseSpec noise;
    noise.kind = sim::NoiseKind::kSlowDram;
    noise.node = 1;
    noise.magnitude = 3.0;
    cfg.noises.push_back(noise);
    return cfg;
  }
};

TEST_F(SessionFixture, ReportContainsEverySection) {
  sim::Simulator simulator(make_config());
  VaproOptions opts;
  opts.window_seconds = 0.1;
  VaproSession session(simulator, opts);
  apps::NpbParams p;
  p.iters = 40;
  simulator.run(apps::cg(p));

  std::string report = render_report(session);
  EXPECT_NE(report.find("# Vapro report"), std::string::npos);
  EXPECT_NE(report.find("## computation"), std::string::npos);
  EXPECT_NE(report.find("## communication"), std::string::npos);
  EXPECT_NE(report.find("## io"), std::string::npos);
  EXPECT_NE(report.find("## diagnosis"), std::string::npos);
  EXPECT_NE(report.find("loss%"), std::string::npos);
  // The slow node must appear as a region row (ranks 8-15).
  EXPECT_NE(report.find("8-15"), std::string::npos);
}

TEST_F(SessionFixture, AnsiRenderEmitsColorCodes) {
  sim::Simulator simulator(make_config());
  VaproOptions opts;
  opts.window_seconds = 0.1;
  VaproSession session(simulator, opts);
  apps::NpbParams p;
  p.iters = 30;
  simulator.run(apps::cg(p));

  std::string ansi = render_ansi(session.computation_map());
  EXPECT_NE(ansi.find("\x1b[48;5;"), std::string::npos);
  EXPECT_NE(ansi.find("\x1b[0m"), std::string::npos);

  ReportOptions ropts;
  ropts.ansi_color = true;
  std::string report = render_report(session, ropts);
  EXPECT_NE(report.find("\x1b["), std::string::npos);
}

TEST_F(SessionFixture, CsvBundleWritesThreeFiles) {
  sim::Simulator simulator(make_config());
  VaproOptions opts;
  opts.window_seconds = 0.1;
  VaproSession session(simulator, opts);
  apps::NpbParams p;
  p.iters = 20;
  simulator.run(apps::cg(p));

  EXPECT_EQ(write_csv_bundle(session, "/tmp"), 3);
  for (const char* name :
       {"/tmp/computation.csv", "/tmp/communication.csv", "/tmp/io.csv"}) {
    std::ifstream in(name);
    EXPECT_TRUE(in.good()) << name;
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("rank"), std::string::npos) << name;
    std::remove(name);
  }
}

TEST_F(SessionFixture, CsvBundleCreatesAMissingDirectory) {
  sim::Simulator simulator(make_config());
  VaproOptions opts;
  opts.window_seconds = 0.1;
  VaproSession session(simulator, opts);
  apps::NpbParams p;
  p.iters = 20;
  simulator.run(apps::cg(p));

  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "csv_bundle_missing";
  std::filesystem::remove_all(root);
  const std::filesystem::path dir = root / "nested" / "dir";
  EXPECT_EQ(write_csv_bundle(session, dir.string()), 3);
  for (const char* name : {"computation.csv", "communication.csv", "io.csv"}) {
    std::ifstream in(dir / name);
    EXPECT_TRUE(in.good()) << name;
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("rank"), std::string::npos) << name;
  }
  std::filesystem::remove_all(root);
}

TEST_F(SessionFixture, JsonReportIsWellFormedAndComplete) {
  sim::Simulator simulator(make_config());
  VaproOptions opts;
  opts.window_seconds = 0.1;
  VaproSession session(simulator, opts);
  apps::NpbParams p;
  p.iters = 40;
  auto result = simulator.run(apps::cg(p));
  double total = 0;
  for (double t : result.finish_times) total += t;

  std::string json = report_json(session, total);
  // Structural sanity: balanced braces/brackets, expected keys.
  int braces = 0, brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  for (const char* key :
       {"\"fragments\"", "\"coverage\"", "\"regions\"",
        "\"computation\"", "\"diagnosis\"", "\"culprits\"",
        "\"rank_lo\"", "\"mean_perf\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The slow node region appears with its true bounds.
  EXPECT_NE(json.find("\"rank_lo\":8"), std::string::npos);
}

// vapro_run --json's regions and /v1/variance's come from one writer: the
// same bytes, every double at full precision.
TEST_F(SessionFixture, JsonReportRegionsAreTheLiveVarianceRegions) {
  sim::Simulator simulator(make_config());
  VaproOptions opts;
  opts.window_seconds = 0.1;
  VaproSession session(simulator, opts);
  apps::NpbParams p;
  p.iters = 40;
  simulator.run(apps::cg(p));

  // The "regions" object, from its opening brace to the matching close.
  auto regions_of = [](const std::string& json) {
    const std::size_t begin = json.find("\"regions\":{");
    if (begin == std::string::npos) return std::string();
    int depth = 0;
    for (std::size_t i = begin + 10; i < json.size(); ++i) {
      if (json[i] == '{') ++depth;
      if (json[i] == '}' && --depth == 0)
        return json.substr(begin + 10, i - begin - 9);
    }
    return std::string();
  };
  const std::string regions = regions_of(report_json(session));
  ASSERT_FALSE(regions.empty());
  EXPECT_EQ(regions, regions_of(session.server().render_variance_json()));

  const std::vector<VarianceRegion> located =
      session.locate(FragmentKind::kComputation);
  ASSERT_FALSE(located.empty());
  const std::string key = "\"mean_perf\":";
  const std::size_t at = regions.find(key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::strtod(regions.c_str() + at + key.size(), nullptr),
            located.front().mean_perf);
}

TEST(ReportJson, EscapesSpecialCharacters) {
  // report_json escapes its strings with the journal's escaper.
  using obs::journal_json_escape;
  EXPECT_EQ(journal_json_escape("plain"), "plain");
  EXPECT_EQ(journal_json_escape("a\"b\""), "a\\\"b\\\"");
  EXPECT_EQ(journal_json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(journal_json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(journal_json_escape("\x01"), "\\u0001");
}

TEST(Report, EmptySessionRendersGracefully) {
  sim::SimConfig cfg;
  cfg.ranks = 2;
  sim::Simulator simulator(cfg);
  VaproSession session(simulator, VaproOptions{});
  // No run at all: report should still produce valid text.
  std::string report = render_report(session);
  EXPECT_NE(report.find("fragments recorded: 0"), std::string::npos);
  EXPECT_NE(report.find("no variance regions"), std::string::npos);
}

}  // namespace
}  // namespace vapro::core
