#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "backbone/scenario_config.hpp"

namespace mvpn::backbone {
namespace {

const char* kMinimal = R"(
backbone p=1 pe=2 seed=3
vpn corp
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
flow cbr vpn=corp from=0 to=1 rate=200e3
run for=1
)";

TEST(ScenarioParse, MinimalScenario) {
  ScenarioError err;
  auto sc = Scenario::parse(kMinimal, &err);
  ASSERT_TRUE(sc.has_value()) << err.message;
  EXPECT_EQ(sc->vpn_count(), 1u);
  EXPECT_EQ(sc->site_count(), 2u);
  EXPECT_EQ(sc->flow_count(), 1u);
  EXPECT_DOUBLE_EQ(sc->run_seconds(), 1.0);
}

TEST(ScenarioParse, CommentsAndBlankLinesIgnored) {
  const std::string text = std::string("# leading comment\n\n") + kMinimal +
                           "# trailing comment\n";
  ScenarioError err;
  EXPECT_TRUE(Scenario::parse(text, &err).has_value()) << err.message;
}

TEST(ScenarioParse, AllDirectivesAccepted) {
  const char* text = R"(
backbone p=2 pe=2 core_bw=4e6 edge_bw=20e6 seed=7 bgp=rr rr=2 core_queue=drr:4,2,1
vpn corp
vpn partner
extranet corp partner
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
site partner pe=1 prefix=192.168.0.0/16
classify site=0 dstport=16384-16484 class=EF
classify site=0 dstport=5004 class=AF21
police site=0 class=EF cir=62500 cbs=4000 ebs=4000
shape site=0 class=AF11 rate=125000 burst=3000
flow cbr vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
flow poisson vpn=corp from=0 to=1 rate=1e6 size=1472
flow onoff vpn=corp from=0 to=1 rate=2e6 on=0.3 off=0.2 class=AF21
run for=2
)";
  ScenarioError err;
  auto sc = Scenario::parse(text, &err);
  ASSERT_TRUE(sc.has_value()) << "line " << err.line << ": " << err.message;
  EXPECT_EQ(sc->vpn_count(), 2u);
  EXPECT_EQ(sc->site_count(), 3u);
  EXPECT_EQ(sc->flow_count(), 3u);
}

struct BadCase {
  const char* name;
  const char* text;
  const char* expect_substr;
};

class ScenarioParseErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(ScenarioParseErrors, ReportsUsefulError) {
  const BadCase& c = GetParam();
  ScenarioError err;
  auto sc = Scenario::parse(c.text, &err);
  EXPECT_FALSE(sc.has_value()) << c.name;
  EXPECT_NE(err.message.find(c.expect_substr), std::string::npos)
      << c.name << ": got '" << err.message << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScenarioParseErrors,
    ::testing::Values(
        BadCase{"no_backbone", "vpn corp\nsite corp pe=0 prefix=10.0.0.0/8\n",
                "needs a backbone"},
        BadCase{"no_sites", "backbone p=1 pe=1\nvpn corp\n",
                "at least one site"},
        BadCase{"bad_prefix",
                "backbone p=1 pe=1\nvpn corp\nsite corp pe=0 prefix=10.0.0/8\n",
                "bad prefix"},
        BadCase{"unknown_vpn",
                "backbone p=1 pe=1\nvpn corp\nsite other pe=0 "
                "prefix=10.0.0.0/8\n",
                "unknown vpn"},
        BadCase{"pe_range",
                "backbone p=1 pe=1\nvpn corp\nsite corp pe=5 "
                "prefix=10.0.0.0/8\n",
                "out of range"},
        BadCase{"bad_class",
                "backbone p=1 pe=1\nvpn corp\nsite corp pe=0 "
                "prefix=10.0.0.0/8\nclassify site=0 class=PLATINUM\n",
                "unknown class"},
        BadCase{"unknown_directive",
                "backbone p=1 pe=1\nfrobnicate all the things\nvpn v\nsite v "
                "pe=0 prefix=10.0.0.0/8\n",
                "unknown directive"},
        BadCase{"bad_flow_kind",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 "
                "prefix=10.0.0.0/8\nflow warp vpn=v from=0 to=0\n",
                "unknown flow kind"},
        BadCase{"flow_site_range",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 "
                "prefix=10.0.0.0/8\nflow cbr vpn=v from=0 to=9\n",
                "out of range"},
        BadCase{"bad_bgp",
                "backbone p=1 pe=1 bgp=mush\nvpn v\nsite v pe=0 "
                "prefix=10.0.0.0/8\n",
                "mesh or rr"},
        BadCase{"police_missing_rates",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 "
                "prefix=10.0.0.0/8\npolice site=0 class=EF\n",
                "cir="}));

TEST(ScenarioParse, ErrorCarriesLineNumber) {
  ScenarioError err;
  const char* text =
      "backbone p=1 pe=1\n"
      "vpn corp\n"
      "site corp pe=0 prefix=BOGUS\n";
  EXPECT_FALSE(Scenario::parse(text, &err).has_value());
  EXPECT_EQ(err.line, 3u);
}

TEST(ScenarioParse, RunSourcesDirectiveIsRejected) {
  // The per-flow source engine is gone; an old file's switch must fail
  // loudly instead of silently running the only engine left.
  for (const char* value : {"legacy", "flowset"}) {
    const std::string text =
        std::string(kMinimal) + "run for=1 sources=" + value + "\n";
    ScenarioError err;
    EXPECT_FALSE(Scenario::parse(text, &err).has_value()) << value;
    EXPECT_EQ(err.line, 8u) << value;
    EXPECT_NE(err.message.find("sources="), std::string::npos) << err.message;
  }
}

TEST(ScenarioParse, UnknownKeyRejectedOnEveryDirective) {
  // One valid line per directive, each with a stray key appended: the
  // error names the key and carries the offending line's number.
  const std::vector<std::string> lines = {
      "backbone p=1 pe=2 seed=3",
      "vpn corp",
      "vpn partner",
      "extranet corp partner",
      "site corp pe=0 prefix=10.1.0.0/16",
      "site corp pe=1 prefix=10.2.0.0/16",
      "classify site=0 dstport=16400 class=EF",
      "police site=0 class=EF cir=62500 cbs=4000 ebs=4000",
      "shape site=0 class=AF11 rate=125000 burst=3000",
      "flow cbr vpn=corp from=0 to=1 rate=200e3",
      "run for=1",
  };
  auto join = [&](std::size_t bad) {
    std::string text;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      text += lines[i] + (i == bad ? " bogus=3" : "") + "\n";
    }
    return text;
  };
  ScenarioError err;
  ASSERT_TRUE(Scenario::parse(join(lines.size()), &err).has_value())
      << "line " << err.line << ": " << err.message;
  for (std::size_t bad = 0; bad < lines.size(); ++bad) {
    err = ScenarioError{};
    EXPECT_FALSE(Scenario::parse(join(bad), &err).has_value()) << lines[bad];
    EXPECT_EQ(err.line, bad + 1) << lines[bad];
    EXPECT_NE(err.message.find("bogus="), std::string::npos)
        << lines[bad] << ": " << err.message;
  }
  EXPECT_FALSE(Scenario::parse("topology generated p=2 pe=4 bogus=3\n", &err)
                   .has_value());
  EXPECT_EQ(err.line, 1u);
  EXPECT_NE(err.message.find("bogus="), std::string::npos) << err.message;
  // The retired site preference key is an unknown key like any other.
  EXPECT_FALSE(Scenario::parse(std::string(kMinimal) +
                                   "site corp pe=1 prefix=10.3.0.0/16 "
                                   "pref=200\n",
                               &err)
                   .has_value());
  EXPECT_EQ(err.line, 8u);
  EXPECT_NE(err.message.find("pref="), std::string::npos) << err.message;
  // Police keys are not shape keys and vice versa.
  EXPECT_FALSE(Scenario::parse(std::string(kMinimal) +
                                   "shape site=0 rate=1e5 cir=5\n",
                               &err)
                   .has_value());
  EXPECT_NE(err.message.find("cir="), std::string::npos) << err.message;
  // A bare token where the directive takes none is rejected too.
  EXPECT_FALSE(
      Scenario::parse(std::string(kMinimal) + "run for=1 fast\n", &err)
          .has_value());
  EXPECT_NE(err.message.find("fast"), std::string::npos) << err.message;
}

TEST(ScenarioParse, ShippedAndGeneratedScenariosStillParse) {
  std::ifstream in(std::string(MVPN_SOURCE_DIR) +
                   "/examples/scenarios/branch_office.scn");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  ScenarioError err;
  auto shipped = Scenario::parse(text.str(), &err);
  ASSERT_TRUE(shipped.has_value()) << "line " << err.line << ": "
                                   << err.message;
  EXPECT_EQ(shipped->flow_count(), 3u);
  std::ifstream elastic_in(std::string(MVPN_SOURCE_DIR) +
                           "/examples/scenarios/elastic_mix.scn");
  ASSERT_TRUE(elastic_in.good());
  std::stringstream elastic_text;
  elastic_text << elastic_in.rdbuf();
  auto elastic = Scenario::parse(elastic_text.str(), &err);
  ASSERT_TRUE(elastic.has_value()) << "line " << err.line << ": "
                                   << err.message;
  EXPECT_EQ(elastic->vpn_count(), 2u);
  EXPECT_EQ(elastic->flow_count(), 8u);
  auto generated = Scenario::parse(
      "topology generated p=8 pe=16 ce=2 flows=512 seed=5\nrun for=1\n",
      &err);
  ASSERT_TRUE(generated.has_value()) << err.message;
  EXPECT_TRUE(generated->generated());
  EXPECT_EQ(generated->flow_count(), 512u);
}

TEST(ScenarioParse, RunUpdatesAndSpfDirectives) {
  ScenarioError err;
  auto packed = Scenario::parse(
      std::string(kMinimal) + "run for=1 updates=packed spf=incremental\n",
      &err);
  ASSERT_TRUE(packed.has_value()) << err.message;
  EXPECT_FALSE(packed->legacy_updates());
  EXPECT_FALSE(packed->full_spf());
  auto legacy = Scenario::parse(
      std::string(kMinimal) + "run for=1 updates=legacy spf=full\n", &err);
  ASSERT_TRUE(legacy.has_value()) << err.message;
  EXPECT_TRUE(legacy->legacy_updates());
  EXPECT_TRUE(legacy->full_spf());
  EXPECT_FALSE(Scenario::parse(
                   std::string(kMinimal) + "run for=1 updates=turbo\n", &err)
                   .has_value());
  EXPECT_NE(err.message.find("updates="), std::string::npos) << err.message;
  EXPECT_FALSE(
      Scenario::parse(std::string(kMinimal) + "run for=1 spf=psychic\n", &err)
          .has_value());
  EXPECT_NE(err.message.find("spf="), std::string::npos) << err.message;
}

TEST(ScenarioRun, EndToEndDeliversWithoutLeaks) {
  ScenarioError err;
  auto sc = Scenario::parse(kMinimal, &err);
  ASSERT_TRUE(sc.has_value());
  std::ostringstream out;
  EXPECT_TRUE(sc->run(out));
  const std::string text = out.str();
  EXPECT_NE(text.find("leaks=0"), std::string::npos);
  EXPECT_NE(text.find("BE"), std::string::npos);
  EXPECT_NE(text.find("converged in"), std::string::npos);
}

TEST(ScenarioRun, QosChainFromConfigProtectsEf) {
  const char* text = R"(
backbone p=1 pe=2 core_bw=2e6 edge_bw=20e6 seed=9 core_queue=prio
vpn corp
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
classify site=0 dstport=16400 class=EF
flow cbr vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
flow poisson vpn=corp from=0 to=1 rate=2.5e6 class=BE port=80 size=1472
run for=3
)";
  ScenarioError err;
  auto sc = Scenario::parse(text, &err);
  ASSERT_TRUE(sc.has_value()) << err.message;
  std::ostringstream out;
  EXPECT_TRUE(sc->run(out));
  // EF row shows zero loss while BE shows substantial loss.
  const std::string report = out.str();
  const auto ef_pos = report.find("| EF");
  ASSERT_NE(ef_pos, std::string::npos);
  EXPECT_NE(report.substr(ef_pos).find("| 0.00"), std::string::npos);
}

TEST(ScenarioRun, TcpFlowFromConfigMovesData) {
  const char* text = R"(
backbone p=1 pe=2 core_bw=4e6 edge_bw=20e6 seed=13 core_queue=prio
vpn corp
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
classify site=0 dstport=16400 class=EF
flow cbr vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
flow tcp vpn=corp from=0 to=1 class=BE port=80
run for=3
)";
  ScenarioError err;
  auto sc = Scenario::parse(text, &err);
  ASSERT_TRUE(sc.has_value()) << err.message;
  std::ostringstream out;
  EXPECT_TRUE(sc->run(out));
  const std::string report = out.str();
  // The elastic flow shows up with nonzero goodput.
  const auto pos = report.find("tcp flow 2: goodput ");
  ASSERT_NE(pos, std::string::npos) << report;
  EXPECT_EQ(report.find("goodput 0.00", pos), std::string::npos) << report;
}

const char* kCbrTcp = R"(
backbone p=1 pe=2 core_bw=4e6 edge_bw=20e6 seed=13 core_queue=prio
vpn corp
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
classify site=0 dstport=16400 class=EF
flow cbr vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
flow poisson vpn=corp from=1 to=0 rate=1e6 class=BE port=8080 size=972
flow tcp vpn=corp from=0 to=1 class=BE port=80
run for=2
)";

/// The number after `"key":` in a JSON line, or 0 when absent.
std::uint64_t json_uint(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\":");
  if (pos == std::string::npos) return 0;
  return std::stoull(line.substr(pos + key.size() + 3));
}

/// Sum of the "delivered" column of the report's SLA table.
std::uint64_t sla_delivered(const std::string& report) {
  std::uint64_t total = 0;
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) {
    // Class rows look like "| EF    | 375  | 375       | ...".
    if (line.rfind("| ", 0) != 0 || line.rfind("| class", 0) == 0) continue;
    std::istringstream cells(line);
    std::string cls, sent, delivered, bar;
    cells >> bar >> cls >> bar >> sent >> bar >> delivered;
    total += std::stoull(delivered);
  }
  return total;
}

std::uint64_t report_uint(const std::string& report, const std::string& key) {
  const auto pos = report.find(key + "=");
  if (pos == std::string::npos) return 0;
  return std::stoull(report.substr(pos + key.size() + 1));
}

TEST(ScenarioRun, MixedTcpRunCountsEveryCeDelivery) {
  // Every CE has one local sink, so `delivered=` counts every delivery:
  // the measured flows' (the SLA table) plus the TCP endpoints' segments
  // and ACKs, all isolation-checked. The flow records count the same
  // deliveries at the routers.
  ScenarioError err;
  auto sc = Scenario::parse(kCbrTcp, &err);
  ASSERT_TRUE(sc.has_value()) << err.message;
  ObsOptions obs;
  obs.flow_records_path = ::testing::TempDir() + "cbr_tcp_records.jsonl";
  sc->set_obs(obs);
  std::ostringstream out;
  ASSERT_TRUE(sc->run(out));
  const std::string report = out.str();

  std::uint64_t measured = 0;
  std::uint64_t endpoint = 0;
  std::ifstream records(obs.flow_records_path);
  std::string line;
  while (std::getline(records, line)) {
    const std::uint64_t n = json_uint(line, "delivered_pkts");
    (json_uint(line, "flow") == 3 ? endpoint : measured) += n;
  }
  std::remove(obs.flow_records_path.c_str());
  ASSERT_GT(measured, 0u);
  ASSERT_GT(endpoint, 0u);
  EXPECT_EQ(sla_delivered(report), measured) << report;
  EXPECT_EQ(report_uint(report, "delivered"), measured + endpoint) << report;
  EXPECT_EQ(report_uint(report, "leaks"), 0u);
  EXPECT_EQ(report_uint(report, "unknown"), 0u);
}

TEST(ScenarioRun, MixedTcpRunIgnoresShardsButSaysSo) {
  ScenarioError err;
  auto serial = Scenario::parse(kCbrTcp, &err);
  ASSERT_TRUE(serial.has_value()) << err.message;
  auto sharded = serial;
  sharded->set_shards(4);
  std::ostringstream a, b;
  ASSERT_TRUE(serial->run(a));
  ASSERT_TRUE(sharded->run(b));
  const std::string pin =
      "shards=4 requested; tcp flows pin the run to the serial engine\n";
  ASSERT_EQ(b.str().rfind(pin, 0), 0u) << b.str();
  EXPECT_EQ(b.str().substr(pin.size()), a.str());
}

TEST(ScenarioFile, MissingFileIsUsageError) {
  std::ostringstream out;
  EXPECT_EQ(run_scenario_file("/nonexistent/path.scn", out), 2);
  EXPECT_NE(out.str().find("cannot open"), std::string::npos);
}

TEST(ScenarioFile, ShippedDemoSceneParsesAndRuns) {
  std::ostringstream out;
  const int rc = run_scenario_file(
      std::string(MVPN_SOURCE_DIR) + "/examples/scenarios/branch_office.scn",
      out);
  EXPECT_EQ(rc, 0) << out.str();
}

}  // namespace
}  // namespace mvpn::backbone
