#include "backbone/scenario_config.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>

#include "backbone/partition.hpp"
#include "net/shard_runtime.hpp"
#include "obs/flow_stats.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/spans.hpp"
#include "obs/sync_profiler.hpp"
#include "obs/topology_metrics.hpp"
#include "qos/dscp.hpp"
#include "qos/queues.hpp"
#include "qos/sla.hpp"
#include "sim/rng.hpp"
#include "traffic/flowset.hpp"
#include "traffic/tcp_lite.hpp"

namespace mvpn::backbone {
namespace {

/// "key=value" tokens of one line, first token is the directive.
struct Line {
  std::string directive;
  std::vector<std::string> positional;
  std::map<std::string, std::string> kv;
};

Line tokenize(const std::string& raw) {
  Line line;
  std::istringstream in(raw);
  std::string token;
  while (in >> token) {
    if (token[0] == '#') break;
    const auto eq = token.find('=');
    if (line.directive.empty()) {
      line.directive = token;
    } else if (eq == std::string::npos) {
      line.positional.push_back(token);
    } else {
      line.kv[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return line;
}

bool to_double(const std::string& s, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(s, &used);
    return used == s.size();
  } catch (...) {
    return false;
  }
}

bool to_size(const std::string& s, std::size_t& out) {
  double d;
  if (!to_double(s, d) || d < 0) return false;
  out = static_cast<std::size_t>(d);
  return true;
}

std::optional<qos::Phb> phb_by_name(const std::string& name) {
  for (int i = 0; i < static_cast<int>(qos::kPhbCount); ++i) {
    const auto phb = static_cast<qos::Phb>(i);
    if (qos::to_string(phb) == name) return phb;
  }
  return std::nullopt;
}

/// Parse "16384-16484" or "16400".
bool parse_port_range(const std::string& s, std::uint16_t& lo,
                      std::uint16_t& hi) {
  const auto dash = s.find('-');
  std::size_t a = 0, b = 0;
  if (dash == std::string::npos) {
    if (!to_size(s, a) || a > 65535) return false;
    lo = hi = static_cast<std::uint16_t>(a);
    return true;
  }
  if (!to_size(s.substr(0, dash), a) || !to_size(s.substr(dash + 1), b) ||
      a > 65535 || b > 65535 || a > b) {
    return false;
  }
  lo = static_cast<std::uint16_t>(a);
  hi = static_cast<std::uint16_t>(b);
  return true;
}

/// The comma-separated numbers after a core queue spec's "kind:" (none
/// without a colon); nullopt when any of them is not a number.
std::optional<std::vector<double>> spec_args(const std::string& spec) {
  std::vector<double> args;
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return args;
  std::istringstream ws(spec.substr(colon + 1));
  std::string w;
  while (std::getline(ws, w, ',')) {
    double d = 0;
    if (!to_double(w, d)) return std::nullopt;
    args.push_back(d);
  }
  return args;
}

/// Whether red_params_for / queue_factory_for can build `spec`: "fifo",
/// "prio", "red[:min,max,maxp]", "wfq[:w,...]" with weights > 0, or
/// "drr[:w,...]" with weights >= 1.
bool valid_core_queue(const std::string& spec) {
  const std::string kind = spec.substr(0, spec.find(':'));
  const auto args = spec_args(spec);
  if (!args) return false;
  if (kind == "fifo" || kind == "prio") return spec == kind;
  if (kind == "red") return args->size() <= 3;
  if (kind != "wfq" && kind != "drr") return false;
  return std::all_of(args->begin(), args->end(), [&](double w) {
    return kind == "drr" ? w >= 1 : w > 0;
  });
}

/// RED profile for "red" / "red:min,max,maxp" core specs; nullopt for any
/// other discipline. RED queues are not built through the QueueDiscFactory
/// (it carries no arguments): they need a clock and a per-node RNG, so the
/// scenario swaps them onto the core links after construction.
std::optional<qos::RedParams> red_params_for(const std::string& spec,
                                             double core_bw_bps) {
  if (spec != "red" && spec.rfind("red:", 0) != 0) return std::nullopt;
  qos::RedParams rp;
  rp.bandwidth_bps = core_bw_bps;
  const std::vector<double> v = spec_args(spec).value();
  if (!v.empty()) rp.min_th = v[0];
  if (v.size() > 1) rp.max_th = v[1];
  if (v.size() > 2) rp.max_p = v[2];
  return rp;
}

/// Build a core queue factory from "fifo", "prio", "wfq:8,3,1", "drr:8,3,1"
/// (a spec valid_core_queue accepted). "red" specs return the default
/// factory; see red_params_for.
net::QueueDiscFactory queue_factory_for(const std::string& spec) {
  if (spec == "fifo") return {};
  if (spec == "prio") {
    return [] {
      return std::make_unique<qos::PriorityQueueDisc>(
          3, 100, qos::ef_af_be_selector());
    };
  }
  const std::string kind = spec.substr(0, spec.find(':'));
  std::vector<double> weights = spec_args(spec).value();
  if (weights.empty()) weights = {8, 3, 1};
  if (kind == "wfq") {
    return [weights] {
      return std::make_unique<qos::WfqQueueDisc>(weights, 100,
                                                 qos::ef_af_be_selector());
    };
  }
  if (kind == "drr") {
    std::vector<std::uint32_t> iw;
    for (double w : weights) iw.push_back(static_cast<std::uint32_t>(w));
    return [iw] {
      return std::make_unique<qos::DrrQueueDisc>(iw, 100,
                                                 qos::ef_af_be_selector());
    };
  }
  return {};
}

/// Expose the SLA probe's per-class figures as gauges under
/// "sla/<class>/...". Classes appear in the probe lazily (first packet of
/// that class), so each gauge re-checks membership at snapshot time.
void register_sla_metrics(obs::MetricsRegistry& registry,
                          const qos::SlaProbe& probe) {
  using Report = qos::SlaProbe::ClassReport;
  for (int c = 0; c < static_cast<int>(qos::kPhbCount); ++c) {
    const auto phb = static_cast<qos::Phb>(c);
    const std::string base = std::string("sla/") + qos::to_string(phb);
    auto add = [&](const char* leaf,
                   std::function<double(const Report&)> fn) {
      registry.add_gauge(
          base + "/" + leaf, [&probe, phb, fn = std::move(fn)] {
            return probe.has_class(phb) ? fn(probe.report(phb)) : 0.0;
          });
    };
    add("sent_packets",
        [](const Report& r) { return static_cast<double>(r.sent_packets); });
    add("delivered_packets", [](const Report& r) {
      return static_cast<double>(r.delivered_packets);
    });
    add("delivered_bytes", [](const Report& r) {
      return static_cast<double>(r.delivered_bytes);
    });
    add("loss_fraction", [](const Report& r) { return r.loss_fraction(); });
    add("latency_ms_mean",
        [](const Report& r) { return r.latency_s.mean() * 1e3; });
    add("latency_ms_p50",
        [](const Report& r) { return r.latency_s.percentile(50.0) * 1e3; });
    add("latency_ms_p99",
        [](const Report& r) { return r.latency_s.percentile(99.0) * 1e3; });
    registry.add_gauge(base + "/jitter_ms_mean", [&probe, phb] {
      return probe.has_class(phb) ? probe.jitter_stats(phb).mean() * 1e3
                                  : 0.0;
    });
    registry.add_gauge(base + "/jitter_rfc3550_ms", [&probe, phb] {
      return probe.has_class(phb) ? probe.rfc3550_jitter_s(phb) * 1e3 : 0.0;
    });
  }
}

/// Delivered packets carry inner class-selector bits (labels popped, ESP
/// stripped), so decomposition classes read as cs0..cs7.
obs::ClassNamer cs_class_namer() {
  return [](std::uint8_t c) { return "cs" + std::to_string(c); };
}

}  // namespace

std::optional<Scenario> Scenario::parse(const std::string& text,
                                        ScenarioError* error) {
  Scenario sc;
  auto fail = [&](std::size_t line_no, std::string msg) {
    if (error != nullptr) *error = ScenarioError{line_no, std::move(msg)};
    return std::optional<Scenario>{};
  };

  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  bool have_backbone = false;
  while (std::getline(in, raw)) {
    ++line_no;
    const Line line = tokenize(raw);
    if (line.directive.empty()) continue;
    // Keys the directive below reads; anything else on the line is a typo
    // or a retired switch and fails the parse instead of being ignored.
    std::set<std::string> read;
    auto kv = [&](const std::string& key) -> std::optional<std::string> {
      read.insert(key);
      auto it = line.kv.find(key);
      if (it == line.kv.end()) return std::nullopt;
      return it->second;
    };

    if (line.directive == "topology") {
      if (line.positional.size() != 1 || line.positional[0] != "generated") {
        return fail(line_no, "topology needs the form: topology generated ...");
      }
      TopogenParams params;
      for (const auto& [key, value] : line.kv) {
        if (!apply_topogen_param(params, key, value)) {
          return fail(line_no, "bad topogen " + key + "=" + value);
        }
        read.insert(key);
      }
      sc.topogen_ = params;
    } else if (line.directive == "backbone") {
      have_backbone = true;
      if (auto v = kv("p")) {
        if (!to_size(*v, sc.backbone_.p_count)) {
          return fail(line_no, "bad p=");
        }
      }
      if (auto v = kv("pe")) {
        if (!to_size(*v, sc.backbone_.pe_count)) {
          return fail(line_no, "bad pe=");
        }
      }
      if (auto v = kv("core_bw")) {
        if (!to_double(*v, sc.backbone_.core_bw_bps)) {
          return fail(line_no, "bad core_bw=");
        }
      }
      if (auto v = kv("edge_bw")) {
        if (!to_double(*v, sc.backbone_.edge_bw_bps)) {
          return fail(line_no, "bad edge_bw=");
        }
      }
      if (auto v = kv("seed")) {
        std::size_t s;
        if (!to_size(*v, s)) return fail(line_no, "bad seed=");
        sc.backbone_.seed = s;
      }
      if (auto v = kv("bgp")) {
        if (*v == "mesh") {
          sc.backbone_.bgp_mode = routing::Bgp::Mode::kFullMesh;
        } else if (*v == "rr") {
          sc.backbone_.bgp_mode = routing::Bgp::Mode::kRouteReflector;
          sc.backbone_.route_reflector_count = 1;
        } else {
          return fail(line_no, "bgp= must be mesh or rr");
        }
      }
      if (auto v = kv("rr")) {
        if (!to_size(*v, sc.backbone_.route_reflector_count)) {
          return fail(line_no, "bad rr=");
        }
      }
      if (auto v = kv("core_queue")) {
        if (!valid_core_queue(*v)) {
          return fail(line_no, "bad core_queue= " + *v);
        }
        sc.core_queue_spec_ = *v;
      }
    } else if (line.directive == "vpn") {
      if (line.positional.size() != 1) {
        return fail(line_no, "vpn needs exactly one name");
      }
      sc.vpns_.push_back(line.positional[0]);
    } else if (line.directive == "extranet") {
      if (line.positional.size() != 2) {
        return fail(line_no, "extranet needs <importer> <exported>");
      }
      sc.extranets_.emplace_back(line.positional[0], line.positional[1]);
    } else if (line.directive == "site") {
      SiteDecl site;
      if (line.positional.size() != 1) {
        return fail(line_no, "site needs a vpn name");
      }
      site.vpn = line.positional[0];
      if (auto v = kv("pe")) {
        if (!to_size(*v, site.pe)) return fail(line_no, "bad pe=");
      }
      auto v = kv("prefix");
      if (!v) return fail(line_no, "site needs prefix=");
      auto prefix = ip::Prefix::parse(*v);
      if (!prefix) return fail(line_no, "bad prefix= " + *v);
      site.prefix = *prefix;
      sc.sites_.push_back(site);
    } else if (line.directive == "classify") {
      ClassifyDecl c;
      if (auto v = kv("site")) {
        if (!to_size(*v, c.site)) return fail(line_no, "bad site=");
      } else {
        return fail(line_no, "classify needs site=");
      }
      if (auto v = kv("dstport")) {
        if (!parse_port_range(*v, c.port_lo, c.port_hi)) {
          return fail(line_no, "bad dstport=");
        }
      }
      if (auto v = kv("class")) {
        auto phb = phb_by_name(*v);
        if (!phb) return fail(line_no, "unknown class= " + *v);
        c.phb = *phb;
      }
      sc.classifies_.push_back(c);
    } else if (line.directive == "police" || line.directive == "shape") {
      std::size_t site = 0;
      qos::Phb phb = qos::Phb::kBe;
      if (auto v = kv("site")) {
        if (!to_size(*v, site)) return fail(line_no, "bad site=");
      } else {
        return fail(line_no, line.directive + " needs site=");
      }
      if (auto v = kv("class")) {
        auto p = phb_by_name(*v);
        if (!p) return fail(line_no, "unknown class= " + *v);
        phb = *p;
      }
      if (line.directive == "police") {
        PoliceDecl p;
        p.site = site;
        p.phb = phb;
        for (auto [key, out] : {std::pair{"cir", &p.cir},
                                std::pair{"cbs", &p.cbs},
                                std::pair{"ebs", &p.ebs}}) {
          auto v = kv(key);
          if (v && !to_double(*v, *out)) {
            return fail(line_no, std::string("bad ") + key + "=");
          }
        }
        if (p.cir <= 0 || p.cbs <= 0 || p.ebs <= 0) {
          return fail(line_no, "police needs cir=, cbs=, ebs= > 0");
        }
        sc.polices_.push_back(p);
      } else {
        ShapeDecl s;
        s.site = site;
        s.phb = phb;
        if (auto v = kv("rate")) {
          if (!to_double(*v, s.rate)) return fail(line_no, "bad rate=");
        }
        if (auto v = kv("burst")) {
          if (!to_double(*v, s.burst) || s.burst < 0) {
            return fail(line_no, "bad burst=");
          }
        }
        if (s.rate <= 0) return fail(line_no, "shape needs rate= > 0");
        sc.shapes_.push_back(s);
      }
    } else if (line.directive == "flow") {
      FlowDecl f;
      if (line.positional.size() != 1) {
        return fail(line_no, "flow needs a kind (cbr|poisson|onoff)");
      }
      f.kind = line.positional[0];
      if (f.kind != "cbr" && f.kind != "poisson" && f.kind != "onoff" &&
          f.kind != "tcp") {
        return fail(line_no, "unknown flow kind " + f.kind);
      }
      auto v = kv("vpn");
      if (!v) return fail(line_no, "flow needs vpn=");
      f.vpn = *v;
      if (auto x = kv("from")) {
        if (!to_size(*x, f.from)) return fail(line_no, "bad from=");
      }
      if (auto x = kv("to")) {
        if (!to_size(*x, f.to)) return fail(line_no, "bad to=");
      }
      if (auto x = kv("rate")) {
        if (!to_double(*x, f.rate)) return fail(line_no, "bad rate=");
      }
      if (auto x = kv("on")) {
        if (!to_double(*x, f.on_s) || f.on_s < 0) {
          return fail(line_no, "bad on=");
        }
      }
      if (auto x = kv("off")) {
        if (!to_double(*x, f.off_s) || f.off_s < 0) {
          return fail(line_no, "bad off=");
        }
      }
      if (auto x = kv("class")) {
        auto phb = phb_by_name(*x);
        if (!phb) return fail(line_no, "unknown class= " + *x);
        f.phb = *phb;
      }
      if (auto x = kv("port")) {
        std::size_t p;
        if (!to_size(*x, p) || p > 65535) return fail(line_no, "bad port=");
        f.port = static_cast<std::uint16_t>(p);
      }
      if (auto x = kv("size")) {
        if (!to_size(*x, f.size)) return fail(line_no, "bad size=");
      }
      if (auto x = kv("start")) {
        if (!to_double(*x, f.start_s) || f.start_s < 0) {
          return fail(line_no, "bad start=");
        }
      }
      if (kv("premark")) f.premark = true;
      sc.flows_.push_back(f);
    } else if (line.directive == "run") {
      if (auto v = kv("for")) {
        if (!to_double(*v, sc.run_for_s_) || sc.run_for_s_ <= 0) {
          return fail(line_no, "bad for=");
        }
      }
      if (auto v = kv("shards")) {
        std::size_t n = 0;
        if (!to_size(*v, n) || n == 0 || n > 64) {
          return fail(line_no, "bad shards= (want 1..64)");
        }
        sc.shards_ = static_cast<std::uint32_t>(n);
      }
      if (auto v = kv("flowcache")) {
        if (*v == "on") {
          sc.flowcache_ = true;
        } else if (*v == "off") {
          sc.flowcache_ = false;
        } else {
          return fail(line_no, "bad flowcache= (want on|off)");
        }
      }
      if (auto v = kv("updates")) {
        if (*v == "legacy") {
          sc.legacy_updates_ = true;
        } else if (*v == "packed") {
          sc.legacy_updates_ = false;
        } else {
          return fail(line_no, "bad updates= (want packed|legacy)");
        }
      }
      if (auto v = kv("spf")) {
        if (*v == "full") {
          sc.full_spf_ = true;
        } else if (*v == "incremental") {
          sc.full_spf_ = false;
        } else {
          return fail(line_no, "bad spf= (want incremental|full)");
        }
      }
    } else {
      return fail(line_no, "unknown directive " + line.directive);
    }
    for (const auto& [key, value] : line.kv) {
      if (read.count(key) == 0) {
        return fail(line_no, "unknown key " + key + "= for " + line.directive);
      }
    }
    // Only these directives take bare tokens (counts checked above).
    if (!line.positional.empty() && line.directive != "topology" &&
        line.directive != "vpn" && line.directive != "extranet" &&
        line.directive != "site" && line.directive != "flow") {
      return fail(line_no, "unexpected token " + line.positional[0] +
                               " for " + line.directive);
    }
  }
  // A generated topology expands here, before cross-reference validation:
  // the plan's backbone/vpn/site/flow lists take the exact shape of the
  // hand-written declarations, so everything downstream (validation,
  // build, QoS, sharding, observability) is shared with .scn scenarios.
  if (sc.topogen_) {
    if (have_backbone) {
      return fail(0, "topology generated replaces the backbone line");
    }
    if (!sc.vpns_.empty() || !sc.sites_.empty() || !sc.flows_.empty()) {
      return fail(0,
                  "topology generated cannot be mixed with vpn/site/flow "
                  "declarations");
    }
    GeneratedPlan plan;
    try {
      plan = generate_plan(*sc.topogen_);
    } catch (const std::exception& e) {
      return fail(0, e.what());
    }
    sc.backbone_ = plan.backbone;
    sc.vpns_ = plan.vpns;
    sc.sites_.reserve(plan.sites.size());
    for (const PlanSite& s : plan.sites) {
      SiteDecl d;
      d.vpn = plan.vpns[s.vpn];
      d.pe = s.pe;
      d.prefix = s.prefix;
      sc.sites_.push_back(d);
    }
    sc.flows_.reserve(plan.flows.size());
    for (const PlanFlow& f : plan.flows) {
      FlowDecl d;
      d.kind = f.kind;
      d.vpn = plan.vpns[plan.sites[f.from].vpn];
      d.from = f.from;
      d.to = f.to;
      d.rate = f.rate_bps;
      d.phb = f.phb;
      // Generated sites carry no CPE classifiers; non-BE flows mark DSCP
      // at the source so the core's PHB scheduling still differentiates.
      d.premark = f.phb != qos::Phb::kBe;
      d.port = f.port;
      d.size = f.size;
      d.start_s = f.start_s;
      sc.flows_.push_back(d);
    }
    have_backbone = true;
  }
  if (!have_backbone) return fail(0, "scenario needs a backbone line");
  if (sc.sites_.empty()) return fail(0, "scenario needs at least one site");

  // Cross-reference validation.
  auto vpn_known = [&](const std::string& name) {
    for (const auto& v : sc.vpns_) {
      if (v == name) return true;
    }
    return false;
  };
  for (const auto& s : sc.sites_) {
    if (!vpn_known(s.vpn)) return fail(0, "site references unknown vpn " + s.vpn);
    if (s.pe >= sc.backbone_.pe_count) return fail(0, "site pe out of range");
  }
  for (const auto& f : sc.flows_) {
    if (!vpn_known(f.vpn)) return fail(0, "flow references unknown vpn " + f.vpn);
    if (f.from >= sc.sites_.size() || f.to >= sc.sites_.size()) {
      return fail(0, "flow site index out of range");
    }
  }
  for (const auto& [a, b] : sc.extranets_) {
    if (!vpn_known(a) || !vpn_known(b)) {
      return fail(0, "extranet references unknown vpn");
    }
  }
  for (const auto& c : sc.classifies_) {
    if (c.site >= sc.sites_.size()) return fail(0, "classify site out of range");
  }
  return sc;
}

namespace {

/// A between-window action of the drive step. It fires at `at`,
/// `at + period`, ...; each call sees every lane past all events before
/// the instant and none at or after it.
struct PeriodicAction {
  sim::SimTime at = 0;  ///< next instant; advances as the action fires
  sim::SimTime period = 0;
  std::function<void(sim::SimTime at)> fn;
};

/// One engine lane (the serial scheduler, or one shard's) with the lane's
/// halves of the run's observers. A flow is accounted where its events
/// execute: sent-side on its source CE's lane, delivery-side on its
/// destination CE's.
struct Lane {
  sim::Scheduler* sched = nullptr;
  qos::SlaProbe* probe = nullptr;  ///< the report probe on a one-lane run
  obs::LatencyCollector* latency = nullptr;
  std::unique_ptr<qos::SlaProbe> own_probe;
  std::unique_ptr<traffic::MeasurementSink> sink;  ///< its CEs' local sink
  std::unique_ptr<traffic::FlowSet> flows;
  std::unique_ptr<obs::FlowStatsTable> flow_table;  ///< flow records only
};

ip::Ipv4Address host_of(const MplsBackbone::Site& site) {
  return ip::Ipv4Address(site.prefix.address().value() + 1);
}

}  // namespace

/// Scenario::run's steps, in call order: build the network, build the
/// engine lanes, arm the flows on them, attach the observers, drive,
/// report. build_lanes() is the only step that knows whether the run is
/// serial or sharded. It leaves one lane per shard (one lane on the serial
/// scheduler) and three engine hooks, so every later step is the same code
/// for both engines.
struct Scenario::Run {
  Run(const Scenario& scenario, std::ostream& os);

  void build();
  void build_lanes();
  /// Parts of build_lanes(): the shard plan and runtime (none for one
  /// lane), then the engine hooks and per-lane table/profiler wiring.
  void partition();
  void install_engine_hooks();
  void arm_flows();
  void attach_observers();
  void drive();
  bool report();

  /// Fold the lanes' probes and latency collectors into the report's. A
  /// one-lane run records into the report's directly and folds nothing.
  void fold_lanes();
  /// Cut flow records at `at`. One lane cuts them straight out of its table
  /// (the accumulations never leave their slots); more lanes first fold the
  /// per-lane halves of each flow together.
  void flow_scan(sim::SimTime at);

  const Scenario& sc;
  const ObsOptions& opt;
  std::ostream& out;
  MplsBackbone bb;
  net::Topology& topo;
  std::map<std::string, vpn::VpnId> vpn_ids;
  std::vector<MplsBackbone::Site> sites;  ///< indexed like sc.sites_
  qos::SlaProbe probe{"scenario"};        ///< the report's SLA table
  obs::LatencyCollector latency;          ///< the report's decomposition
  std::unique_ptr<obs::SyncProfiler> sync_prof;

  // Set by build_lanes().
  std::unique_ptr<net::ShardRuntime> runtime;  ///< null on the serial engine
  std::vector<Lane> lanes;
  std::vector<std::uint32_t> site_lane;  ///< lane of each site's CE
  /// Run every lane to `until`, firing `acts` between windows.
  std::function<void(std::vector<PeriodicAction>& acts, sim::SimTime until)>
      advance;
  std::function<void(obs::MetricsRegistry&)> register_engine_metrics;
  /// Fold the lanes a last time and restore the serial topology view.
  /// Returns the engine's part of the report's first line.
  std::function<std::string()> finish_engine;

  sim::SimTime t0 = 0;  ///< traffic start: the converged instant
  std::vector<std::unique_ptr<traffic::TcpLiteFlow>> tcp_flows;
  std::unique_ptr<obs::FlowExporter> flow_exporter;
  obs::MetricsRegistry registry;
  std::optional<obs::PeriodicSnapshots> snapshots;
  std::vector<PeriodicAction> actions;  ///< flow scans, then snapshots
  std::string engine_summary;
};

Scenario::Run::Run(const Scenario& scenario, std::ostream& os)
    : sc(scenario),
      opt(scenario.obs_),
      out(os),
      bb([&scenario] {
        BackboneConfig cfg = scenario.backbone_;
        cfg.core_queue = queue_factory_for(scenario.core_queue_spec_);
        return cfg;
      }()),
      topo(bb.topo) {}

void Scenario::Run::build() {
  // Control-plane A/B switches, applied before any protocol starts so the
  // whole convergence runs in the selected mode.
  bb.bgp.set_packing(!sc.legacy_updates_);
  bb.igp.set_full_spf(sc.full_spf_);

  // "red" core spec: swap RED onto the core directions while the links are
  // still idle. The clock reads through the topology's ambient scheduler
  // accessor (a sharded run answers with the shard clock of whichever
  // worker services the queue), and each direction's RNG is seeded from
  // (topology seed, transmitting node, link) so drop decisions never
  // depend on draw order across queues.
  if (auto rp = red_params_for(sc.core_queue_spec_, sc.backbone_.core_bw_bps)) {
    std::vector<bool> core_node(topo.node_count(), false);
    for (const auto* p : bb.ps()) core_node[p->id()] = true;
    for (const auto* pe : bb.pes()) core_node[pe->id()] = true;
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
      net::Link& link = topo.link(static_cast<net::LinkId>(l));
      if (!core_node[link.end_a().node] || !core_node[link.end_b().node]) {
        continue;
      }
      for (const ip::NodeId from : {link.end_a().node, link.end_b().node}) {
        link.set_queue_from(
            from, std::make_unique<qos::RedQueueDisc>(
                      *rp, [this] { return topo.scheduler().now(); },
                      sim::Rng::stream(
                          topo.seed(),
                          0x52ED0000ULL + (std::uint64_t{from} << 20) + l)));
      }
    }
  }

  // Arm the flight recorder before convergence so control-plane events
  // (LDP mappings, LSP signaling) land in the trace alongside the data
  // plane.
  if (opt.enabled()) {
    if (opt.ring_capacity != 0) topo.recorder().set_capacity(opt.ring_capacity);
    topo.recorder().enable(opt.trace_mask);
  }

  for (const auto& name : sc.vpns_) vpn_ids[name] = bb.service.create_vpn(name);
  for (const auto& [importer, exported] : sc.extranets_) {
    bb.service.add_extranet_import(vpn_ids.at(importer), vpn_ids.at(exported));
  }
  for (const auto& s : sc.sites_) {
    sites.push_back(bb.add_site(vpn_ids.at(s.vpn), s.pe, s.prefix));
  }

  // flowcache=off: force every router (P, PE, CE) onto the slow path so
  // A/B runs can verify the fastpath changes nothing but speed.
  if (!sc.flowcache_) {
    for (std::size_t i = 0; i < topo.node_count(); ++i) {
      if (auto* r = dynamic_cast<vpn::Router*>(
              &topo.node(static_cast<ip::NodeId>(i)))) {
        r->set_flowcache_enabled(false);
      }
    }
  }

  bb.start_and_converge();

  for (const auto& c : sc.classifies_) {
    vpn::Router& ce = *sites[c.site].ce;
    if (ce.classifier() == nullptr) {
      ce.set_classifier(std::make_unique<qos::CbqClassifier>());
    }
    qos::MatchRule rule;
    rule.dst_port = qos::PortRange{c.port_lo, c.port_hi};
    rule.mark = c.phb;
    ce.classifier()->add_rule(rule);
  }
  for (const auto& p : sc.polices_) {
    sites[p.site].ce->add_policer(p.phb, p.cir, p.cbs, p.ebs);
  }
  for (const auto& s : sc.shapes_) {
    sites[s.site].ce->add_shaper(s.phb, s.rate, s.burst);
  }

  // Per-hop delay decomposition: links/routers stamp DelayAnatomy always;
  // the collector aggregates only when one of the latency outputs is on.
  // It is installed before the lanes are built so a sharded run gives each
  // shard its own collector; the tap reads through the ambient accessor,
  // so it records into the delivering lane's.
  if (opt.latency_enabled()) {
    topo.set_latency_collector(&latency);
    for (const auto& site : sites) {
      site.ce->add_delivery_tap([this](const net::Packet& p, vpn::VpnId) {
        if (obs::LatencyCollector* lc = topo.latency_collector()) {
          lc->record_delivery(p.trace_class(), p.delay.queue, p.delay.tx,
                              p.delay.prop, p.delay.proc);
        }
      });
    }
  }
}

void Scenario::Run::partition() {
  // TCP-lite's congestion state spans both endpoint CEs, which may land on
  // different shards, so tcp flows pin the run to one lane.
  const bool any_tcp =
      std::any_of(sc.flows_.begin(), sc.flows_.end(),
                  [](const FlowDecl& f) { return f.kind == "tcp"; });
  const std::uint32_t shards = any_tcp ? 1 : sc.shards_;
  if (shards < sc.shards_) {
    out << "shards=" << sc.shards_
        << " requested; tcp flows pin the run to the serial engine\n";
  }
  // Partition the converged topology. Everything before this point ran
  // serially; afterwards, coordinator-thread code that touches the
  // topology still resolves to the serial objects (sim::current_shard()
  // is kNoShard).
  if (shards > 1) {
    ShardPlan plan = compute_shard_plan(topo, shards, sc.partition_weights_);
    if (sc.verbose_) {
      report_shard_plan(plan, topo, std::cerr, sc.partition_weights_);
      if (plan.parallel()) {
        // Flow balance: the partitioner only sees topology, so report how
        // the declared traffic sources actually land on the shards.
        std::vector<std::size_t> srcs(plan.shard_count, 0);
        for (const auto& f : sc.flows_) {
          ++srcs[plan.node_shard[sites[f.from].ce->id()]];
        }
        for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
          std::cerr << "partition: shard " << s << ": " << srcs[s]
                    << " flow sources\n";
        }
      }
    }
    if (plan.parallel() && plan.lookahead > 0) {
      runtime = std::make_unique<net::ShardRuntime>(
          topo, std::move(plan.node_shard), plan.shard_count, plan.lookahead);
    }
  }
}

void Scenario::Run::build_lanes() {
  partition();
  // Size the flow tables for the declared flow population: at <= 50% load
  // the probe window practically never fills, so the spill path stays off
  // the hot path.
  const std::size_t flow_slots =
      std::max(obs::FlowStatsTable::kDefaultSlots, 2 * sc.flows_.size());
  lanes.resize(runtime ? runtime->shard_count() : 1);
  for (std::uint32_t l = 0; l < lanes.size(); ++l) {
    Lane& lane = lanes[l];
    lane.sched = runtime ? &runtime->shard_scheduler(l) : &topo.scheduler();
    lane.probe = &probe;
    lane.latency = &latency;
    if (runtime) {
      lane.own_probe = std::make_unique<qos::SlaProbe>(
          std::string("shard").append(std::to_string(l)));
      lane.probe = lane.own_probe.get();
      lane.latency = &runtime->shard_latency(l);
    }
    lane.sink =
        std::make_unique<traffic::MeasurementSink>(*lane.probe, *lane.sched);
    // Every site is registered on every lane so FlowSet site indices are
    // scenario site indices (a destination's lane only matters for its
    // deliveries; the source lane reads just its host address).
    lane.flows = std::make_unique<traffic::FlowSet>(*lane.sched, lane.probe,
                                                    topo.seed());
    for (const auto& site : sites) {
      lane.flows->add_site(*site.ce, host_of(site));
    }
    if (opt.flow_enabled()) {
      lane.flow_table =
          std::make_unique<obs::FlowStatsTable>(lane.sched, flow_slots);
    }
  }
  for (const auto& site : sites) {
    site_lane.push_back(runtime ? topo.shard_of(site.ce->id()) : 0);
    lanes[site_lane.back()].sink->bind(*site.ce);
  }
  // Engine sync telemetry: per-epoch phase timings and load-imbalance
  // attribution; a serial run gets a one-lane report, so profiled passes
  // always emit the same JSON shape.
  if (opt.sync_enabled()) {
    sync_prof = std::make_unique<obs::SyncProfiler>(
        static_cast<std::uint32_t>(lanes.size()));
  }

  install_engine_hooks();
}

void Scenario::Run::install_engine_hooks() {
  if (!runtime) {
    if (opt.flow_enabled()) topo.set_flow_stats(lanes[0].flow_table.get());
    // Run every event strictly before an action instant, fire the actions
    // due then in registration order, continue: the edge the sharded
    // engine's between-window actions ride, so both engines cut identical
    // flow records and snapshots.
    advance = [this](std::vector<PeriodicAction>& acts, sim::SimTime until) {
      const std::uint64_t ev0 = topo.base_scheduler().executed_count();
      const auto w0 = std::chrono::steady_clock::now();
      for (;;) {
        sim::SimTime at = until + 1;
        for (const PeriodicAction& a : acts) at = std::min(at, a.at);
        if (at > until) break;
        topo.run_until(at - 1);
        for (PeriodicAction& a : acts) {
          for (; a.at <= at; a.at += a.period) a.fn(a.at);
        }
      }
      topo.run_until(until);
      if (sync_prof) {
        sync_prof->record_serial(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - w0)
                    .count()),
            topo.base_scheduler().executed_count() - ev0);
      }
    };
    register_engine_metrics = [](obs::MetricsRegistry&) {};
    finish_engine = [] { return std::string(); };
    return;
  }

  if (opt.flow_enabled()) {
    std::vector<obs::FlowStatsTable*> tables;
    for (Lane& lane : lanes) tables.push_back(lane.flow_table.get());
    runtime->set_flow_stats(std::move(tables));
  }
  if (sync_prof) {
    // The profiler layer cannot see routers; sample the per-shard flow
    // caches here, where both the topology and the shard map are known.
    auto by_shard =
        std::make_shared<std::vector<std::vector<const vpn::Router*>>>(
            lanes.size());
    for (std::size_t i = 0; i < topo.node_count(); ++i) {
      const auto id = static_cast<ip::NodeId>(i);
      if (const auto* r = dynamic_cast<const vpn::Router*>(&topo.node(id))) {
        (*by_shard)[topo.shard_of(id)].push_back(r);
      }
    }
    sync_prof->set_cache_sampler([by_shard](std::uint32_t shard,
                                            std::uint64_t& hits,
                                            std::uint64_t& misses) {
      for (const vpn::Router* r : (*by_shard)[shard]) {
        const vpn::Router::FlowCacheStats fc = r->flowcache_stats();
        hits += fc.hits;
        misses += fc.misses;
      }
    });
    runtime->set_profiler(sync_prof.get());
  }
  advance = [this](std::vector<PeriodicAction>& acts, sim::SimTime until) {
    for (PeriodicAction& a : acts) {
      runtime->add_periodic_action(a.at, a.period, a.fn);
    }
    runtime->run_until(until);
  };
  register_engine_metrics = [this](obs::MetricsRegistry& reg) {
    obs::register_engine_metrics(*runtime, reg);
    if (sync_prof) obs::register_sync_metrics(*sync_prof, reg);
  };
  // finish() merges the shard trace rings into the master recorder and
  // restores the serial view before any report reads the topology.
  finish_engine = [this] {
    fold_lanes();
    std::ostringstream s;
    s << " on " << runtime->shard_count() << " shards (lookahead "
      << sim::to_seconds(runtime->lookahead()) * 1e6 << " us, "
      << runtime->windows() << " windows, " << runtime->widened_windows()
      << " widened, " << runtime->handoffs() << " cross-shard handoffs, "
      << runtime->delivery_batches() << " batched deliveries)";
    runtime->finish();
    return s.str();
  };
}

void Scenario::Run::arm_flows() {
  t0 = topo.scheduler().now();
  const sim::SimTime stop = t0 + sim::from_seconds(sc.run_for_s_);
  std::uint32_t flow_id = 0;
  for (const auto& f : sc.flows_) {
    ++flow_id;
    Lane& src = lanes[site_lane[f.from]];
    Lane& dst = lanes[site_lane[f.to]];
    const vpn::VpnId vpn = vpn_ids.at(f.vpn);
    if (f.kind == "tcp") {
      traffic::TcpLiteFlow::Config tc;
      tc.src = host_of(sites[f.from]);
      tc.dst = host_of(sites[f.to]);
      tc.dst_port = f.port;
      tc.mss_payload = f.size;
      tc.vpn = vpn;
      tc.phb = f.phb;
      tc.premark = f.premark;
      tcp_flows.push_back(std::make_unique<traffic::TcpLiteFlow>(
          *sites[f.from].ce, *src.sink, *sites[f.to].ce, *dst.sink, flow_id,
          tc));
      continue;
    }
    traffic::FlowSet::FlowDef d;
    d.flow_id = flow_id;
    d.from_site = static_cast<std::uint32_t>(f.from);
    d.to_site = static_cast<std::uint32_t>(f.to);
    d.kind = f.kind == "cbr"       ? traffic::FlowSet::Kind::kCbr
             : f.kind == "poisson" ? traffic::FlowSet::Kind::kPoisson
                                   : traffic::FlowSet::Kind::kOnOff;
    d.rate_bps = f.rate;
    d.on_s = f.on_s;
    d.off_s = f.off_s;
    d.vpn = vpn;
    d.phb = f.phb;
    d.premark = f.premark;
    d.dst_port = f.port;
    d.payload_bytes = static_cast<std::uint32_t>(f.size);
    d.start = t0 + sim::from_seconds(f.start_s);
    src.flows->add_flow(d);
    dst.sink->expect_flow(flow_id, f.phb, vpn);
  }
  for (Lane& lane : lanes) lane.flows->run(stop);
  for (auto& t : tcp_flows) {
    t->start(t0);
    topo.scheduler().schedule_at(stop, [flow = t.get()] { flow->stop(); });
  }
}

void Scenario::Run::attach_observers() {
  // Flow scans register before metrics snapshots, so coincident instants
  // scan first.
  if (opt.flow_enabled()) {
    obs::FlowExporter::Options fopt;
    fopt.active_timeout = sim::from_seconds(opt.flow_active_timeout_s);
    fopt.idle_timeout = sim::from_seconds(opt.flow_idle_timeout_s);
    flow_exporter = std::make_unique<obs::FlowExporter>(fopt);
    const sim::SimTime period = sim::from_seconds(opt.flow_scan_period_s);
    if (period > 0) {
      actions.push_back({t0 + period, period,
                         [this](sim::SimTime at) { flow_scan(at); }});
    }
  }
  if (!opt.enabled() || opt.metrics_json_path.empty()) return;
  obs::register_topology_metrics(topo, registry);
  register_sla_metrics(registry, probe);
  obs::register_latency_metrics(latency, registry, cs_class_namer());
  if (opt.engine_metrics) register_engine_metrics(registry);
  if (opt.control_metrics) {
    obs::register_control_metrics(bb.cp, bb.bgp, bb.igp, registry);
  }
  if (opt.engine_metrics && flow_exporter) {
    std::vector<obs::FlowStatsTable*> tables;
    for (const Lane& lane : lanes) tables.push_back(lane.flow_table.get());
    obs::register_flow_metrics(*flow_exporter, tables, registry);
  }
  snapshots.emplace(registry);
  // The first capture is a full period in; the fold makes the report
  // observers the gauges read consistent before each sample.
  const sim::SimTime period = sim::from_seconds(opt.snapshot_period_s);
  if (period > 0) {
    actions.push_back({t0 + period, period, [this](sim::SimTime at) {
                         fold_lanes();
                         snapshots->capture(at);
                       }});
  }
}

void Scenario::Run::fold_lanes() {
  if (lanes.size() == 1) return;
  probe = qos::SlaProbe("scenario");
  for (const Lane& lane : lanes) probe.merge_from(*lane.probe);
  if (opt.latency_enabled()) {
    latency.reset();
    for (const Lane& lane : lanes) latency.merge_from(*lane.latency);
  }
}

void Scenario::Run::flow_scan(sim::SimTime at) {
  if (lanes.size() == 1) {
    flow_exporter->scan_table(*lanes[0].flow_table, at);
    return;
  }
  for (Lane& lane : lanes) flow_exporter->merge_table(*lane.flow_table);
  flow_exporter->scan(at);
}

void Scenario::Run::drive() {
  advance(actions, t0 + sim::from_seconds(sc.run_for_s_ + 2.0));
  if (flow_exporter) {
    // Whatever is still accumulating after the drain window exports with
    // cause=final.
    if (lanes.size() == 1) {
      flow_exporter->flush_table(*lanes[0].flow_table);
    } else {
      for (Lane& lane : lanes) flow_exporter->merge_table(*lane.flow_table);
      flow_exporter->flush();
    }
  }
  engine_summary = finish_engine();
  // Detach the lane tables before teardown.
  if (flow_exporter) topo.set_flow_stats(nullptr);
}

bool Scenario::Run::report() {
  out << "converged in "
      << sim::to_seconds(bb.service.last_route_change_at()) * 1e3
      << " ms; ran " << sc.run_for_s_ << " s of traffic" << engine_summary
      << "\n\n";
  out << probe.to_table(sc.run_for_s_).render();
  for (const auto& t : tcp_flows) {
    out << "tcp flow " << t->flow_id() << ": goodput "
        << stats::Table::num(t->goodput_bps(sc.run_for_s_) / 1e6, 2)
        << " Mb/s, retransmits " << t->retransmits() << "\n";
  }
  if (opt.latency_enabled()) {
    const obs::NodeNamer lnamer = obs::topology_node_namer(topo);
    if (opt.latency_report) {
      out << "\nlatency anatomy: per-hop decomposition\n"
          << latency.hop_table(lnamer, cs_class_namer()).render()
          << "\nlatency anatomy: per-class delay budget\n"
          << latency.class_table(cs_class_namer()).render();
    }
    if (!opt.latency_json_path.empty()) {
      std::ofstream lf(opt.latency_json_path);
      latency.write_json(lf, lnamer, cs_class_namer());
    }
  }
  if (opt.enabled()) {
    const obs::FlightRecorder& rec = topo.recorder();
    const obs::NodeNamer namer = obs::topology_node_namer(topo);
    if (snapshots) {
      snapshots->capture(topo.base_scheduler().now());  // after the drain
      std::ofstream mf(opt.metrics_json_path);
      snapshots->write_json(mf);
    }
    if (!opt.events_jsonl_path.empty()) {
      std::ofstream ef(opt.events_jsonl_path);
      obs::write_jsonl(rec, ef, namer);
    }
    if (!opt.chrome_trace_path.empty()) {
      std::ofstream cf(opt.chrome_trace_path);
      obs::write_chrome_trace(rec, cf, namer, sync_prof.get());
    }
    if (!opt.spans_trace_path.empty()) {
      const obs::SpanAnalysis spans = obs::analyze_spans(rec);
      std::ofstream sf(opt.spans_trace_path);
      obs::write_span_chrome_trace(spans, sf, namer);
    }
    out << "\nobs: " << rec.size() << " trace events held ("
        << rec.recorded() << " recorded, " << rec.overwritten()
        << " overwritten)";
    if (snapshots) {
      out << "; " << snapshots->count() << " metrics snapshots ("
          << registry.metric_count() << " metrics)";
    }
    out << "\n";
  }
  if (sync_prof) {
    const obs::SyncProfiler::Report srep = sync_prof->report();
    if (opt.sync_report) out << '\n' << srep.to_table();
    if (!opt.sync_json_path.empty()) {
      std::ofstream sf(opt.sync_json_path);
      srep.write_json(sf);
      sf << '\n';
    }
  }
  if (flow_exporter) {
    std::map<std::uint32_t, std::string> vpn_names;
    for (const auto& [name, id] : vpn_ids) vpn_names[id] = name;
    obs::VpnNamer vnamer = [vpn_names = std::move(vpn_names)](
                               std::uint32_t id) -> std::string {
      const auto it = vpn_names.find(id);
      return it == vpn_names.end() ? "vpn" + std::to_string(id) : it->second;
    };
    obs::PhbNamer pnamer = [](std::uint8_t phb) {
      return qos::to_string(static_cast<qos::Phb>(phb));
    };
    if (opt.flow_report) {
      out << "\nflow conformance: offered vs delivered per VPN x class ("
          << flow_exporter->records().size() << " flow records)\n"
          << flow_exporter->rollup_table(vnamer, pnamer).render();
    }
    if (!opt.flow_records_path.empty()) {
      std::ofstream ff(opt.flow_records_path);
      flow_exporter->write_jsonl(ff, obs::topology_node_namer(topo), vnamer,
                                 pnamer);
    }
    if (!opt.flow_records_bin_path.empty()) {
      std::ofstream fb(opt.flow_records_bin_path, std::ios::binary);
      flow_exporter->write_binary(fb);
    }
  }
  if (!opt.flow_profile_path.empty()) {
    // Measured off link transmit counters, which the run maintains whether
    // or not flow accounting was armed.
    std::ofstream pf(opt.flow_profile_path);
    write_flow_profile(measure_flow_profile(topo), topo, pf);
  }

  // Isolation / accounting verdict over every CE delivery: each CE's one
  // local sink saw them all, endpoint flows included.
  std::uint64_t delivered = 0;
  std::uint64_t leaks = 0;
  std::uint64_t unknown = 0;
  for (const Lane& lane : lanes) {
    delivered += lane.sink->delivered();
    leaks += lane.sink->leaks();
    unknown += lane.sink->unknown_flows();
  }
  out << "\ndelivered=" << delivered << " leaks=" << leaks
      << " unknown=" << unknown << "\n";
  return leaks == 0 && unknown == 0;
}

bool Scenario::run(std::ostream& out) const {
  Run run(*this, out);
  run.build();
  run.build_lanes();
  run.arm_flows();
  run.attach_observers();
  run.drive();
  return run.report();
}

std::optional<Scenario> load_scenario_file(const std::string& path,
                                           std::ostream& out) {
  std::ifstream in(path);
  if (!in) {
    out << "cannot open " << path << "\n";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ScenarioError error;
  auto scenario = Scenario::parse(buffer.str(), &error);
  if (!scenario) {
    out << path << ":" << error.line << ": " << error.message << "\n";
  }
  return scenario;
}

int run_scenario_file(const std::string& path, std::ostream& out) {
  const auto scenario = load_scenario_file(path, out);
  if (!scenario) return 2;
  return scenario->run(out) ? 0 : 1;
}

}  // namespace mvpn::backbone
