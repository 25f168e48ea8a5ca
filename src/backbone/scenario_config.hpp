#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backbone/fixtures.hpp"
#include "backbone/topogen.hpp"
#include "obs/trace.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"

namespace mvpn::backbone {

/// Observability hooks for a scenario run: which trace categories to
/// record and where to write the artefacts. Empty paths skip that output;
/// all-empty (the default) leaves the flight recorder disabled so the run
/// costs nothing extra.
struct ObsOptions {
  std::uint32_t trace_mask = obs::kAllCategories;
  std::size_t ring_capacity = 0;      ///< 0: recorder default
  std::string chrome_trace_path;      ///< Chrome trace_event JSON
  std::string events_jsonl_path;      ///< one JSON object per trace event
  std::string metrics_json_path;      ///< periodic metrics snapshot series
  std::string spans_trace_path;       ///< Chrome duration spans (obs/spans)
  double snapshot_period_s = 0.5;

  /// Latency-anatomy outputs. These arm the per-hop delay decomposition
  /// (LatencyCollector), which is independent of the flight recorder.
  bool latency_report = false;        ///< print decomposition tables
  std::string latency_json_path;      ///< decomposition JSON

  /// Engine sync telemetry (obs::SyncProfiler): per-epoch phase timings
  /// and load-imbalance attribution for sharded runs. Independent of the
  /// flight recorder; serial runs print/emit a one-lane serial report.
  bool sync_report = false;           ///< print the sync profile table
  std::string sync_json_path;         ///< machine-readable sync report

  /// Register engine counters (windows, widened, handoffs, ...) with the
  /// metrics registry on sharded runs. Off by default because the values
  /// are engine-configuration-dependent — the cross-shard byte-identity
  /// checks compare metrics snapshots across shard counts.
  bool engine_metrics = false;

  /// Register control-plane counters (SPF full/incremental/skipped runs,
  /// BGP updates sent/packed, wire bytes, Adj-RIB occupancy) under
  /// `control/...`. Off by default for the same reason as engine_metrics:
  /// the values depend on the updates=/spf= mode, and scenario
  /// byte-identity compares metrics snapshots across modes.
  bool control_metrics = false;

  /// Per-flow telemetry plane (obs::FlowStatsTable + FlowExporter): one
  /// accounting table per engine lane, drained into IPFIX-style flow
  /// records at exact scan instants so the record stream is byte-identical
  /// across shard counts. Independent of the flight recorder. The
  /// `engine/flow/...` gauges ride the engine_metrics opt-in above.
  std::string flow_records_path;      ///< flow records, one JSON per line
  std::string flow_records_bin_path;  ///< compact binary records ("MVFR")
  bool flow_report = false;           ///< print per-VPN x class rollup
  std::string flow_profile_path;      ///< measured node/link flow weights
  double flow_active_timeout_s = 0.5;
  double flow_idle_timeout_s = 0.25;
  /// Exporter scan cadence. Defaults to the idle timeout: scanning faster
  /// than the smallest timeout only quantizes cut instants more finely at
  /// the cost of an extra table drain per instant.
  double flow_scan_period_s = 0.25;

  /// Anything here requires the flight recorder.
  [[nodiscard]] bool enabled() const noexcept {
    return !chrome_trace_path.empty() || !events_jsonl_path.empty() ||
           !metrics_json_path.empty() || !spans_trace_path.empty();
  }
  [[nodiscard]] bool latency_enabled() const noexcept {
    return latency_report || !latency_json_path.empty() ||
           !metrics_json_path.empty();
  }
  [[nodiscard]] bool sync_enabled() const noexcept {
    return sync_report || !sync_json_path.empty();
  }
  /// Flow-record outputs arm the accounting tables. The profile does not:
  /// it reads link transmit counters the run maintains anyway.
  [[nodiscard]] bool flow_enabled() const noexcept {
    return !flow_records_path.empty() || !flow_records_bin_path.empty() ||
           flow_report;
  }
};

/// Line-oriented scenario description language, so experiments can be run
/// from a text file instead of C++ ('#' starts a comment):
///
///   backbone p=2 pe=2 core_bw=4e6 edge_bw=20e6 seed=7 bgp=mesh
///            core_queue=wfq:8,3,1          # fifo | prio | wfq:w,... | drr:w,...
///                                          # | red[:min,max,maxp]
///
/// Or, instead of hand-written backbone/vpn/site/flow lines, a generated
/// ISP-scale topology (see backbone/topogen.hpp for the parameters):
///
///   topology generated p=64 pe=256 ce=4 flows=200000 seed=3
///   vpn corp
///   extranet corp partner                  # corp imports partner's routes
///   site corp pe=0 prefix=10.1.0.0/16      # site index = declaration order
///   site corp pe=1 prefix=10.2.0.0/16
///   classify site=0 dstport=16384-16484 class=EF
///   police  site=0 class=EF cir=62500 cbs=4000 ebs=4000   # bytes/s, bytes
///   shape   site=0 class=AF11 rate=125000 burst=3000
///   flow cbr     vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
///   flow poisson vpn=corp from=0 to=1 rate=1e6 size=1472
///   flow onoff   vpn=corp from=0 to=1 rate=2e6 on=0.3 off=0.2 class=AF21 port=5004
///   flow tcp     vpn=corp from=0 to=1 class=BE port=80 size=1432   # greedy elastic
///   run for=5 shards=4 flowcache=off       # seconds of traffic (+2 s drain);
///                                          # shards>1 = parallel engine;
///                                          # flowcache=off: slow path only;
///                                          # updates=legacy: per-route BGP
///                                          # messages instead of packed
///                                          # update groups (A/B)
///                                          # spf=full: full Dijkstra per
///                                          # LSA install instead of
///                                          # incremental SPF (A/B)
///
/// Flows start when the control plane has converged — together by default,
/// or offset by `start=SECONDS` on a flow line (generated topologies set
/// per-flow offsets to keep same-class sources out of nanosecond lockstep;
/// see PlanFlow in backbone/topogen.hpp). Source and destination hosts are
/// derived from the sites' prefixes. cbr/poisson/onoff flows are emitted by
/// one traffic::FlowSet per engine lane.
///
/// Each directive accepts exactly the keys listed above (`premark=1` on a
/// flow line writes the class DSCP at the host); an unknown key, a stray
/// bare token or a malformed value (a non-number, a negative on/off time or
/// burst, a core queue spec that names an unknown kind or carries a bad
/// weight or threshold) fails the parse with its line number.
struct ScenarioError {
  std::size_t line = 0;
  std::string message;
};

/// Parsed scenario, buildable into a live MplsBackbone.
class Scenario {
 public:
  /// Parse; on failure returns nullopt and fills `error`.
  static std::optional<Scenario> parse(const std::string& text,
                                       ScenarioError* error);

  /// Build the network, run the traffic, and print the SLA report (and
  /// isolation accounting) to `out`. Returns false if any isolation
  /// violation was observed.
  bool run(std::ostream& out) const;

  /// Attach observability outputs to the next run() (flight-recorder
  /// traces, metrics snapshots).
  void set_obs(ObsOptions obs) { obs_ = std::move(obs); }
  [[nodiscard]] const ObsOptions& obs() const noexcept { return obs_; }

  /// Partition the topology into `n` shards and run the traffic phase with
  /// one engine lane per shard (1 = one lane on the serial scheduler, the
  /// default; also settable from the scenario file via `run shards=N`).
  /// Reports are byte-identical for every `n`. Scenarios with tcp flows run
  /// on one lane whatever `n` is, and say so: a TCP-lite flow's congestion
  /// state spans both endpoint CEs, which may land on different shards.
  void set_shards(std::uint32_t n) { shards_ = n == 0 ? 1 : n; }
  [[nodiscard]] std::uint32_t shards() const noexcept { return shards_; }

  /// Enable/disable the per-router flow fastpath caches for the run (also
  /// settable from the scenario file via `run flowcache=off`). Results are
  /// identical either way — the toggle exists for A/B verification and
  /// benchmarking of the fastpath.
  void set_flowcache(bool on) { flowcache_ = on; }
  [[nodiscard]] bool flowcache() const noexcept { return flowcache_; }

  /// Print partition diagnostics (cut size, per-shard node / CE / flow
  /// balance, lookahead) to stderr when the run goes parallel.
  void set_verbose(bool on) { verbose_ = on; }
  [[nodiscard]] bool verbose() const noexcept { return verbose_; }

  /// Send one BGP message per (route, peer) instead of packed per-peer
  /// update groups (also settable via `run updates=legacy`). Final RIBs
  /// and traffic results are byte-identical either way — the toggle is
  /// the control-plane fastpath's A/B guard.
  void set_legacy_updates(bool on) { legacy_updates_ = on; }
  [[nodiscard]] bool legacy_updates() const noexcept {
    return legacy_updates_;
  }

  /// Run a full Dijkstra on every LSA install instead of incremental SPF
  /// (also settable via `run spf=full`). Identical next-hop tables either
  /// way; the toggle exists for A/B verification and SPF-work accounting.
  void set_full_spf(bool on) { full_spf_ = on; }
  [[nodiscard]] bool full_spf() const noexcept { return full_spf_; }

  /// Per-node flow weights for the partitioner (a measured FlowProfile's
  /// node_weight vector, typically from a prior run's --flow-profile).
  /// Empty (the default) keeps the node-count plan. Sharding is
  /// result-transparent, so a different plan changes wall-clock balance
  /// but never the reports.
  void set_partition_weights(std::vector<std::uint64_t> w) {
    partition_weights_ = std::move(w);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& partition_weights()
      const noexcept {
    return partition_weights_;
  }

  /// True when the scenario came from a `topology generated` directive.
  [[nodiscard]] bool generated() const noexcept {
    return topogen_.has_value();
  }
  [[nodiscard]] const std::optional<TopogenParams>& topogen() const noexcept {
    return topogen_;
  }

  /// --- introspection (mostly for tests) ---------------------------------
  [[nodiscard]] std::size_t vpn_count() const noexcept {
    return vpns_.size();
  }
  [[nodiscard]] std::size_t site_count() const noexcept {
    return sites_.size();
  }
  [[nodiscard]] std::size_t flow_count() const noexcept {
    return flows_.size();
  }
  [[nodiscard]] double run_seconds() const noexcept { return run_for_s_; }

 private:
  /// One execution of the scenario, split into the steps run() calls
  /// (defined in scenario_config.cpp).
  struct Run;

  struct SiteDecl {
    std::string vpn;
    std::size_t pe = 0;
    ip::Prefix prefix;
  };
  struct ClassifyDecl {
    std::size_t site = 0;
    std::uint16_t port_lo = 0;
    std::uint16_t port_hi = 65535;
    qos::Phb phb = qos::Phb::kBe;
  };
  struct PoliceDecl {
    std::size_t site = 0;
    qos::Phb phb = qos::Phb::kBe;
    double cir = 0, cbs = 0, ebs = 0;
  };
  struct ShapeDecl {
    std::size_t site = 0;
    qos::Phb phb = qos::Phb::kBe;
    double rate = 0, burst = 0;
  };
  struct FlowDecl {
    std::string kind;  // cbr | poisson | onoff
    std::string vpn;
    std::size_t from = 0, to = 0;
    double rate = 1e6;
    double on_s = 0.2, off_s = 0.2;
    qos::Phb phb = qos::Phb::kBe;
    bool premark = false;
    std::uint16_t port = 20000;
    std::size_t size = 472;
    double start_s = 0;  ///< start= : emission begins this long after t0
  };

  BackboneConfig backbone_;
  std::string core_queue_spec_ = "fifo";
  std::vector<std::string> vpns_;
  std::vector<std::pair<std::string, std::string>> extranets_;
  std::vector<SiteDecl> sites_;
  std::vector<ClassifyDecl> classifies_;
  std::vector<PoliceDecl> polices_;
  std::vector<ShapeDecl> shapes_;
  std::vector<FlowDecl> flows_;
  double run_for_s_ = 2.0;
  std::uint32_t shards_ = 1;
  bool flowcache_ = true;
  bool verbose_ = false;
  bool legacy_updates_ = false;
  bool full_spf_ = false;
  std::vector<std::uint64_t> partition_weights_;
  std::optional<TopogenParams> topogen_;
  ObsOptions obs_;
};

/// Read and parse a scenario file. On failure prints "cannot open PATH" or
/// "PATH:LINE: message" to `out` and returns nullopt.
std::optional<Scenario> load_scenario_file(const std::string& path,
                                           std::ostream& out);

/// Convenience: load + run with the file's own settings. Returns
/// process-style exit code (0 ok, 1 isolation violation, 2 parse/usage
/// error).
int run_scenario_file(const std::string& path, std::ostream& out);

}  // namespace mvpn::backbone
