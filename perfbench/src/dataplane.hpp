#pragma once

// One data-plane repetition: build the plan's network, converge it,
// optionally partition it, arm its flows, drive the data plane to the end
// of the drain window and account for every packet. The same public calls
// Scenario::run makes, timed from outside.

#include <cstdint>
#include <string>
#include <vector>

#include "churn.hpp"
#include "gen.hpp"
#include "trace.hpp"

namespace perfbench {

struct DataOptions {
  std::uint32_t shards = 1;
  bool profile = false;  ///< attach obs::SyncProfiler (sharded runs)
  bool sample = false;   ///< packet-tap sampling + lookup replay (serial)
  bool setup_only = false;          ///< stop once the traffic is armed
  const ChurnPlan* churn = nullptr;  ///< after the boot, churn instead of traffic
};

/// Per-call host cost of the lookups the sampled packets replayed.
struct Replay {
  std::uint64_t samples = 0;
  std::uint64_t classify_calls = 0;
  double classify_ns = 0;
  std::uint64_t lfib_calls = 0;
  double lfib_ns = 0;
  std::uint64_t vrf_calls = 0;
  double vrf_ns = 0;
};

struct DataRep {
  // Host seconds per phase: CPU time of the driver thread (trace.hpp's
  // Phase), except drive_s of a sharded run, which is wall time.
  double build_s = 0, boot_s = 0, partition_s = 0, arm_s = 0, drive_s = 0,
         report_s = 0;

  // Outcome: packet accounting and the SLA table.
  std::uint64_t sent = 0, delivered = 0, leaks = 0, unknown = 0;
  std::uint64_t drop_tail = 0, drop_red = 0, drop_policed = 0,
                drop_link = 0, drop_router = 0, queued = 0;
  std::string sla_csv;
  std::uint64_t sla_digest = 0;

  // Mechanism counters.
  std::uint32_t shards = 1;  ///< engine lanes the drive ran on
  std::uint64_t boot_events = 0, events = 0;
  std::uint64_t windows = 0, widened = 0, handoffs = 0;
  std::vector<std::uint64_t> shard_events;
  std::uint64_t cut_links = 0;
  std::uint64_t fc_hits = 0, fc_misses = 0;
  ControlCounters control;
  double state_bytes_per_flow = 0;
  double busiest_core_load = 0;  ///< offered / capacity, busiest direction

  // Sync profiler summary (profile == true, sharded).
  bool profiled = false;
  double busy_max = 0, busy_min = 0, worker_wait_s = 0, drain_s = 0;
  std::uint64_t exec_sum_ns = 0;

  Replay replay;
  ChurnResult churn;

  /// sent == delivered + drops + still queued.
  [[nodiscard]] std::int64_t imbalance() const {
    return static_cast<std::int64_t>(sent) -
           static_cast<std::int64_t>(delivered + drop_tail + drop_red +
                                     drop_policed + drop_link + drop_router +
                                     queued);
  }
};

[[nodiscard]] DataRep run_data_rep(const DataPlan& dp, const DataOptions& opt,
                                   Tracer& tr);

/// FNV-1a over a string (the SLA table digest).
[[nodiscard]] std::uint64_t digest(const std::string& s);

}  // namespace perfbench
