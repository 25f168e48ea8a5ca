// PR10 — control-plane fastpath under route churn (paper §2.1/§4 at the
// million-route end of the curve).
//
// Claims under test:
//  * packed MP-BGP update groups converge a PE cold boot to the exact same
//    Loc-RIBs as the legacy one-message-per-(route, peer) path, with >= 10x
//    fewer control-plane session messages on a 64-PE route-reflector
//    fabric;
//  * the compact Adj-RIB-In holds a 10^5-route cold boot inside a fixed
//    byte-per-route budget;
//  * same-tick withdraw+re-advertise storms are damped inside the flush
//    window (the flap never reaches the wire) without changing final state;
//  * killing a route reflector mid-convergence leaves packed and legacy
//    runs in identical final state;
//  * a single-link cost flap triggers no full SPF rebuild at any router
//    whose routing was not affected, while incremental mode reproduces the
//    full-rebuild mode's next hops exactly.
//
// Pass `--json FILE` for the machine-readable summary run_benchmarks.sh
// guards on; `--cold-boot-only` runs just the 10^5-route packed cold boot
// (the ASan smoke configuration).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "routing/bgp.hpp"
#include "routing/control_plane.hpp"
#include "routing/igp.hpp"
#include "stats/table.hpp"
#include "vpn/router.hpp"

namespace {

using namespace mvpn;
using vpn::Role;
using vpn::Router;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size in kB (VmHWM from /proc/self/status); 0 where
/// unavailable. Monotone over the process's life — the big phase reads it
/// right after its run.
std::uint64_t vmhwm_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// BGP fabric: PE speakers + route reflectors on a bare topology (iBGP
// sessions need no links). Every phase scripts the same fabric twice —
// packed and legacy — and compares Loc-RIB fingerprints.

struct BgpFabric {
  net::Topology topo;
  routing::ControlPlane cp{topo};
  routing::Bgp bgp;
  std::vector<ip::NodeId> pes;
  std::vector<ip::NodeId> rrs;

  BgpFabric(std::size_t pe_count, std::size_t rr_count, bool packed)
      : bgp(cp, rr_count > 0 ? routing::Bgp::Mode::kRouteReflector
                             : routing::Bgp::Mode::kFullMesh) {
    bgp.set_packing(packed);
    for (std::size_t i = 0; i < pe_count; ++i) {
      auto& r = topo.add_node<Router>("pe" + std::to_string(i), Role::kPe);
      pes.push_back(r.id());
      bgp.add_speaker(r.id());
    }
    for (std::size_t i = 0; i < rr_count; ++i) {
      auto& r = topo.add_node<Router>("rr" + std::to_string(i), Role::kPe);
      rrs.push_back(r.id());
      bgp.add_route_reflector(r.id());
    }
    bgp.start();
  }

  routing::VpnRoute route(std::size_t pe_index, std::uint32_t seq) const {
    routing::VpnRoute r;
    r.rd = routing::RouteDistinguisher{
        65000, static_cast<std::uint32_t>(pe_index) * 1000000u + seq};
    r.prefix = ip::Prefix(
        ip::Ipv4Address(10, std::uint8_t(1 + pe_index % 200),
                        std::uint8_t(seq / 250 % 250),
                        std::uint8_t(seq % 250)),
        24);
    r.next_hop = ip::Ipv4Address(10, 255, 0, std::uint8_t(pe_index));
    r.next_hop_node = pes[pe_index];
    r.vpn_label = static_cast<std::uint32_t>(1000 + seq);
    r.route_targets.push_back(routing::RouteTarget{65000, 1});
    return r;
  }

  void originate_all(std::uint32_t routes_per_pe) {
    for (std::size_t p = 0; p < pes.size(); ++p) {
      for (std::uint32_t i = 0; i < routes_per_pe; ++i) {
        bgp.originate(pes[p], route(p, i));
      }
    }
  }

  /// FNV over every speaker's Loc-RIB in deterministic (node, key) order —
  /// the "byte-identical route selection" witness.
  std::uint64_t fingerprint() const {
    std::uint64_t h = 1469598103934665603ull;
    auto all = pes;
    all.insert(all.end(), rrs.begin(), rrs.end());
    for (ip::NodeId n : all) {
      h = fnv(h, n);
      for (const routing::VpnRoute& r : bgp.loc_rib(n)) {
        h = fnv(h, (std::uint64_t{r.rd.asn} << 32) | r.rd.assigned);
        h = fnv(h, (std::uint64_t{r.prefix.address().value()} << 8) |
                       r.prefix.length());
        h = fnv(h, r.next_hop.value());
        h = fnv(h, r.next_hop_node);
        h = fnv(h, r.vpn_label);
        h = fnv(h, r.local_pref);
        h = fnv(h, r.originator);
        for (const auto& rt : r.route_targets) {
          h = fnv(h, (std::uint64_t{rt.asn} << 32) | rt.assigned);
        }
      }
    }
    return h;
  }
};

struct ColdBootRun {
  double wall_s = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  std::size_t routes_per_speaker = 0;
  std::size_t rib_bytes = 0;
  std::size_t rib_routes = 0;
};

ColdBootRun cold_boot(std::size_t pe_count, std::size_t rr_count,
                      std::uint32_t routes_per_pe, bool packed) {
  BgpFabric f(pe_count, rr_count, packed);
  const std::uint64_t ev0 = f.topo.base_scheduler().executed_count();
  const double t0 = wall_now();
  f.originate_all(routes_per_pe);
  f.topo.scheduler().run();
  ColdBootRun r;
  r.wall_s = wall_now() - t0;
  r.messages = f.cp.total_messages();
  r.bytes = f.cp.total_bytes();
  r.events = f.topo.base_scheduler().executed_count() - ev0;
  r.fingerprint = f.fingerprint();
  r.routes_per_speaker = f.bgp.loc_rib_size(f.pes[0]);
  r.rib_bytes = f.bgp.adj_rib_bytes();
  r.rib_routes = f.bgp.adj_rib_routes();
  return r;
}

struct FlapRun {
  std::uint64_t messages = 0;
  std::uint64_t superseded = 0;
  std::uint64_t fingerprint = 0;
};

/// Same-tick withdraw + re-advertise storms: every cycle, every PE flaps
/// its first `flap_count` routes inside one flush window.
FlapRun flap_storm(std::size_t pe_count, std::size_t rr_count,
                   std::uint32_t routes_per_pe, std::uint32_t flap_count,
                   std::uint32_t cycles, bool packed) {
  BgpFabric f(pe_count, rr_count, packed);
  f.originate_all(routes_per_pe);
  f.topo.scheduler().run();
  const std::uint64_t settled = f.cp.total_messages();
  for (std::uint32_t c = 1; c <= cycles; ++c) {
    for (std::size_t p = 0; p < f.pes.size(); ++p) {
      for (std::uint32_t i = 0; i < flap_count; ++i) {
        routing::VpnRoute r = f.route(p, i);
        f.bgp.withdraw(f.pes[p], r.rd, r.prefix);
        r.vpn_label += 10000 * c;  // the replacement differs each cycle
        f.bgp.originate(f.pes[p], r);
      }
    }
    f.topo.scheduler().run();
  }
  FlapRun r;
  r.messages = f.cp.total_messages() - settled;
  r.superseded = f.bgp.rib_out().superseded();
  r.fingerprint = f.fingerprint();
  return r;
}

struct FailoverRun {
  std::uint64_t messages = 0;
  std::uint64_t fingerprint = 0;
  std::size_t routes_at_client = 0;
};

/// Kill one of two RRs while its reflected updates are still in flight
/// (between the 5 ms first-hop and 10 ms reflected-hop delivery instants).
FailoverRun rr_failover(std::size_t pe_count, std::uint32_t routes_per_pe,
                        bool packed) {
  BgpFabric f(pe_count, 2, packed);
  f.originate_all(routes_per_pe);
  f.topo.run_until(7 * sim::kMillisecond);
  f.bgp.fail_speaker(f.rrs[0]);
  f.topo.scheduler().run();
  FailoverRun r;
  r.messages = f.cp.total_messages();
  r.fingerprint = f.fingerprint();
  r.routes_at_client = f.bgp.loc_rib_size(f.pes[0]);
  return r;
}

// ---------------------------------------------------------------------------
// SPF flap phase: ring + chord topology, single-link cost flaps.

struct SpfFixture {
  net::Topology topo;
  routing::ControlPlane cp{topo};
  routing::Igp igp{cp};
  std::vector<ip::NodeId> routers;
  net::LinkId chord = net::kInvalidLink;

  /// Even-cost ring with one odd-cost chord (0 <-> R/2): parity keeps
  /// chord-using and ring-only paths from ever tying, so "routing
  /// unchanged" is detectable purely from next-hop/cost fingerprints.
  SpfFixture(std::size_t count, std::uint32_t chord_cost, bool full) {
    igp.set_full_spf(full);
    for (std::size_t i = 0; i < count; ++i) {
      auto& r = topo.add_node<Router>(
          std::string("r").append(std::to_string(i)), Role::kP);
      routers.push_back(r.id());
      igp.add_router(r.id());
    }
    net::LinkConfig ring;
    ring.igp_cost = 2;
    for (std::size_t i = 0; i < count; ++i) {
      topo.connect(routers[i], routers[(i + 1) % count], ring);
    }
    net::LinkConfig cc;
    cc.igp_cost = chord_cost;
    chord = topo.connect(routers[0], routers[count / 2], cc);
    igp.start();
    topo.scheduler().run();
  }

  void flap_chord(std::uint32_t cost) {
    topo.link(chord).set_igp_cost(cost);
    igp.notify_link_change(chord);
    topo.scheduler().run();
  }

  std::uint64_t router_fingerprint(ip::NodeId r) const {
    std::uint64_t h = 1469598103934665603ull;
    for (ip::NodeId d : routers) {
      if (d == r) continue;
      for (const auto& nh : igp.next_hops_ecmp(r, d)) {
        h = fnv(h, d);
        h = fnv(h, nh.via);
        h = fnv(h, nh.cost);
      }
    }
    return h;
  }

  std::vector<std::uint64_t> fingerprints() const {
    std::vector<std::uint64_t> fp;
    for (ip::NodeId r : routers) fp.push_back(router_fingerprint(r));
    return fp;
  }
};

struct SpfResult {
  std::size_t routers = 0;
  bool identical = true;          ///< incremental == full next hops, per flap
  std::uint64_t unaffected_full_runs = 0;
  std::uint64_t incremental_runs = 0;
  std::uint64_t skipped = 0;
  std::uint64_t full_runs_incremental_mode = 0;
  std::uint64_t edges_relaxed_incremental = 0;
  std::uint64_t edges_relaxed_full = 0;
};

SpfResult spf_flap_phase(std::size_t count) {
  // Chord starts useless (49 > the worst ring distance of 48), drops to 5
  // (shortcut for roughly half the pairs), then snaps back.
  SpfFixture inc(count, 51, false);
  SpfFixture ful(count, 51, true);

  SpfResult res;
  res.routers = count;

  // Post-convergence baselines: the flap deltas are what we judge.
  const std::uint64_t er_inc0 = inc.igp.edges_relaxed();
  const std::uint64_t er_ful0 = ful.igp.edges_relaxed();
  std::vector<routing::Igp::SpfCounters> base;
  for (ip::NodeId r : inc.routers) {
    base.push_back(inc.igp.router_spf_counters(r));
  }
  const std::vector<std::uint64_t> fp0 = inc.fingerprints();

  std::vector<bool> ever_changed(count, false);
  for (std::uint32_t cost : {49u, 5u, 49u}) {
    inc.flap_chord(cost);
    ful.flap_chord(cost);
    const auto fi = inc.fingerprints();
    const auto ff = ful.fingerprints();
    for (std::size_t i = 0; i < count; ++i) {
      if (fi[i] != ff[i]) res.identical = false;
      if (fi[i] != fp0[i]) ever_changed[i] = true;
    }
  }

  for (std::size_t i = 0; i < count; ++i) {
    const auto after = inc.igp.router_spf_counters(inc.routers[i]);
    const std::uint64_t full_delta = after.full - base[i].full;
    if (!ever_changed[i]) res.unaffected_full_runs += full_delta;
    res.incremental_runs += after.incremental - base[i].incremental;
    res.skipped += after.skipped - base[i].skipped;
    res.full_runs_incremental_mode += full_delta;
  }
  res.edges_relaxed_incremental = inc.igp.edges_relaxed() - er_inc0;
  res.edges_relaxed_full = ful.igp.edges_relaxed() - er_ful0;
  return res;
}

void json_bool(std::ofstream& o, bool b) { o << (b ? "true" : "false"); }

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool cold_boot_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cold-boot-only") == 0) {
      cold_boot_only = true;
    }
  }

  if (cold_boot_only) {
    // ASan smoke: the 10^5-route packed cold boot alone, small fabric.
    const ColdBootRun big = cold_boot(4, 1, 25000, true);
    std::printf(
        "cold boot (4 PE + 1 RR, 100000 routes, packed): %.2fs, "
        "%llu msgs, %zu routes/speaker, %.1f adj-rib B/route\n",
        big.wall_s, static_cast<unsigned long long>(big.messages),
        big.routes_per_speaker,
        big.rib_routes ? double(big.rib_bytes) / double(big.rib_routes) : 0.0);
    if (big.routes_per_speaker != 100000) {
      std::fprintf(stderr, "cold boot failed to converge\n");
      return 1;
    }
    return 0;
  }

  std::printf(
      "PR10 — control-plane churn: packed update groups, compact RIB, "
      "incremental SPF\n\n");

  // ---- phase 1: 64-PE cold boot, packed vs legacy -------------------------
  const std::size_t kPes = 64;
  const std::uint32_t kRoutes = 48;
  const ColdBootRun packed = cold_boot(kPes, 2, kRoutes, true);
  const ColdBootRun legacy = cold_boot(kPes, 2, kRoutes, false);
  const bool cold_identical = packed.fingerprint == legacy.fingerprint;
  const double msg_ratio =
      packed.messages ? double(legacy.messages) / double(packed.messages) : 0;
  const double byte_ratio =
      packed.bytes ? double(legacy.bytes) / double(packed.bytes) : 0;
  const double event_ratio =
      packed.events ? double(legacy.events) / double(packed.events) : 0;
  {
    stats::Table t{"path", "session msgs", "wire bytes", "sched events",
                   "wall s", "loc-rib fp"};
    t.add_row({"legacy", stats::Table::num(legacy.messages),
               stats::Table::num(legacy.bytes),
               stats::Table::num(legacy.events),
               stats::Table::num(legacy.wall_s, 3),
               std::to_string(legacy.fingerprint)});
    t.add_row({"packed", stats::Table::num(packed.messages),
               stats::Table::num(packed.bytes),
               stats::Table::num(packed.events),
               stats::Table::num(packed.wall_s, 3),
               std::to_string(packed.fingerprint)});
    std::printf("E12a — cold boot, %zu PEs + 2 RRs, %u routes/PE:\n%s\n",
                kPes, kRoutes, t.render().c_str());
    std::printf(
        "identical RIBs: %s; msgs %.1fx fewer, bytes %.1fx fewer, events "
        "%.1fx fewer\n\n",
        cold_identical ? "yes" : "NO", msg_ratio, byte_ratio, event_ratio);
  }

  // ---- phase 2: 10^5-route packed cold boot + footprint -------------------
  const ColdBootRun big = cold_boot(8, 1, 12500, true);
  const double b_per_route =
      big.rib_routes ? double(big.rib_bytes) / double(big.rib_routes) : 0.0;
  const std::uint64_t hwm_mb = vmhwm_kb() / 1024;
  std::printf(
      "E12b — cold boot, 8 PEs + 1 RR, 100000 routes, packed:\n"
      "  wall %.2fs, %llu session msgs, %llu events, "
      "%zu routes/speaker, adj-rib %.1f B/route, VmHWM %llu MB\n\n",
      big.wall_s, static_cast<unsigned long long>(big.messages),
      static_cast<unsigned long long>(big.events), big.routes_per_speaker,
      b_per_route, static_cast<unsigned long long>(hwm_mb));
  const bool big_converged = big.routes_per_speaker == 100000;

  // ---- phase 3: same-tick flap storm --------------------------------------
  const FlapRun fs_packed = flap_storm(16, 2, 32, 8, 10, true);
  const FlapRun fs_legacy = flap_storm(16, 2, 32, 8, 10, false);
  const bool flap_identical = fs_packed.fingerprint == fs_legacy.fingerprint;
  const double flap_ratio =
      fs_packed.messages ? double(fs_legacy.messages) / double(fs_packed.messages)
                         : 0;
  std::printf(
      "E12c — flap storm (16 PEs, 10 cycles x 8 same-tick withdraw+replace "
      "per PE):\n  packed %llu msgs vs legacy %llu (%.1fx fewer), "
      "%llu flaps damped in the flush window, identical RIBs: %s\n\n",
      static_cast<unsigned long long>(fs_packed.messages),
      static_cast<unsigned long long>(fs_legacy.messages), flap_ratio,
      static_cast<unsigned long long>(fs_packed.superseded),
      flap_identical ? "yes" : "NO");

  // ---- phase 4: RR failover mid-convergence -------------------------------
  const FailoverRun fo_packed = rr_failover(16, 64, true);
  const FailoverRun fo_legacy = rr_failover(16, 64, false);
  const bool fo_identical = fo_packed.fingerprint == fo_legacy.fingerprint;
  std::printf(
      "E12d — RR failover at t=7ms (reflections in flight): packed and "
      "legacy final state identical: %s (%zu routes at a surviving "
      "client)\n\n",
      fo_identical ? "yes" : "NO", fo_packed.routes_at_client);

  // ---- phase 5: single-link cost flap, incremental vs full SPF ------------
  const SpfResult spf = spf_flap_phase(48);
  std::printf(
      "E12e — 48-router ring+chord, chord cost 51->49->5->49:\n"
      "  incremental == full next hops: %s\n"
      "  full rebuilds at routing-unaffected routers: %llu (want 0)\n"
      "  incremental runs %llu, proven no-op skips %llu, full rebuilds "
      "%llu\n"
      "  edges relaxed: incremental %llu vs full-mode %llu (%.1fx less "
      "work)\n\n",
      spf.identical ? "yes" : "NO",
      static_cast<unsigned long long>(spf.unaffected_full_runs),
      static_cast<unsigned long long>(spf.incremental_runs),
      static_cast<unsigned long long>(spf.skipped),
      static_cast<unsigned long long>(spf.full_runs_incremental_mode),
      static_cast<unsigned long long>(spf.edges_relaxed_incremental),
      static_cast<unsigned long long>(spf.edges_relaxed_full),
      spf.edges_relaxed_incremental
          ? double(spf.edges_relaxed_full) /
                double(spf.edges_relaxed_incremental)
          : 0.0);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n  \"cold_boot\": {\n"
        << "    \"pes\": " << kPes << ",\n    \"routes_per_pe\": " << kRoutes
        << ",\n    \"identical\": ";
    json_bool(out, cold_identical);
    out << ",\n    \"packed_messages\": " << packed.messages
        << ",\n    \"legacy_messages\": " << legacy.messages
        << ",\n    \"message_ratio\": " << msg_ratio
        << ",\n    \"packed_wire_bytes\": " << packed.bytes
        << ",\n    \"legacy_wire_bytes\": " << legacy.bytes
        << ",\n    \"wire_byte_ratio\": " << byte_ratio
        << ",\n    \"event_ratio\": " << event_ratio
        << ",\n    \"packed_wall_s\": " << packed.wall_s
        << ",\n    \"legacy_wall_s\": " << legacy.wall_s << "\n  },\n";
    out << "  \"cold_boot_1e5\": {\n    \"routes\": 100000,\n"
        << "    \"converged\": ";
    json_bool(out, big_converged);
    out << ",\n    \"wall_s\": " << big.wall_s
        << ",\n    \"messages\": " << big.messages
        << ",\n    \"rib_bytes_per_route\": " << b_per_route
        << ",\n    \"vmhwm_mb\": " << hwm_mb << "\n  },\n";
    out << "  \"flap_storm\": {\n    \"identical\": ";
    json_bool(out, flap_identical);
    out << ",\n    \"superseded\": " << fs_packed.superseded
        << ",\n    \"packed_messages\": " << fs_packed.messages
        << ",\n    \"legacy_messages\": " << fs_legacy.messages
        << ",\n    \"message_ratio\": " << flap_ratio << "\n  },\n";
    out << "  \"rr_failover\": {\n    \"identical\": ";
    json_bool(out, fo_identical);
    out << ",\n    \"routes_at_client\": " << fo_packed.routes_at_client
        << "\n  },\n";
    out << "  \"spf_flap\": {\n    \"routers\": " << spf.routers
        << ",\n    \"identical\": ";
    json_bool(out, spf.identical);
    out << ",\n    \"unaffected_full_runs\": " << spf.unaffected_full_runs
        << ",\n    \"incremental_runs\": " << spf.incremental_runs
        << ",\n    \"skipped\": " << spf.skipped
        << ",\n    \"full_runs_incremental_mode\": "
        << spf.full_runs_incremental_mode
        << ",\n    \"edges_relaxed_incremental\": "
        << spf.edges_relaxed_incremental
        << ",\n    \"edges_relaxed_full\": " << spf.edges_relaxed_full
        << "\n  }\n}\n";
    std::printf("churn summary written to %s\n", json_path.c_str());
  }

  const bool ok = cold_identical && big_converged && flap_identical &&
                  fo_identical && spf.identical &&
                  spf.unaffected_full_runs == 0;
  if (!ok) {
    std::fprintf(stderr, "CHURN PHASE FAILURES — see above\n");
    return 1;
  }
  return 0;
}
