#include "gen.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>

#include "sim/rng.hpp"

namespace perfbench {

namespace bb = mvpn::backbone;
using mvpn::qos::Phb;
using mvpn::sim::Rng;

namespace {

/// 64-bit FNV-1a over 8-byte words.
struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void mix(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
};

std::uint16_t draw_port(Rng& rng, std::uint16_t lo, std::uint16_t hi) {
  return static_cast<std::uint16_t>(rng.uniform_int(lo, hi));
}

/// Number of P-P links MplsBackbone builds for a p-router core: the ring
/// plus, when `chord_stride` is in range, one chord per P router pair.
std::size_t core_link_count(std::size_t p, std::size_t chord_stride) {
  if (p < 2) return 0;
  std::size_t n = p == 2 ? 1 : p;
  if (chord_stride >= 2 && chord_stride + 2 <= p) {
    for (std::size_t i = 0; i < p; ++i) {
      if (i < (i + chord_stride) % p) ++n;
    }
  }
  return n;
}

}  // namespace

const char* to_string(ChurnEvent::Kind k) noexcept {
  switch (k) {
    case ChurnEvent::Kind::kOriginate: return "originate";
    case ChurnEvent::Kind::kCost: return "cost";
    case ChurnEvent::Kind::kFail: return "fail";
    case ChurnEvent::Kind::kRestore: return "restore";
  }
  return "?";
}

mvpn::ip::Prefix external_prefix(std::uint32_t pe, std::uint32_t slot) {
  const std::uint32_t idx = pe * kSlotsPerPe + slot;
  return mvpn::ip::Prefix(mvpn::ip::Ipv4Address((11u << 24) + (idx << 8)),
                          24);
}

std::uint64_t DataPlan::hash() const {
  Fnv fnv;
  fnv.mix(plan.hash());
  for (double w : core_wfq_weights) fnv.mix(w);
  for (const AclRule& r : acl) {
    fnv.mix(static_cast<std::uint64_t>(r.lo) << 32 |
            static_cast<std::uint64_t>(r.hi) << 8 |
            static_cast<std::uint64_t>(r.phb));
  }
  for (double c : ef_cir_bytes_s) fnv.mix(c);
  fnv.mix(policer_burst_bytes);
  fnv.mix(on_s);
  fnv.mix(off_s);
  fnv.mix(sim_s);
  fnv.mix(drain_s);
  return fnv.h;
}

DataPlan make_paper_qos(std::uint64_t seed) {
  constexpr std::size_t kPes = 16;
  constexpr std::size_t kVpns = 4;
  constexpr std::size_t kSites = 2 * kPes;
  constexpr std::size_t kFlows = 512;
  // Offered load relative to the nominal per-class rates below; sized so
  // the busiest core link direction sees ~120% of its DS3 rate.
  constexpr double kLoadScale = 1.5;

  DataPlan dp;
  bb::GeneratedPlan& plan = dp.plan;
  plan.params.seed = seed;
  plan.backbone.p_count = 8;
  plan.backbone.pe_count = kPes;
  plan.backbone.core_bw_bps = 45e6;
  plan.backbone.edge_bw_bps = 34e6;  // E3 access: the core is the bottleneck
  plan.backbone.seed = seed;
  dp.core_wfq_weights = {8, 3, 1};
  for (std::size_t v = 0; v < kVpns; ++v) {
    plan.vpns.push_back("vpn" + std::to_string(v));
  }
  // Two CEs per PE: even PEs serve VPNs 0/1, odd PEs VPNs 2/3, so every
  // VPN spans eight PEs spread around the ring.
  std::vector<std::vector<std::size_t>> sites_of(kVpns);
  for (std::size_t k = 0; k < kSites; ++k) {
    bb::PlanSite s;
    s.pe = k / 2;
    s.vpn = (k % 2) + 2 * (s.pe % 2);
    s.prefix = mvpn::ip::Prefix(
        mvpn::ip::Ipv4Address(static_cast<std::uint32_t>((10u << 24) + k * 256)),
        24);
    sites_of[s.vpn].push_back(k);
    plan.sites.push_back(s);
  }

  Rng rng = Rng::stream(seed, 0x7061706572716F73ULL);  // "paperqos"

  // 48-rule CPE ACL: the three rules the flows hit sit at seeded positions
  // among 45 filler rules on ports no flow uses (exact ports below 5000,
  // ranges above 30000), so first-match walks a realistic rule list.
  const AclRule voice{16384, 16484, Phb::kEf};
  const AclRule video{5004, 5011, Phb::kAf41};
  const AclRule data{20000, 20999, Phb::kBe};
  static constexpr Phb kFillerPhb[] = {Phb::kAf11, Phb::kAf21, Phb::kAf31,
                                       Phb::kCs6};
  for (int i = 0; i < 45; ++i) {
    AclRule r;
    if (rng.uniform() < 0.5) {
      r.lo = r.hi = draw_port(rng, 1024, 4999);
    } else {
      r.lo = draw_port(rng, 30000, 59000);
      r.hi = static_cast<std::uint16_t>(r.lo + rng.uniform_int(0, 500));
    }
    r.phb = kFillerPhb[rng.uniform_int(0, 3)];
    dp.acl.push_back(r);
  }
  for (const AclRule& r : {voice, video, data}) {
    const auto at = rng.uniform_int(0, static_cast<std::int64_t>(dp.acl.size()));
    dp.acl.insert(dp.acl.begin() + at, r);
  }

  // Exactly a quarter of the flows per class (voice, video, small BE, large
  // BE), in seeded order: the seed moves endpoints, ports and rates, not
  // the class mix that sets the per-packet cost.
  std::vector<int> cls(kFlows);
  for (std::size_t f = 0; f < kFlows; ++f) cls[f] = static_cast<int>(f % 4);
  for (std::size_t f = kFlows - 1; f > 0; --f) {
    std::swap(cls[f], cls[rng.uniform_int(0, static_cast<std::int64_t>(f))]);
  }
  std::vector<double> ef_offered(kSites, 0.0);
  for (std::size_t f = 0; f < kFlows; ++f) {
    const auto& members = sites_of[rng.uniform_int(0, kVpns - 1)];
    const auto n = static_cast<std::int64_t>(members.size());
    bb::PlanFlow flow;
    flow.from = members[rng.uniform_int(0, n - 1)];
    do {
      flow.to = members[rng.uniform_int(0, n - 1)];
    } while (flow.to == flow.from);
    double rate = 0;
    if (cls[f] == 0) {  // EF voice: G.711-like CBR, 172 B payload
      flow.kind = "cbr";
      flow.phb = Phb::kEf;
      flow.port = draw_port(rng, voice.lo, voice.hi);
      flow.size = 172;
      rate = 80e3;
    } else if (cls[f] == 1) {  // AF video: on/off bursts of 1172 B frames
      flow.kind = "onoff";
      flow.phb = Phb::kAf41;
      flow.port = draw_port(rng, video.lo, video.hi);
      flow.size = 1172;
      rate = 1.2e6 * kLoadScale;
    } else {  // BE data: Poisson, small or full-size packets
      flow.kind = "poisson";
      flow.phb = Phb::kBe;
      flow.port = draw_port(rng, data.lo, data.hi);
      flow.size = cls[f] == 2 ? 64 : 1472;
      rate = 0.6e6 * kLoadScale;
    }
    // Per-flow rate and phase jitter keep sources out of lockstep.
    flow.rate_bps = rate * (0.9 + 0.2 * rng.uniform());
    flow.start_s = 0.1 * rng.uniform();
    if (flow.phb == Phb::kEf) ef_offered[flow.from] += flow.rate_bps / 8.0;
    plan.flows.push_back(flow);
  }

  // EF policers (srTCM, so committed plus excess bucket admit up to twice
  // the CIR): 20% headroom over the site's voice load, except one site in
  // eight, whose contract admits only 80% of its load (the misbehaving
  // customer the edge policer exists for).
  dp.ef_cir_bytes_s.resize(kSites);
  for (std::size_t k = 0; k < kSites; ++k) {
    const double contract = std::max(ef_offered[k], 10e3);
    dp.ef_cir_bytes_s[k] = contract * (rng.uniform() < 0.125 ? 0.4 : 1.2);
  }
  dp.sim_s = 2.0;
  dp.drain_s = 1.0;
  return dp;
}

std::uint64_t ChurnPlan::hash() const {
  Fnv fnv;
  fnv.mix(static_cast<std::uint64_t>(core_links));
  for (const auto* list : {&initial, &events}) {
    fnv.mix(static_cast<std::uint64_t>(list->size()));
    for (const ChurnEvent& e : *list) {
      fnv.mix(static_cast<std::uint64_t>(e.kind) << 56 |
              static_cast<std::uint64_t>(e.pe) << 32 | e.vpn);
      fnv.mix(static_cast<std::uint64_t>(e.link) << 32 | e.cost);
      fnv.mix(static_cast<std::uint64_t>(e.slots.size()));
      for (std::uint32_t s : e.slots) fnv.mix(static_cast<std::uint64_t>(s));
    }
  }
  return fnv.h;
}

bb::GeneratedPlan make_control_churn_plan(std::uint64_t seed) {
  bb::TopogenParams params;
  params.p = 16;
  params.pe = 64;
  params.ce = 2;
  params.pod = 8;
  params.flows = 0;
  params.seed = seed;
  return bb::generate_plan(params);
}

ChurnPlan make_churn(std::uint64_t seed, const bb::GeneratedPlan& plan,
                     std::size_t initial_per_pe, std::size_t events) {
  const std::size_t pes = plan.backbone.pe_count;
  // The VPNs each PE serves (those of its sites), in plan order.
  std::vector<std::vector<std::uint32_t>> vpns_of(pes);
  for (const bb::PlanSite& s : plan.sites) {
    auto& v = vpns_of[s.pe];
    const auto vpn = static_cast<std::uint32_t>(s.vpn);
    if (std::find(v.begin(), v.end(), vpn) == v.end()) v.push_back(vpn);
  }
  std::vector<std::uint32_t> served;  // PEs with at least one VPN
  for (std::uint32_t pe = 0; pe < pes; ++pe) {
    if (!vpns_of[pe].empty()) served.push_back(pe);
  }
  ChurnPlan cp;
  cp.core_links = core_link_count(plan.backbone.p_count,
                                  plan.backbone.core_chord_stride);
  if (served.empty() || cp.core_links == 0) {
    throw std::invalid_argument("churn: plan has no VPN sites or no core");
  }

  Rng rng = Rng::stream(seed, 0x636875726E6F7073ULL);  // "churnops"
  // live[pe][slot]: every origination names a fresh prefix. Route bursts
  // only originate: in route-reflector mode a withdrawn route survives at
  // the clients (each RR keeps the other RR's reflected copy as its best),
  // so the expected-VRF check would fail every withdraw. CHANGES.md
  // records the defect.
  std::vector<std::vector<bool>> live(pes, std::vector<bool>(kSlotsPerPe));
  std::vector<std::size_t> used(pes, 0);
  auto originate = [&](std::uint32_t pe, std::uint32_t vpn, std::size_t n,
                       bool sequential) {
    if (used[pe] + n > kSlotsPerPe) {
      throw std::invalid_argument("churn: route slots exhausted");
    }
    used[pe] += n;
    ChurnEvent e;
    e.kind = ChurnEvent::Kind::kOriginate;
    e.pe = pe;
    e.vpn = vpn;
    while (e.slots.size() < n) {
      const auto s = sequential
                         ? static_cast<std::uint32_t>(e.slots.size())
                         : static_cast<std::uint32_t>(
                               rng.uniform_int(0, kSlotsPerPe - 1));
      if (live[pe][s]) continue;
      live[pe][s] = true;
      e.slots.push_back(s);
    }
    return e;
  };
  if (initial_per_pe > 0) {
    for (std::uint32_t pe : served) {
      cp.initial.push_back(
          originate(pe, vpns_of[pe].front(), initial_per_pe, true));
    }
  }

  std::vector<std::uint32_t> cost(cp.core_links, 1);
  std::int64_t down = -1;  // the one core link currently failed, if any
  const auto last_link = static_cast<std::int64_t>(cp.core_links) - 1;
  // Every block of ten events holds 4 route bursts, 3 cost changes and 3
  // fail/restore events in seeded order, so the kind mix behind the
  // percentiles is the same for every seed.
  enum Slot { kRoute, kCost, kLink };
  static constexpr Slot kBlock[] = {kRoute, kRoute, kRoute, kRoute, kCost,
                                    kCost,  kCost,  kLink,  kLink,  kLink};
  constexpr std::size_t kBlockLen = std::size(kBlock);
  Slot order[kBlockLen];
  for (std::size_t i = 0; i < events; ++i) {
    if (i % kBlockLen == 0) {
      std::copy(std::begin(kBlock), std::end(kBlock), order);
      for (std::size_t k = kBlockLen - 1; k > 0; --k) {
        std::swap(order[k],
                  order[rng.uniform_int(0, static_cast<std::int64_t>(k))]);
      }
    }
    const Slot slot = order[i % kBlockLen];
    if (slot == kRoute) {
      const std::uint32_t pe = served[rng.uniform_int(
          0, static_cast<std::int64_t>(served.size()) - 1)];
      const auto& v = vpns_of[pe];
      const std::uint32_t vpn =
          v[rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1)];
      const auto burst = static_cast<std::size_t>(rng.uniform_int(1, 16));
      cp.events.push_back(originate(pe, vpn, burst, false));
      continue;
    }
    ChurnEvent e;
    if (slot == kCost) {
      e.kind = ChurnEvent::Kind::kCost;
      e.link = static_cast<std::uint32_t>(rng.uniform_int(0, last_link));
      do {
        e.cost = static_cast<std::uint32_t>(rng.uniform_int(1, 20));
      } while (e.cost == cost[e.link]);
      cost[e.link] = e.cost;
    } else if (down >= 0) {
      e.kind = ChurnEvent::Kind::kRestore;
      e.link = static_cast<std::uint32_t>(down);
      down = -1;
    } else {
      e.kind = ChurnEvent::Kind::kFail;
      e.link = static_cast<std::uint32_t>(rng.uniform_int(0, last_link));
      down = e.link;
    }
    cp.events.push_back(std::move(e));
  }
  return cp;
}

}  // namespace perfbench
