#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ip/address.hpp"
#include "ip/route_table.hpp"
#include "routing/bgp_types.hpp"
#include "routing/control_plane.hpp"
#include "routing/rib.hpp"
#include "routing/rib_out.hpp"

namespace mvpn::routing {

/// MP-BGP mesh distributing VPN-IPv4 routes among PE routers, in either
/// full-mesh iBGP or route-reflector topology — the control-plane half of
/// the scalability story (experiments E1/E7 count its sessions, messages
/// and per-node state).
///
/// Speakers enrolled with enable_rt_filter() (the VPN service's PEs)
/// filter inbound routes by route target: they keep, decide and report
/// only the routes that carry a target they import, plus their own
/// originations, and send a ROUTE-REFRESH when their import set grows
/// after start() (INTERNALS.md §15.5). Reflectors and unenrolled speakers
/// keep every route.
///
/// Two emission paths, byte-identical in final routing state:
///  * packed (default) — advertisements and withdraws stage through a
///    per-speaker RibOut (update groups keyed by export-policy peer set),
///    flushed by one scheduled event per speaker per flush instant into
///    MTU-bounded multi-NLRI messages (INTERNALS.md §15);
///  * legacy (`set_packing(false)`) — one session event and one message
///    per (route, peer), the pre-packing baseline the A/B guards compare
///    against.
class Bgp {
 public:
  enum class Mode { kFullMesh, kRouteReflector };

  explicit Bgp(ControlPlane& cp, Mode mode = Mode::kFullMesh);

  /// Enroll a PE speaker (a route-reflector client in RR mode).
  void add_speaker(ip::NodeId pe);
  /// Enroll a route reflector (RR mode only; RRs full-mesh among
  /// themselves and serve every speaker as a client).
  void add_route_reflector(ip::NodeId rr);

  /// Make `pe` a route-target filtering speaker (before start()). Its
  /// import set starts empty: until add_import_targets() it keeps only its
  /// own originations. A reflector never filters.
  void enable_rt_filter(ip::NodeId pe);
  /// Add `rts` to `pe`'s import set. When the set grows after start(), a
  /// filtering `pe` sends one ROUTE-REFRESH to each peer, and each peer
  /// re-advertises to it every Loc-RIB route it would advertise to it.
  void add_import_targets(ip::NodeId pe, const std::vector<RouteTarget>& rts);

  /// Establish all sessions per the mode (counts OPEN exchanges).
  void start();

  /// Inject a locally-originated route at `pe` (e.g. learned from an
  /// attached CE) and propagate.
  void originate(ip::NodeId pe, VpnRoute route);
  /// Withdraw a locally-originated route.
  void withdraw(ip::NodeId pe, const RouteDistinguisher& rd,
                const ip::Prefix& prefix);

  /// Simulate a speaker crash: every peer tears down its session with
  /// `pe`, flushes the routes learned from it and re-runs best-path
  /// selection — the mechanism behind PE-failure failover for multihomed
  /// sites. Updates `pe` had queued but not yet flushed die with its
  /// sessions. (`pe` itself goes silent; its RIB state is untouched so a
  /// later restart could be modeled on top.)
  void fail_speaker(ip::NodeId pe);

  /// Fired whenever a speaker's Loc-RIB best path for some key changes.
  /// `withdrawn` means the key now has no route at that speaker.
  using RouteObserver =
      std::function<void(ip::NodeId at, const VpnRoute& route, bool withdrawn)>;
  void on_route(RouteObserver cb) { observers_.push_back(std::move(cb)); }

  /// A/B switch: packed update groups (default) vs one message per
  /// (route, peer). Same final RIBs either way; only event/message counts
  /// and wire-byte accounting differ.
  void set_packing(bool on) noexcept { packing_ = on; }
  [[nodiscard]] bool packing() const noexcept { return packing_; }

  /// --- introspection -----------------------------------------------------
  [[nodiscard]] std::size_t session_count() const noexcept {
    return sessions_.size();
  }
  /// Loc-RIB entries at `node`: at a filtering speaker, only the routes
  /// it accepted (an RT it imports) and its own originations.
  [[nodiscard]] std::size_t loc_rib_size(ip::NodeId node) const;
  [[nodiscard]] std::size_t adj_rib_in_size(ip::NodeId node) const;
  [[nodiscard]] const VpnRoute* best(ip::NodeId node, const VpnRouteKey& key)
      const;
  [[nodiscard]] std::vector<VpnRoute> loc_rib(ip::NodeId node) const;
  [[nodiscard]] bool is_reflector(ip::NodeId node) const;
  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] const std::vector<ip::NodeId>& speakers() const noexcept {
    return speakers_;
  }
  /// Update-group staging counters (packed path only).
  [[nodiscard]] const RibOut& rib_out() const noexcept { return ribout_; }
  /// Interned route-target set pool shared by every speaker's RIB.
  [[nodiscard]] const RtSetPool& rt_pool() const noexcept { return pool_; }
  /// Total Adj-RIB-In footprint across speakers (table + arena capacity,
  /// plus the shared RT pool) — the B/route the churn bench budgets.
  [[nodiscard]] std::size_t adj_rib_bytes() const;
  [[nodiscard]] std::size_t adj_rib_routes() const;
  /// Received NLRI that route-target filtering dropped on arrival.
  [[nodiscard]] std::uint64_t rt_filtered() const noexcept {
    return rt_filtered_;
  }

 private:
  struct SpeakerState {
    bool reflector = false;
    std::vector<ip::NodeId> peers;
    /// Adj-RIB-In: per key, the route each sender currently offers, in a
    /// compact open-addressed table. Sender kInvalidNode marks
    /// locally-originated routes.
    AdjRibIn adj_rib_in;
    /// Per key, the best path and the peer (kInvalidNode: local) that
    /// supplied it, for reflection.
    struct Best {
      VpnRoute route;
      ip::NodeId sender = ip::kInvalidNode;
    };
    std::map<VpnRouteKey, Best> loc_rib;
    /// Route-target filter: the sorted import set, and per interned RT-set
    /// id its verdict (kUnknown until first seen, reset when the set grows).
    bool rt_filter = false;
    std::vector<RouteTarget> imports;
    std::vector<std::uint8_t> verdict;
  };
  enum : std::uint8_t { kUnknown = 0, kAccept = 1, kReject = 2 };

  void add_session(ip::NodeId a, ip::NodeId b);
  /// Take `route` into `at`'s (state `st`) Adj-RIB-In, or, when `at`
  /// filters it out, drop it as an implicit withdraw of `from`'s earlier
  /// offer for `key`.
  void receive_update(SpeakerState& st, ip::NodeId at, ip::NodeId from,
                      const VpnRouteKey& key, const CompactRoute& route);
  void receive_withdraw(ip::NodeId at, ip::NodeId from, VpnRouteKey key);
  /// Whether `st` keeps routes carrying RT set `rt_set`.
  bool accepts(SpeakerState& st, std::uint16_t rt_set);
  /// Re-advertise to `requester` what `at` would advertise to it.
  void answer_refresh(ip::NodeId at, ip::NodeId requester);
  /// Re-run best-path selection for `key` at `node`; propagate on change.
  void decide(ip::NodeId node, const VpnRouteKey& key);
  /// Peers `node` must advertise to when its best for a key came from
  /// `sender` (kInvalidNode = locally originated).
  [[nodiscard]] std::vector<ip::NodeId> advertise_targets(
      ip::NodeId node, ip::NodeId sender) const;
  /// Whether that advertise set includes `peer` (one of `node`'s peers).
  [[nodiscard]] bool advertises(const SpeakerState& st, ip::NodeId sender,
                                ip::NodeId peer) const;
  /// Route the (re-)advertisement or withdraw (`route` null) of `key` to
  /// `targets` through the RibOut (packed) or straight to per-peer
  /// messages (legacy).
  void propagate(ip::NodeId node, std::vector<ip::NodeId> targets,
                 const VpnRouteKey& key, const VpnRoute* route);
  /// Drain `node`'s update groups into packed session messages.
  void flush(ip::NodeId node);
  void apply_packed(ip::NodeId at, ip::NodeId from,
                    const std::vector<RibOut::Entry>& entries);
  void send_update(ip::NodeId from, ip::NodeId to, const VpnRoute& route);
  void send_withdraw(ip::NodeId from, ip::NodeId to, const VpnRouteKey& key);

  static bool better(const VpnRoute& a, const VpnRoute& b) noexcept;
  static bool better_compact(const CompactRoute& a,
                             const CompactRoute& b) noexcept;

  ControlPlane& cp_;
  Mode mode_;
  std::vector<ip::NodeId> speakers_;
  std::vector<ip::NodeId> reflectors_;
  std::map<ip::NodeId, SpeakerState> state_;
  std::vector<std::pair<ip::NodeId, ip::NodeId>> sessions_;
  std::vector<RouteObserver> observers_;
  RtSetPool pool_;
  RibOut ribout_;
  std::uint64_t rt_filtered_ = 0;
  bool packing_ = true;
  bool started_ = false;
};

}  // namespace mvpn::routing
