#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ip/address.hpp"
#include "ip/route_table.hpp"

namespace mvpn::routing {

/// Type-0 route distinguisher "asn:assigned" (RFC 2547 §4.1): prepended to
/// customer prefixes so overlapping VPN address spaces stay distinct inside
/// one BGP routing system — the paper's "identifiers allow a single routing
/// system to support multiple VPNs whose internal address spaces overlap".
struct RouteDistinguisher {
  std::uint32_t asn = 0;
  std::uint32_t assigned = 0;

  friend constexpr auto operator<=>(const RouteDistinguisher&,
                                    const RouteDistinguisher&) = default;
  [[nodiscard]] std::string to_string() const {
    return std::to_string(asn) + ":" + std::to_string(assigned);
  }
};

/// Route-target extended community controlling VRF import/export policy.
struct RouteTarget {
  std::uint32_t asn = 0;
  std::uint32_t assigned = 0;

  friend constexpr auto operator<=>(const RouteTarget&,
                                    const RouteTarget&) = default;
  [[nodiscard]] std::string to_string() const {
    return std::to_string(asn) + ":" + std::to_string(assigned);
  }
};

/// A VPN-IPv4 NLRI with its attributes: the unit MP-BGP distributes among
/// PEs ("piggybacking labels in the routing protocol updates", paper §4).
struct VpnRoute {
  RouteDistinguisher rd;
  ip::Prefix prefix;
  ip::Ipv4Address next_hop;          ///< egress PE loopback
  ip::NodeId next_hop_node = ip::kInvalidNode;
  std::uint32_t vpn_label = ip::kNoLabel;
  std::vector<RouteTarget> route_targets;
  std::uint32_t local_pref = 100;
  ip::NodeId originator = ip::kInvalidNode;

  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return 48 + 8 * route_targets.size();
  }
  [[nodiscard]] bool has_target(const RouteTarget& rt) const noexcept {
    for (const auto& t : route_targets) {
      if (t == rt) return true;
    }
    return false;
  }
};

/// Loc-RIB / Adj-RIB key.
using VpnRouteKey = std::pair<RouteDistinguisher, ip::Prefix>;

/// BGP message header size (RFC 4271 §4.1) — the fixed per-message cost the
/// update packer amortizes across many NLRI.
inline constexpr std::size_t kBgpHeaderBytes = 19;

/// ROUTE-REFRESH message size (RFC 2918 §3): header + AFI (2 B) + reserved
/// (1 B) + SAFI (1 B).
inline constexpr std::size_t kRouteRefreshBytes = kBgpHeaderBytes + 4;

/// On-the-wire size of one labeled VPN-IPv4 NLRI (RFC 3107 §3 piggybacked
/// label + RFC 4364 RD): 8 B RD + 1 B length octet + 3 B label stack entry
/// + the packed prefix bytes.
[[nodiscard]] inline std::size_t vpn_nlri_wire_bytes(
    const VpnRouteKey& key) noexcept {
  return 12 + (key.second.length() + 7) / 8;
}

/// Wire size of a stand-alone withdraw for `key`: header + MP_UNREACH_NLRI
/// attribute overhead + the NLRI itself. Replaces the old hardcoded 27 B
/// that ignored the prefix entirely.
[[nodiscard]] inline std::size_t withdraw_wire_bytes(
    const VpnRouteKey& key) noexcept {
  return kBgpHeaderBytes + 8 + vpn_nlri_wire_bytes(key);
}

}  // namespace mvpn::routing
