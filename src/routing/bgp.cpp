#include "routing/bgp.hpp"

#include <algorithm>
#include <stdexcept>

namespace mvpn::routing {

Bgp::Bgp(ControlPlane& cp, Mode mode) : cp_(cp), mode_(mode) {}

void Bgp::add_speaker(ip::NodeId pe) {
  if (started_) throw std::logic_error("Bgp: add_speaker after start");
  if (state_.count(pe) != 0) return;
  state_[pe];  // default-construct
  speakers_.push_back(pe);
}

void Bgp::add_route_reflector(ip::NodeId rr) {
  if (started_) throw std::logic_error("Bgp: add_route_reflector after start");
  if (mode_ != Mode::kRouteReflector) {
    throw std::logic_error("Bgp: reflectors require kRouteReflector mode");
  }
  auto& st = state_[rr];
  if (st.reflector) return;
  st.reflector = true;
  reflectors_.push_back(rr);
}

void Bgp::enable_rt_filter(ip::NodeId pe) {
  if (started_) throw std::logic_error("Bgp: enable_rt_filter after start");
  state_.at(pe).rt_filter = true;
}

void Bgp::add_import_targets(ip::NodeId pe,
                             const std::vector<RouteTarget>& rts) {
  SpeakerState& st = state_.at(pe);
  bool grew = false;
  for (const RouteTarget& rt : rts) {
    auto it = std::lower_bound(st.imports.begin(), st.imports.end(), rt);
    if (it != st.imports.end() && *it == rt) continue;
    st.imports.insert(it, rt);
    grew = true;
  }
  if (!grew) return;
  st.verdict.clear();
  if (!started_ || !st.rt_filter || st.reflector) return;
  // Route refresh (RFC 2918): the peers hold routes this speaker dropped
  // while it did not import their targets.
  for (ip::NodeId peer : st.peers) {
    cp_.send_session(pe, peer, "bgp.refresh", kRouteRefreshBytes,
                     [this, peer, pe] { answer_refresh(peer, pe); });
  }
}

bool Bgp::accepts(SpeakerState& st, std::uint16_t rt_set) {
  if (!st.rt_filter || st.reflector) return true;
  if (rt_set >= st.verdict.size()) st.verdict.resize(pool_.size(), kUnknown);
  std::uint8_t& v = st.verdict[rt_set];
  if (v == kUnknown) {
    const std::vector<RouteTarget>& rts = pool_.get(rt_set);
    const bool hit = std::any_of(rts.begin(), rts.end(), [&](const auto& rt) {
      return std::binary_search(st.imports.begin(), st.imports.end(), rt);
    });
    v = hit ? kAccept : kReject;
  }
  return v == kAccept;
}

void Bgp::answer_refresh(ip::NodeId at, ip::NodeId requester) {
  const SpeakerState& st = state_.at(at);
  const auto& peers = st.peers;
  const auto& back = state_.at(requester).peers;
  // The session may have died while the request was in flight.
  if (std::find(peers.begin(), peers.end(), requester) == peers.end() ||
      std::find(back.begin(), back.end(), at) == back.end()) {
    return;
  }
  for (const auto& [key, best] : st.loc_rib) {
    if (advertises(st, best.sender, requester)) {
      propagate(at, {requester}, key, &best.route);
    }
  }
}

bool Bgp::is_reflector(ip::NodeId node) const {
  auto it = state_.find(node);
  return it != state_.end() && it->second.reflector;
}

void Bgp::add_session(ip::NodeId a, ip::NodeId b) {
  state_.at(a).peers.push_back(b);
  state_.at(b).peers.push_back(a);
  sessions_.emplace_back(a, b);
  // OPEN exchange, one message each way.
  cp_.send_session(a, b, "bgp.open", 29, [] {});
  cp_.send_session(b, a, "bgp.open", 29, [] {});
}

void Bgp::start() {
  if (started_) return;
  started_ = true;
  if (mode_ == Mode::kFullMesh) {
    for (std::size_t i = 0; i < speakers_.size(); ++i) {
      for (std::size_t j = i + 1; j < speakers_.size(); ++j) {
        add_session(speakers_[i], speakers_[j]);
      }
    }
    return;
  }
  if (reflectors_.empty()) {
    throw std::logic_error("Bgp: kRouteReflector mode with no reflectors");
  }
  // Clients session to every RR; RRs full-mesh among themselves.
  for (ip::NodeId pe : speakers_) {
    for (ip::NodeId rr : reflectors_) add_session(pe, rr);
  }
  for (std::size_t i = 0; i < reflectors_.size(); ++i) {
    for (std::size_t j = i + 1; j < reflectors_.size(); ++j) {
      add_session(reflectors_[i], reflectors_[j]);
    }
  }
}

bool Bgp::better(const VpnRoute& a, const VpnRoute& b) noexcept {
  if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
  if (a.originator != b.originator) return a.originator < b.originator;
  return a.next_hop.value() < b.next_hop.value();
}

bool Bgp::better_compact(const CompactRoute& a, const CompactRoute& b) noexcept {
  if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
  if (a.originator != b.originator) return a.originator < b.originator;
  return a.next_hop < b.next_hop;
}

bool Bgp::advertises(const SpeakerState& st, ip::NodeId sender,
                     ip::NodeId peer) const {
  // Locally originated: advertise to every peer.
  if (sender == ip::kInvalidNode) return true;
  // Plain iBGP never re-advertises. RR rules: client routes reflect
  // everywhere else; non-client routes reflect to clients only.
  return st.reflector && peer != sender &&
         (!is_reflector(sender) || !is_reflector(peer));
}

std::vector<ip::NodeId> Bgp::advertise_targets(ip::NodeId node,
                                               ip::NodeId sender) const {
  const SpeakerState& st = state_.at(node);
  std::vector<ip::NodeId> out;
  for (ip::NodeId peer : st.peers) {
    if (advertises(st, sender, peer)) out.push_back(peer);
  }
  return out;
}

void Bgp::send_update(ip::NodeId from, ip::NodeId to, const VpnRoute& route) {
  VpnRoute copy = route;
  cp_.send_session(from, to, "bgp.update", route.wire_bytes(),
                   [this, to, from, copy = std::move(copy)] {
                     receive_update(state_.at(to), to, from,
                                    VpnRouteKey{copy.rd, copy.prefix},
                                    compress(copy, pool_));
                   });
}

void Bgp::send_withdraw(ip::NodeId from, ip::NodeId to,
                        const VpnRouteKey& key) {
  cp_.send_session(from, to, "bgp.withdraw", withdraw_wire_bytes(key),
                   [this, to, from, key] { receive_withdraw(to, from, key); });
}

void Bgp::propagate(ip::NodeId node, std::vector<ip::NodeId> targets,
                    const VpnRouteKey& key, const VpnRoute* route) {
  if (targets.empty()) return;
  if (!packing_) {
    for (ip::NodeId peer : targets) {
      if (route != nullptr) {
        send_update(node, peer, *route);
      } else {
        send_withdraw(node, peer, key);
      }
    }
    return;
  }
  CompactRoute compact;
  const CompactRoute* payload = nullptr;
  if (route != nullptr) {
    compact = compress(*route, pool_);
    payload = &compact;
  }
  if (ribout_.enqueue(node, std::move(targets), key, payload)) {
    // Zero-delay flush: the packed message leaves at the same tick the
    // per-route messages would have, so session-delay arrival instants —
    // and therefore the whole decision cascade — match the legacy path.
    cp_.topology().scheduler().schedule_in(0, [this, node] { flush(node); });
  }
}

void Bgp::flush(ip::NodeId node) {
  SpeakerState& st = state_.at(node);
  for (RibOut::Message& m : ribout_.drain(node, pool_)) {
    // Withdraw-only messages keep their own wire type so session-teardown
    // and convergence experiments can still count withdraws.
    const char* type = m.reach > 0 ? "bgp.update" : "bgp.withdraw";
    for (ip::NodeId peer : *m.peers) {
      // A peer that vanished between enqueue and flush (session teardown)
      // silently loses the queued update — its TCP session is gone.
      if (std::find(st.peers.begin(), st.peers.end(), peer) ==
          st.peers.end()) {
        continue;
      }
      cp_.send_session(node, peer, type, m.wire_bytes,
                       [this, node, peer, entries = m.entries] {
                         apply_packed(peer, node, *entries);
                       });
    }
  }
}

void Bgp::apply_packed(ip::NodeId at, ip::NodeId from,
                       const std::vector<RibOut::Entry>& entries) {
  SpeakerState& st = state_.at(at);
  for (const RibOut::Entry& e : entries) {
    if (e.withdraw) {
      receive_withdraw(at, from, e.key);
    } else {
      receive_update(st, at, from, e.key, e.route);
    }
  }
}

void Bgp::originate(ip::NodeId pe, VpnRoute route) {
  route.originator = pe;
  SpeakerState& st = state_.at(pe);
  const VpnRouteKey key{route.rd, route.prefix};
  st.adj_rib_in.upsert(key, ip::kInvalidNode, compress(route, pool_));
  decide(pe, key);
}

void Bgp::withdraw(ip::NodeId pe, const RouteDistinguisher& rd,
                   const ip::Prefix& prefix) {
  SpeakerState& st = state_.at(pe);
  const VpnRouteKey key{rd, prefix};
  if (!st.adj_rib_in.erase(key, ip::kInvalidNode)) return;
  decide(pe, key);
}

void Bgp::receive_update(SpeakerState& st, ip::NodeId at, ip::NodeId from,
                         const VpnRouteKey& key, const CompactRoute& route) {
  if (route.originator == at) return;  // originator loop guard
  if (!accepts(st, route.rt_set)) {
    ++rt_filtered_;
    if (st.adj_rib_in.erase(key, from)) decide(at, key);
    return;
  }
  st.adj_rib_in.upsert(key, from, route);
  decide(at, key);
}

void Bgp::receive_withdraw(ip::NodeId at, ip::NodeId from, VpnRouteKey key) {
  SpeakerState& st = state_.at(at);
  if (!st.adj_rib_in.erase(key, from)) return;
  decide(at, key);
}

void Bgp::decide(ip::NodeId node, const VpnRouteKey& key) {
  SpeakerState& st = state_.at(node);
  const CompactRoute* new_best = nullptr;
  ip::NodeId new_sender = ip::kInvalidNode;
  st.adj_rib_in.for_each(key, [&](ip::NodeId sender, const CompactRoute& r) {
    // Chain order is insertion-dependent, so the tie-break the old
    // std::map sweep got implicitly — lowest sender wins a full attribute
    // tie — is explicit here.
    if (new_best == nullptr || better_compact(r, *new_best) ||
        (!better_compact(*new_best, r) && sender < new_sender)) {
      new_best = &r;
      new_sender = sender;
    }
  });

  auto loc_it = st.loc_rib.find(key);
  if (new_best == nullptr) {
    if (loc_it == st.loc_rib.end()) return;  // nothing changed
    // Best path lost: withdraw downstream, notify observers.
    const ip::NodeId old_sender = loc_it->second.sender;
    st.loc_rib.erase(loc_it);
    VpnRoute gone;
    gone.rd = key.first;
    gone.prefix = key.second;
    for (const auto& cb : observers_) cb(node, gone, true);
    propagate(node, advertise_targets(node, old_sender), key, nullptr);
    return;
  }

  if (loc_it == st.loc_rib.end()) {
    SpeakerState::Best fresh{materialize(key, *new_best, pool_), new_sender};
    loc_it = st.loc_rib.emplace(key, std::move(fresh)).first;
  } else {
    SpeakerState::Best& cur = loc_it->second;
    if (cur.sender != new_sender) {
      // A new sender can shrink the advertise set (a reflector whose best
      // moved from a client to the other reflector's copy). Peers dropped
      // from it must drop the route, or two reflectors keep each other's
      // copies alive after the origin withdraws.
      std::vector<ip::NodeId> stale = advertise_targets(node, cur.sender);
      std::erase_if(stale, [&](ip::NodeId peer) {
        return advertises(st, new_sender, peer);
      });
      cur.sender = new_sender;
      propagate(node, std::move(stale), key, nullptr);
    }
    if (cur.route.next_hop.value() == new_best->next_hop &&
        cur.route.vpn_label == new_best->vpn_label &&
        cur.route.originator == new_best->originator &&
        cur.route.route_targets == pool_.get(new_best->rt_set)) {
      return;  // same path
    }
    cur.route = materialize(key, *new_best, pool_);
  }
  const VpnRoute& stored = loc_it->second.route;
  for (const auto& cb : observers_) cb(node, stored, false);
  propagate(node, advertise_targets(node, new_sender), key, &stored);
}

void Bgp::fail_speaker(ip::NodeId pe) {
  // Drop sessions touching `pe`.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->first == pe || it->second == pe) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  // Updates the dead speaker staged but never flushed die with its
  // sessions.
  ribout_.drop_node(pe);
  for (auto& [node, st] : state_) {
    if (node == pe) continue;
    auto& peers = st.peers;
    peers.erase(std::remove(peers.begin(), peers.end(), pe), peers.end());
    // Flush Adj-RIB-In entries learned from the dead peer and re-decide
    // the affected keys (sorted, matching the legacy sweep order).
    for (const VpnRouteKey& key : st.adj_rib_in.erase_sender(pe)) {
      decide(node, key);
    }
  }
}

std::size_t Bgp::loc_rib_size(ip::NodeId node) const {
  return state_.at(node).loc_rib.size();
}

std::size_t Bgp::adj_rib_in_size(ip::NodeId node) const {
  return state_.at(node).adj_rib_in.route_count();
}

std::size_t Bgp::adj_rib_bytes() const {
  std::size_t n = pool_.bytes();
  for (const auto& [node, st] : state_) n += st.adj_rib_in.bytes();
  return n;
}

std::size_t Bgp::adj_rib_routes() const {
  std::size_t n = 0;
  for (const auto& [node, st] : state_) n += st.adj_rib_in.route_count();
  return n;
}

const VpnRoute* Bgp::best(ip::NodeId node, const VpnRouteKey& key) const {
  const SpeakerState& st = state_.at(node);
  auto it = st.loc_rib.find(key);
  return it == st.loc_rib.end() ? nullptr : &it->second.route;
}

std::vector<VpnRoute> Bgp::loc_rib(ip::NodeId node) const {
  std::vector<VpnRoute> out;
  const SpeakerState& st = state_.at(node);
  out.reserve(st.loc_rib.size());
  for (const auto& [key, best] : st.loc_rib) out.push_back(best.route);
  return out;
}

}  // namespace mvpn::routing
