#include <gtest/gtest.h>

#include <set>

#include "net/topology.hpp"
#include "routing/bgp.hpp"
#include "routing/control_plane.hpp"
#include "routing/hello.hpp"
#include "routing/igp.hpp"
#include "routing/link_state.hpp"
#include "vpn/router.hpp"

namespace mvpn::routing {
namespace {

using vpn::Role;
using vpn::Router;

struct IgpFixture {
  net::Topology topo;
  ControlPlane cp{topo};
  Igp igp{cp};
  std::vector<Router*> routers;

  Router& add(const std::string& name) {
    auto& r = topo.add_node<Router>(name, Role::kP);
    routers.push_back(&r);
    igp.add_router(r.id());
    return r;
  }
  net::LinkId link(Router& a, Router& b, std::uint32_t cost = 1,
                   double bw = 10e6) {
    net::LinkConfig cfg;
    cfg.igp_cost = cost;
    cfg.bandwidth_bps = bw;
    return topo.connect(a.id(), b.id(), cfg);
  }
  void converge() {
    igp.start();
    topo.scheduler().run();
  }
};

TEST(ControlPlane, CountsMessagesByType) {
  net::Topology topo;
  auto& a = topo.add_node<Router>("a", Role::kP);
  auto& b = topo.add_node<Router>("b", Role::kP);
  topo.connect(a.id(), b.id());
  ControlPlane cp(topo);
  int delivered = 0;
  EXPECT_TRUE(cp.send_adjacent(a.id(), b.id(), "x.hello", 40,
                               [&] { ++delivered; }));
  cp.send_session(a.id(), b.id(), "y.update", 60, [&] { ++delivered; });
  topo.scheduler().run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(cp.message_count("x.hello"), 1u);
  EXPECT_EQ(cp.byte_count("y.update"), 60u);
  EXPECT_EQ(cp.total_messages(), 2u);
  EXPECT_EQ(cp.total_bytes(), 100u);
  cp.reset_counters();
  EXPECT_EQ(cp.total_messages(), 0u);
}

TEST(ControlPlane, AdjacentFailsWithoutLinkOrWhenDown) {
  net::Topology topo;
  auto& a = topo.add_node<Router>("a", Role::kP);
  auto& b = topo.add_node<Router>("b", Role::kP);
  auto& c = topo.add_node<Router>("c", Role::kP);
  const net::LinkId l = topo.connect(a.id(), b.id());
  ControlPlane cp(topo);
  EXPECT_FALSE(cp.send_adjacent(a.id(), c.id(), "t", 1, [] {}));
  topo.link(l).set_up(false);
  EXPECT_FALSE(cp.send_adjacent(a.id(), b.id(), "t", 1, [] {}));
}

TEST(LinkStateDb, InstallsOnlyNewer) {
  LinkStateDb db;
  Lsa lsa;
  lsa.origin = 1;
  lsa.sequence = 2;
  EXPECT_TRUE(db.install(lsa));
  EXPECT_FALSE(db.install(lsa));  // same sequence
  lsa.sequence = 1;
  EXPECT_FALSE(db.install(lsa));  // older
  lsa.sequence = 3;
  EXPECT_TRUE(db.install(lsa));
  EXPECT_EQ(db.find(1)->sequence, 3u);
  EXPECT_EQ(db.find(9), nullptr);
  EXPECT_EQ(db.size(), 1u);
}

TEST(ShortestPath, PrefersLowCostThenFewHops) {
  // 0 -1- 1 -1- 2   and   0 -3- 2 direct: cost path wins via 1.
  LinkStateDb db;
  auto mk = [&](ip::NodeId origin, std::vector<LsaLink> links) {
    Lsa lsa;
    lsa.origin = origin;
    lsa.sequence = 1;
    lsa.links = std::move(links);
    db.install(lsa);
  };
  mk(0, {{1, 0, 1, 1e6, 1e6}, {2, 1, 3, 1e6, 1e6}});
  mk(1, {{0, 0, 1, 1e6, 1e6}, {2, 2, 1, 1e6, 1e6}});
  mk(2, {{0, 1, 3, 1e6, 1e6}, {1, 2, 1, 1e6, 1e6}});

  const ComputedPath p = shortest_path(db, 0, 2);
  ASSERT_TRUE(p.found());
  EXPECT_EQ(p.cost, 2u);
  EXPECT_EQ(p.nodes, (std::vector<ip::NodeId>{0, 1, 2}));
  EXPECT_EQ(p.hop_count(), 2u);
}

TEST(ShortestPath, RespectsBandwidthConstraintAndExclusion) {
  LinkStateDb db;
  auto mk = [&](ip::NodeId origin, std::vector<LsaLink> links) {
    Lsa lsa;
    lsa.origin = origin;
    lsa.sequence = 1;
    lsa.links = std::move(links);
    db.install(lsa);
  };
  // Two parallel 0→1 paths: link 0 (skinny 1 Mb/s), links 1+2 via node 2.
  mk(0, {{1, 0, 1, 1e6, 1e6}, {2, 1, 1, 10e6, 10e6}});
  mk(1, {{0, 0, 1, 1e6, 1e6}, {2, 2, 1, 10e6, 10e6}});
  mk(2, {{0, 1, 1, 10e6, 10e6}, {1, 2, 1, 10e6, 10e6}});

  EXPECT_EQ(shortest_path(db, 0, 1).hop_count(), 1u);
  // Demand 5 Mb/s: the direct skinny link is ineligible.
  const ComputedPath constrained = shortest_path(db, 0, 1, 5e6);
  EXPECT_EQ(constrained.hop_count(), 2u);
  // Exclude the detour's first link: nothing qualifies.
  const ComputedPath dead = shortest_path(db, 0, 1, 5e6, {1});
  EXPECT_FALSE(dead.found());
}

TEST(ShortestPath, RequiresTwoWayAdjacency) {
  LinkStateDb db;
  Lsa a;
  a.origin = 0;
  a.sequence = 1;
  a.links = {{1, 0, 1, 1e6, 1e6}};
  db.install(a);
  Lsa b;
  b.origin = 1;
  b.sequence = 1;  // no back-link to 0
  db.install(b);
  EXPECT_FALSE(shortest_path(db, 0, 1).found());
}

TEST(ShortestPath, SourceEqualsDestination) {
  LinkStateDb db;
  Lsa a;
  a.origin = 5;
  a.sequence = 1;
  db.install(a);
  const ComputedPath p = shortest_path(db, 5, 5);
  ASSERT_TRUE(p.found());
  EXPECT_EQ(p.hop_count(), 0u);
}

TEST(Igp, FloodingSynchronizesAllRouters) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  auto& d = f.add("d");
  f.link(a, b);
  f.link(b, c);
  f.link(c, d);
  f.converge();
  EXPECT_TRUE(f.igp.synchronized());
  EXPECT_GT(f.cp.message_count("igp.lsa"), 0u);
  EXPECT_GT(f.igp.spf_runs(), 0u);
}

TEST(Igp, NextHopsFollowShortestPath) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1);
  f.link(b, c, 1);
  f.link(a, c, 5);  // expensive direct
  f.converge();
  const auto* nh = f.igp.next_hop(a.id(), c.id());
  ASSERT_NE(nh, nullptr);
  EXPECT_EQ(nh->via, b.id());
  EXPECT_EQ(nh->cost, 2u);
  const auto path = f.igp.path(a.id(), c.id());
  EXPECT_EQ(path.nodes, (std::vector<ip::NodeId>{a.id(), b.id(), c.id()}));
}

TEST(Igp, ReconvergesAfterLinkFailure) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId ab = f.link(a, b, 1);
  f.link(b, c, 1);
  f.link(a, c, 5);
  f.converge();
  ASSERT_EQ(f.igp.next_hop(a.id(), c.id())->via, b.id());

  f.topo.link(ab).set_up(false);
  f.igp.notify_link_change(ab);
  f.topo.scheduler().run();
  const auto* nh = f.igp.next_hop(a.id(), c.id());
  ASSERT_NE(nh, nullptr);
  EXPECT_EQ(nh->via, c.id());  // fell back to the expensive direct link
}

TEST(Igp, TeReservationsShrinkReservable) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  const net::LinkId l = f.link(a, b, 1, 10e6);
  f.converge();
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(a.id(), l), 10e6);
  EXPECT_TRUE(f.igp.te_reserve(a.id(), l, 6e6));
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(a.id(), l), 4e6);
  EXPECT_FALSE(f.igp.te_reserve(a.id(), l, 5e6));  // admission fails
  EXPECT_TRUE(f.igp.te_reserve(a.id(), l, 4e6));
  f.igp.te_release(a.id(), l, 10e6);
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(a.id(), l), 10e6);
  // Direction independence: b's side is untouched throughout.
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(b.id(), l), 10e6);
}

TEST(Igp, CspfAvoidsReservedLinks) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId direct = f.link(a, b, 1, 10e6);
  f.link(a, c, 1, 10e6);
  f.link(c, b, 1, 10e6);
  f.converge();
  EXPECT_EQ(f.igp.cspf(a.id(), b.id(), 8e6).hop_count(), 1u);
  ASSERT_TRUE(f.igp.te_reserve(a.id(), direct, 5e6));
  f.topo.scheduler().run();  // re-flood updated TE attributes
  const ComputedPath detour = f.igp.cspf(a.id(), b.id(), 8e6);
  ASSERT_TRUE(detour.found());
  EXPECT_EQ(detour.hop_count(), 2u);
}

TEST(Igp, MembershipQueriesThrowForStrangers) {
  IgpFixture f;
  f.add("a");
  EXPECT_FALSE(f.igp.is_member(99));
  EXPECT_THROW((void)f.igp.lsdb(99), std::invalid_argument);
}

// ---------------------------------------------------------------------------

struct BgpFixture {
  net::Topology topo;
  ControlPlane cp{topo};

  VpnRoute route(std::uint32_t rd_low, const char* prefix,
                 ip::NodeId origin, std::uint32_t label = 100) {
    VpnRoute r;
    r.rd = RouteDistinguisher{65000, rd_low};
    r.prefix = ip::Prefix::must_parse(prefix);
    r.next_hop = ip::Ipv4Address(10, 255, 0, std::uint8_t(origin));
    r.next_hop_node = origin;
    r.vpn_label = label;
    r.route_targets.push_back(RouteTarget{65000, rd_low});
    return r;
  }
};

TEST(Bgp, FullMeshPropagatesToAllSpeakers) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 4; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  bgp.start();
  EXPECT_EQ(bgp.session_count(), 6u);  // 4*3/2

  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  for (ip::NodeId n = 0; n < 4; ++n) {
    const VpnRoute* best = bgp.best(n, key);
    ASSERT_NE(best, nullptr) << "speaker " << n;
    EXPECT_EQ(best->next_hop_node, 0u);
    EXPECT_EQ(best->vpn_label, 100u);
  }
  EXPECT_EQ(f.cp.message_count("bgp.update"), 3u);  // one per peer
}

TEST(Bgp, RouteReflectorReachesEveryClientWithFewerSessions) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kRouteReflector);
  for (ip::NodeId n = 0; n < 6; ++n) {
    f.topo.add_node<Router>(std::string("n").append(std::to_string(n)),
                            Role::kPe);
  }
  for (ip::NodeId n = 0; n < 5; ++n) bgp.add_speaker(n);
  bgp.add_route_reflector(5);
  bgp.start();
  EXPECT_EQ(bgp.session_count(), 5u);  // clients to one RR
  EXPECT_TRUE(bgp.is_reflector(5));

  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  for (ip::NodeId n = 1; n < 5; ++n) {
    ASSERT_NE(bgp.best(n, key), nullptr) << "client " << n;
  }
}

TEST(Bgp, WithdrawRemovesEverywhere) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  ASSERT_NE(bgp.best(2, key), nullptr);

  bgp.withdraw(0, RouteDistinguisher{65000, 1},
               ip::Prefix::must_parse("10.1.0.0/16"));
  f.topo.scheduler().run();
  EXPECT_EQ(bgp.best(0, key), nullptr);
  EXPECT_EQ(bgp.best(1, key), nullptr);
  EXPECT_EQ(bgp.best(2, key), nullptr);
  EXPECT_GT(f.cp.message_count("bgp.withdraw"), 0u);
}

TEST(Bgp, BestPathPrefersLocalPrefThenLowerOriginator) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  bgp.start();
  // Same key from two origins (multihomed site).
  VpnRoute from1 = f.route(1, "10.1.0.0/16", 1, 111);
  VpnRoute from2 = f.route(1, "10.1.0.0/16", 2, 222);
  from2.local_pref = 200;
  bgp.originate(1, from1);
  bgp.originate(2, from2);
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  EXPECT_EQ(bgp.best(0, key)->next_hop_node, 2u);  // higher local-pref

  // Tie on local_pref → lower originator id wins.
  VpnRoute tie = f.route(2, "10.9.0.0/16", 1, 11);
  VpnRoute tie2 = f.route(2, "10.9.0.0/16", 2, 22);
  bgp.originate(1, tie);
  bgp.originate(2, tie2);
  f.topo.scheduler().run();
  const VpnRouteKey key2{RouteDistinguisher{65000, 2},
                         ip::Prefix::must_parse("10.9.0.0/16")};
  EXPECT_EQ(bgp.best(0, key2)->next_hop_node, 1u);
}

TEST(Bgp, OverlappingPrefixesDistinctByRd) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 2; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0, 100));
  bgp.originate(0, f.route(2, "10.1.0.0/16", 0, 200));  // same prefix, RD 2
  f.topo.scheduler().run();
  EXPECT_EQ(bgp.loc_rib_size(1), 2u);
  const VpnRouteKey k1{RouteDistinguisher{65000, 1},
                       ip::Prefix::must_parse("10.1.0.0/16")};
  const VpnRouteKey k2{RouteDistinguisher{65000, 2},
                       ip::Prefix::must_parse("10.1.0.0/16")};
  EXPECT_EQ(bgp.best(1, k1)->vpn_label, 100u);
  EXPECT_EQ(bgp.best(1, k2)->vpn_label, 200u);
}

TEST(Bgp, ObserverFiresOnChangeOnly) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 2; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  int events = 0;
  bgp.on_route([&](ip::NodeId, const VpnRoute&, bool) { ++events; });
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  const int after_first = events;
  EXPECT_EQ(after_first, 2);  // once at origin, once at peer
  // Re-originating the identical route changes nothing.
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  EXPECT_EQ(events, after_first);
}

TEST(Bgp, FailSpeakerFlushesItsRoutesEverywhere) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  bgp.start();
  EXPECT_EQ(bgp.session_count(), 3u);
  // Speaker 0 and 1 both offer the same prefix; 0 wins on originator id.
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0, 100));
  bgp.originate(1, f.route(1, "10.1.0.0/16", 1, 111));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  ASSERT_EQ(bgp.best(2, key)->next_hop_node, 0u);

  bgp.fail_speaker(0);
  f.topo.scheduler().run();
  EXPECT_EQ(bgp.session_count(), 1u);  // only 1-2 remains
  // Speaker 2 fails over to the surviving origin synchronously.
  ASSERT_NE(bgp.best(2, key), nullptr);
  EXPECT_EQ(bgp.best(2, key)->next_hop_node, 1u);
}

TEST(Bgp, ConfigErrors) {
  BgpFixture f;
  Bgp mesh(f.cp, Bgp::Mode::kFullMesh);
  EXPECT_THROW(mesh.add_route_reflector(0), std::logic_error);
  Bgp rr(f.cp, Bgp::Mode::kRouteReflector);
  EXPECT_THROW(rr.start(), std::logic_error);  // no reflectors configured
}

TEST(Igp, EcmpFindsAllEqualCostFirstHops) {
  // Square: a-b-d and a-c-d, all cost 1 → two first hops toward d.
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  auto& d = f.add("d");
  f.link(a, b, 1);
  f.link(a, c, 1);
  f.link(b, d, 1);
  f.link(c, d, 1);
  f.converge();
  const auto hops = f.igp.next_hops_ecmp(a.id(), d.id());
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].via, b.id());  // sorted by neighbor id
  EXPECT_EQ(hops[1].via, c.id());
  EXPECT_EQ(hops[0].cost, 2u);
  // Unequal costs collapse to a single hop.
  const auto to_b = f.igp.next_hops_ecmp(a.id(), b.id());
  EXPECT_EQ(to_b.size(), 1u);
}

TEST(Igp, EcmpThroughSharedUpstream) {
  // a-b, then b-c / b-d / c-e / d-e: two equal paths a→e, both via b.
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  auto& d = f.add("d");
  auto& e = f.add("e");
  f.link(a, b, 1);
  f.link(b, c, 1);
  f.link(b, d, 1);
  f.link(c, e, 1);
  f.link(d, e, 1);
  f.converge();
  // The split happens beyond b; a's first-hop set toward e is just {b}.
  const auto at_a = f.igp.next_hops_ecmp(a.id(), e.id());
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0].via, b.id());
  // b itself balances over c and d.
  const auto at_b = f.igp.next_hops_ecmp(b.id(), e.id());
  EXPECT_EQ(at_b.size(), 2u);
}

TEST(Igp, PartitionedGraphHasNoRoute) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  auto& d = f.add("d");
  f.link(a, b);
  f.link(c, d);  // island
  f.converge();
  EXPECT_NE(f.igp.next_hop(a.id(), b.id()), nullptr);
  EXPECT_EQ(f.igp.next_hop(a.id(), c.id()), nullptr);
  EXPECT_FALSE(f.igp.path(a.id(), d.id()).found());
}

TEST(Igp, SubscriptionFactorScalesReservable) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  const net::LinkId l = f.link(a, b, 1, 10e6);
  f.igp.set_te_subscription_factor(0.5);
  f.converge();
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(a.id(), l), 5e6);
  EXPECT_FALSE(f.igp.te_reserve(a.id(), l, 6e6));
  EXPECT_TRUE(f.igp.te_reserve(a.id(), l, 5e6));
}

TEST(Igp, SpfCallbacksFire) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  f.link(a, b);
  int fired = 0;
  f.igp.on_spf([&](ip::NodeId) { ++fired; });
  f.converge();
  EXPECT_GE(fired, 2);  // at least one SPF per router
}

TEST(Bgp, TwoReflectorsGiveRedundantPropagation) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kRouteReflector);
  for (ip::NodeId n = 0; n < 6; ++n) {
    f.topo.add_node<Router>(std::string("n").append(std::to_string(n)),
                            Role::kPe);
  }
  for (ip::NodeId n = 0; n < 4; ++n) bgp.add_speaker(n);
  bgp.add_route_reflector(4);
  bgp.add_route_reflector(5);
  bgp.start();
  // 4 clients x 2 RRs + RR-RR = 9 sessions.
  EXPECT_EQ(bgp.session_count(), 9u);
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  for (ip::NodeId n = 1; n < 4; ++n) {
    ASSERT_NE(bgp.best(n, key), nullptr);
    // Each client holds the route from both reflectors in its Adj-RIB-In.
    EXPECT_EQ(bgp.adj_rib_in_size(n), 2u);
  }
}

TEST(Bgp, LocRibSnapshot) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 2; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  bgp.originate(0, f.route(1, "10.2.0.0/16", 0));
  f.topo.scheduler().run();
  EXPECT_EQ(bgp.loc_rib(1).size(), 2u);
  EXPECT_EQ(bgp.speakers().size(), 2u);
}

TEST(ControlPlane, SessionDelayConfigurable) {
  net::Topology topo;
  topo.add_node<Router>("a", Role::kP);
  topo.add_node<Router>("b", Role::kP);
  ControlPlane cp(topo);
  cp.set_session_delay(50 * sim::kMillisecond);
  cp.set_processing_delay(0);
  sim::SimTime delivered_at = 0;
  cp.send_session(0, 1, "t", 1,
                  [&] { delivered_at = topo.scheduler().now(); });
  topo.scheduler().run();
  EXPECT_EQ(delivered_at, 50 * sim::kMillisecond);
}

TEST(Lsa, WireBytesScaleWithLinks) {
  Lsa lsa;
  EXPECT_EQ(lsa.wire_bytes(), 24u);
  lsa.links.resize(3);
  EXPECT_EQ(lsa.wire_bytes(), 24u + 48u);
}

TEST(ControlPlane, ProcessingDelayAddsToAdjacentDelivery) {
  net::Topology topo;
  auto& a = topo.add_node<Router>("a", Role::kP);
  auto& b = topo.add_node<Router>("b", Role::kP);
  net::LinkConfig cfg;
  cfg.prop_delay = 5 * sim::kMillisecond;
  topo.connect(a.id(), b.id(), cfg);
  ControlPlane cp(topo);
  cp.set_processing_delay(2 * sim::kMillisecond);
  sim::SimTime at = 0;
  cp.send_adjacent(a.id(), b.id(), "t", 1,
                   [&] { at = topo.scheduler().now(); });
  topo.scheduler().run();
  EXPECT_EQ(at, 7 * sim::kMillisecond);
}

TEST(Hello, DetectsLinkFailureWithinIntervalTimesThreshold) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId ab = f.link(a, b, 1);
  f.link(b, c, 1);
  f.link(a, c, 5);
  f.converge();

  HelloProtocol hello(f.cp);
  hello.enroll_link(ab);
  std::vector<net::LinkId> downs;
  hello.on_link_down([&](net::LinkId l) {
    downs.push_back(l);
    f.igp.notify_link_change(l);  // the usual wiring
  });
  hello.start(20 * sim::kMillisecond, 3);

  f.topo.run_until(f.topo.scheduler().now() + 200 * sim::kMillisecond);
  EXPECT_TRUE(downs.empty());
  EXPECT_GT(hello.hellos_sent(), 10u);

  const sim::SimTime break_at = f.topo.scheduler().now();
  f.topo.link(ab).set_up(false);
  f.topo.run_until(break_at + 500 * sim::kMillisecond);
  ASSERT_EQ(downs.size(), 1u);  // declared exactly once
  EXPECT_EQ(downs[0], ab);
  EXPECT_TRUE(hello.is_down(ab));
  // Detection took ~interval x threshold, and the IGP rerouted.
  const auto* nh = f.igp.next_hop(a.id(), c.id());
  ASSERT_NE(nh, nullptr);
  EXPECT_EQ(nh->via, c.id());
}

TEST(Hello, QuietOnHealthyLinks) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  const net::LinkId ab = f.link(a, b);
  f.converge();
  HelloProtocol hello(f.cp);
  hello.enroll_link(ab);
  int downs = 0;
  hello.on_link_down([&](net::LinkId) { ++downs; });
  hello.start(10 * sim::kMillisecond, 2);
  f.topo.run_until(f.topo.scheduler().now() + sim::kSecond);
  EXPECT_EQ(downs, 0);
  EXPECT_EQ(hello.links_declared_down(), 0u);
}

// --- PR10: packed update groups, compact RIB, incremental SPF --------------

TEST(RtSetPool, InternDedupes) {
  RtSetPool pool;
  const std::vector<RouteTarget> a{{65000, 1}, {65000, 2}};
  const std::vector<RouteTarget> b{{65000, 9}};
  const std::uint16_t ia = pool.intern(a);
  EXPECT_EQ(pool.intern(a), ia);  // same set, same id
  const std::uint16_t ib = pool.intern(b);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.get(ia), a);
  EXPECT_EQ(pool.get(ib), b);
  EXPECT_GT(pool.bytes(), 0u);
}

TEST(AdjRibIn, UpsertEraseAndSenderSweep) {
  AdjRibIn rib;
  auto key = [](std::uint32_t n) {
    return VpnRouteKey{RouteDistinguisher{65000, n},
                       ip::Prefix(ip::Ipv4Address(10, 0, 0, 0), 16)};
  };
  CompactRoute r;
  r.vpn_label = 7;
  // Enough keys to force at least one table growth past the 64-slot start.
  for (std::uint32_t n = 0; n < 200; ++n) rib.upsert(key(n), 1, r);
  EXPECT_EQ(rib.key_count(), 200u);
  EXPECT_EQ(rib.route_count(), 200u);
  // Second sender on one key; replacement is in-place.
  rib.upsert(key(5), 2, r);
  EXPECT_EQ(rib.route_count(), 201u);
  CompactRoute r2 = r;
  r2.vpn_label = 8;
  rib.upsert(key(5), 2, r2);
  EXPECT_EQ(rib.route_count(), 201u);
  int seen = 0;
  std::uint32_t label_from_2 = 0;
  rib.for_each(key(5), [&](ip::NodeId sender, const CompactRoute& rr) {
    ++seen;
    if (sender == 2) label_from_2 = rr.vpn_label;
  });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(label_from_2, 8u);

  EXPECT_TRUE(rib.erase(key(7), 1));
  EXPECT_FALSE(rib.erase(key(7), 1));  // already gone
  const auto affected = rib.erase_sender(1);
  EXPECT_EQ(affected.size(), 199u);  // all but the erased key(7)
  EXPECT_TRUE(std::is_sorted(affected.begin(), affected.end()));
  EXPECT_EQ(rib.route_count(), 1u);  // only sender 2's offer on key(5)
  EXPECT_EQ(rib.key_count(), 1u);
  EXPECT_GT(rib.bytes(), 0u);
}

TEST(BgpTypes, WithdrawWireBytesDeriveFromPrefix) {
  const VpnRouteKey k16{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  const VpnRouteKey k24{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.1.0/24")};
  // header (19) + MP_UNREACH overhead (8) + RD/label/len (12) + prefix bytes.
  EXPECT_EQ(withdraw_wire_bytes(k16), 19u + 8u + 12u + 2u);
  EXPECT_EQ(withdraw_wire_bytes(k24), 19u + 8u + 12u + 3u);
  EXPECT_LT(withdraw_wire_bytes(k16), withdraw_wire_bytes(k24));
}

TEST(Bgp, LegacyWithdrawBytesMatchDerivedSize) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  bgp.set_packing(false);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  bgp.withdraw(0, RouteDistinguisher{65000, 1},
               ip::Prefix::must_parse("10.1.0.0/16"));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  const auto n = f.cp.message_count("bgp.withdraw");
  ASSERT_GT(n, 0u);
  EXPECT_EQ(f.cp.byte_count("bgp.withdraw"), n * withdraw_wire_bytes(key));
}

namespace {
/// Drive the same announce/withdraw/flap/failover script against a
/// fresh RR fabric and return every speaker's Loc-RIB for comparison.
/// With `filter`, client n filters by route target, importing RT n % 3 + 1,
/// also originates the single-homed 10.(100 + n)/16 with that RT, and after
/// the script client 3 also imports RT 2 (a late join).
std::vector<std::vector<VpnRoute>> rr_script_ribs(bool packed,
                                                  std::uint64_t* messages,
                                                  std::uint64_t* events,
                                                  bool filter = false) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kRouteReflector);
  constexpr ip::NodeId kClients = 6;
  for (ip::NodeId n = 0; n < kClients + 2; ++n) {
    f.topo.add_node<Router>(std::string("n").append(std::to_string(n)),
                            Role::kPe);
  }
  for (ip::NodeId n = 0; n < kClients; ++n) bgp.add_speaker(n);
  bgp.add_route_reflector(kClients);
  bgp.add_route_reflector(kClients + 1);
  bgp.set_packing(packed);
  if (filter) {
    for (ip::NodeId n = 0; n < kClients; ++n) {
      bgp.enable_rt_filter(n);
      bgp.add_import_targets(n, {RouteTarget{65000, n % 3 + 1}});
    }
  }
  bgp.start();
  if (filter) {
    for (ip::NodeId n = 0; n < kClients; ++n) {
      const std::string prefix = "10." + std::to_string(100 + n) + ".0.0/16";
      bgp.originate(n, f.route(n % 3 + 1, prefix.c_str(), n));
    }
  }

  // Multihomed prefixes, flaps, a withdraw, and a mid-stream failure.
  for (ip::NodeId n = 0; n < kClients; ++n) {
    for (std::uint32_t p = 0; p < 4; ++p) {
      bgp.originate(n, f.route(p + 1, ("10." + std::to_string(p + 1) +
                                       ".0.0/16").c_str(),
                               n, 100 * n + p));
    }
  }
  f.topo.scheduler().run();
  // Same-tick withdraw + replace (flush-window supersede on the packed path).
  bgp.withdraw(0, RouteDistinguisher{65000, 1},
               ip::Prefix::must_parse("10.1.0.0/16"));
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0, 999));
  f.topo.scheduler().run();
  bgp.fail_speaker(1);
  f.topo.scheduler().run();
  // Every live origin withdraws one multihomed prefix: no live speaker, and
  // in particular neither reflector, may keep a copy. (The failed speaker
  // keeps its own origination; it has no sessions left to withdraw it.)
  for (ip::NodeId n = 0; n < kClients; ++n) {
    if (n != 1) {
      bgp.withdraw(n, RouteDistinguisher{65000, 4},
                   ip::Prefix::must_parse("10.4.0.0/16"));
    }
  }
  f.topo.scheduler().run();
  const VpnRouteKey gone{RouteDistinguisher{65000, 4},
                         ip::Prefix::must_parse("10.4.0.0/16")};
  for (ip::NodeId n = 0; n < kClients + 2; ++n) {
    if (n == 1) continue;
    EXPECT_EQ(bgp.best(n, gone), nullptr)
        << "speaker " << n << (packed ? " (packed)" : " (legacy)");
  }
  if (filter) {
    bgp.add_import_targets(3, {RouteTarget{65000, 2}});
    f.topo.scheduler().run();
  }

  if (messages != nullptr) {
    *messages = f.cp.message_count("bgp.update") +
                f.cp.message_count("bgp.withdraw");
  }
  if (events != nullptr) *events = f.cp.total_messages();
  std::vector<std::vector<VpnRoute>> ribs;
  for (ip::NodeId n = 0; n < kClients + 2; ++n) {
    ribs.push_back(bgp.loc_rib(n));
  }
  return ribs;
}

void expect_identical_ribs(const std::vector<std::vector<VpnRoute>>& packed,
                           const std::vector<std::vector<VpnRoute>>& legacy) {
  ASSERT_EQ(packed.size(), legacy.size());
  for (std::size_t n = 0; n < packed.size(); ++n) {
    ASSERT_EQ(packed[n].size(), legacy[n].size()) << "speaker " << n;
    for (std::size_t i = 0; i < packed[n].size(); ++i) {
      const VpnRoute& a = packed[n][i];
      const VpnRoute& b = legacy[n][i];
      EXPECT_EQ(a.rd, b.rd) << "speaker " << n;
      EXPECT_EQ(a.prefix.to_string(), b.prefix.to_string()) << "speaker " << n;
      EXPECT_EQ(a.next_hop_node, b.next_hop_node) << "speaker " << n;
      EXPECT_EQ(a.vpn_label, b.vpn_label) << "speaker " << n;
      EXPECT_EQ(a.local_pref, b.local_pref) << "speaker " << n;
      EXPECT_EQ(a.originator, b.originator) << "speaker " << n;
      EXPECT_EQ(a.route_targets, b.route_targets) << "speaker " << n;
    }
  }
}
}  // namespace

TEST(Bgp, PackedAndLegacyConvergeToIdenticalRibs) {
  std::uint64_t packed_msgs = 0, legacy_msgs = 0;
  const auto packed = rr_script_ribs(true, &packed_msgs, nullptr);
  const auto legacy = rr_script_ribs(false, &legacy_msgs, nullptr);
  expect_identical_ribs(packed, legacy);
  // Packing exists to shrink the message count, not just match state.
  EXPECT_LT(packed_msgs, legacy_msgs);
}

TEST(Bgp, PackedAndLegacyAgreeUnderRouteTargetFiltering) {
  const auto packed = rr_script_ribs(true, nullptr, nullptr, true);
  const auto legacy = rr_script_ribs(false, nullptr, nullptr, true);
  expect_identical_ribs(packed, legacy);
  // Of the single-homed prefixes, a live client holds the other clients'
  // whose RT it imports (RT n % 3 + 1, plus RT 2 at client 3 after its late
  // join); the reflectors (6, 7) hold every live client's. Client 1 failed.
  for (ip::NodeId n = 0; n < 8; ++n) {
    if (n == 1) continue;
    std::set<ip::NodeId> seen;
    for (const VpnRoute& r : packed[n]) {
      const auto octet =
          static_cast<ip::NodeId>((r.prefix.address().value() >> 16) & 0xFF);
      if (octet >= 100 && r.originator != n) seen.insert(octet - 100);
    }
    std::set<ip::NodeId> expected;
    for (ip::NodeId origin = 0; origin < 6; ++origin) {
      const ip::NodeId rt = origin % 3 + 1;
      const bool imported =
          n >= 6 || rt == n % 3 + 1 || (n == 3 && rt == 2);
      if (origin != n && origin != 1 && imported) expected.insert(origin);
    }
    EXPECT_EQ(seen, expected) << "speaker " << n;
  }
}

TEST(Bgp, RouteRefreshRestoresFilteredRoutes) {
  for (const bool packed : {true, false}) {
    SCOPED_TRACE(packed ? "packed" : "legacy");
    BgpFixture f;
    Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
    for (ip::NodeId n = 0; n < 3; ++n) {
      f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
      bgp.add_speaker(n);
    }
    bgp.set_packing(packed);
    bgp.enable_rt_filter(2);
    bgp.add_import_targets(2, {RouteTarget{65000, 2}});
    bgp.start();
    bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
    bgp.originate(0, f.route(2, "10.2.0.0/16", 0));
    bgp.originate(1, f.route(1, "10.3.0.0/16", 1));
    f.topo.scheduler().run();
    // The filter drops RT 1 before the Adj-RIB-In; pe1 keeps everything.
    EXPECT_EQ(bgp.loc_rib_size(2), 1u);
    EXPECT_EQ(bgp.adj_rib_in_size(2), 1u);
    EXPECT_EQ(bgp.loc_rib_size(1), 3u);
    EXPECT_EQ(bgp.rt_filtered(), 2u);
    EXPECT_EQ(f.cp.message_count("bgp.refresh"), 0u);

    // Joining RT 1 after start: one ROUTE-REFRESH to each peer, answered
    // with what each would advertise to pe2.
    bgp.add_import_targets(2, {RouteTarget{65000, 1}});
    f.topo.scheduler().run();
    EXPECT_EQ(bgp.loc_rib_size(2), 3u);
    EXPECT_EQ(f.cp.message_count("bgp.refresh"), 2u);
    EXPECT_EQ(f.cp.byte_count("bgp.refresh"), 2 * kRouteRefreshBytes);
    const VpnRoute* back =
        bgp.best(2, {RouteDistinguisher{65000, 1},
                     ip::Prefix::must_parse("10.3.0.0/16")});
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->next_hop_node, 1u);

    // An import set that does not grow sends nothing.
    bgp.add_import_targets(2, {RouteTarget{65000, 1}});
    f.topo.scheduler().run();
    EXPECT_EQ(f.cp.message_count("bgp.refresh"), 2u);
  }
}

TEST(Bgp, UnacceptedUpdateIsAnImplicitWithdraw) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 2; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  bgp.enable_rt_filter(1);
  bgp.add_import_targets(1, {RouteTarget{65000, 1}});
  std::vector<std::pair<ip::NodeId, bool>> events;
  bgp.on_route([&](ip::NodeId at, const VpnRoute&, bool withdrawn) {
    if (at == 1) events.emplace_back(at, withdrawn);
  });
  bgp.start();
  VpnRoute r = f.route(1, "10.1.0.0/16", 0);
  bgp.originate(0, r);
  f.topo.scheduler().run();
  const VpnRouteKey key{r.rd, r.prefix};
  ASSERT_NE(bgp.best(1, key), nullptr);
  // Same key, now exported with an RT pe1 does not import.
  r.route_targets = {RouteTarget{65000, 9}};
  bgp.originate(0, r);
  f.topo.scheduler().run();
  EXPECT_EQ(bgp.best(1, key), nullptr);
  EXPECT_EQ(bgp.adj_rib_in_size(1), 0u);
  EXPECT_EQ(bgp.rt_filtered(), 1u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[1].second);  // observers saw the withdraw
}

TEST(Bgp, TwoReflectorsWithdrawReachesEveryClient) {
  // Each reflector also holds the other's reflection of a client route.
  // When the client withdraws, a reflector's best moves to that reflection
  // with identical attributes; it must then withdraw its own copy from the
  // other reflector, or the two keep each other's copies (and every client
  // keeps the route) forever.
  for (const bool packed : {true, false}) {
    BgpFixture f;
    Bgp bgp(f.cp, Bgp::Mode::kRouteReflector);
    constexpr ip::NodeId kClients = 4;
    for (ip::NodeId n = 0; n < kClients + 2; ++n) {
      f.topo.add_node<Router>(std::string("n").append(std::to_string(n)),
                              Role::kPe);
    }
    for (ip::NodeId n = 0; n < kClients; ++n) bgp.add_speaker(n);
    bgp.add_route_reflector(kClients);
    bgp.add_route_reflector(kClients + 1);
    bgp.set_packing(packed);
    bgp.start();
    bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
    f.topo.scheduler().run();
    const VpnRouteKey key{RouteDistinguisher{65000, 1},
                          ip::Prefix::must_parse("10.1.0.0/16")};
    for (ip::NodeId n = 0; n < kClients + 2; ++n) {
      ASSERT_NE(bgp.best(n, key), nullptr) << "speaker " << n;
    }
    bgp.withdraw(0, RouteDistinguisher{65000, 1},
                 ip::Prefix::must_parse("10.1.0.0/16"));
    f.topo.scheduler().run();
    for (ip::NodeId n = 0; n < kClients + 2; ++n) {
      EXPECT_EQ(bgp.best(n, key), nullptr)
          << "speaker " << n << (packed ? " (packed)" : " (legacy)");
    }
  }
}

TEST(Bgp, WithdrawThenReplaceInOneFlushWindowYieldsReplacement) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0, 100));
  f.topo.scheduler().run();
  // Withdraw and replacement land in the same flush window: the queued
  // withdraw is superseded in place and only the replacement reaches peers.
  bgp.withdraw(0, RouteDistinguisher{65000, 1},
               ip::Prefix::must_parse("10.1.0.0/16"));
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0, 200));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  for (ip::NodeId n = 0; n < 3; ++n) {
    const VpnRoute* best = bgp.best(n, key);
    ASSERT_NE(best, nullptr) << "speaker " << n;
    EXPECT_EQ(best->vpn_label, 200u) << "speaker " << n;
  }
  EXPECT_GT(bgp.rib_out().superseded(), 0u);
}

TEST(Bgp, ReflectionTerminatesUnderPacking) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kRouteReflector);
  for (ip::NodeId n = 0; n < 6; ++n) {
    f.topo.add_node<Router>(std::string("n").append(std::to_string(n)),
                            Role::kPe);
  }
  for (ip::NodeId n = 0; n < 4; ++n) bgp.add_speaker(n);
  bgp.add_route_reflector(4);
  bgp.add_route_reflector(5);
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();  // returning at all proves no reflection loop
  const std::uint64_t settled = f.cp.total_messages();
  // Each client holds the route once per RR, never more (no echo back).
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  for (ip::NodeId n = 1; n < 4; ++n) {
    ASSERT_NE(bgp.best(n, key), nullptr);
    EXPECT_EQ(bgp.adj_rib_in_size(n), 2u);
  }
  // Re-announcing the identical route is fully damped: no new messages.
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  EXPECT_EQ(f.cp.total_messages(), settled);
}

TEST(Bgp, FailSpeakerKillsItsQueuedUpdates) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  bgp.start();
  // Queued at pe0 but the speaker dies before its flush event fires: the
  // update dies with the sessions, exactly like an un-ACKed TCP send.
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  EXPECT_TRUE(bgp.rib_out().armed(0));
  bgp.fail_speaker(0);
  EXPECT_FALSE(bgp.rib_out().armed(0));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  EXPECT_EQ(bgp.best(1, key), nullptr);
  EXPECT_EQ(bgp.best(2, key), nullptr);
  // A live speaker whose flush targets the dead peer skips it cleanly.
  bgp.originate(1, f.route(2, "10.2.0.0/16", 1));
  f.topo.scheduler().run();
  const VpnRouteKey key2{RouteDistinguisher{65000, 2},
                         ip::Prefix::must_parse("10.2.0.0/16")};
  ASSERT_NE(bgp.best(2, key2), nullptr);
  EXPECT_EQ(bgp.best(0, key2), nullptr);  // dead peer never hears of it
}

TEST(Igp, TeOnlyChangeSkipsSpfEntirely) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId ab = f.link(a, b, 1, 10e6);
  f.link(b, c, 1, 10e6);
  f.converge();
  const auto runs_before = f.igp.spf_runs();
  const auto te_before = f.igp.te_only_installs();
  // A reservation re-floods TE attributes but cannot move shortest paths:
  // the installs are classified TE-only and never reach the SPF scheduler.
  ASSERT_TRUE(f.igp.te_reserve(a.id(), ab, 4e6));
  f.topo.scheduler().run();
  EXPECT_EQ(f.igp.spf_runs(), runs_before);
  EXPECT_GT(f.igp.te_only_installs(), te_before);
  // The flood itself still happened: CSPF sees the new reservable figure.
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(a.id(), ab), 6e6);
}

TEST(Igp, OffPathCostIncreaseSkipsSpfEverywhere) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1);
  f.link(b, c, 1);
  const net::LinkId ac = f.link(a, c, 5);  // never on a shortest path
  f.converge();
  Igp::SpfCounters before[3];
  for (int i = 0; i < 3; ++i) {
    before[i] = f.igp.router_spf_counters(f.routers[i]->id());
  }
  // 5 → 9: still worse than the 2-hop path, provably affects nothing.
  f.topo.link(ac).set_igp_cost(9);
  f.igp.notify_link_change(ac);
  f.topo.scheduler().run();
  for (int i = 0; i < 3; ++i) {
    const auto after = f.igp.router_spf_counters(f.routers[i]->id());
    EXPECT_EQ(after.full, before[i].full) << "router " << i;
    EXPECT_EQ(after.incremental, before[i].incremental) << "router " << i;
    EXPECT_GT(after.skipped, before[i].skipped) << "router " << i;
  }
  // Routing is untouched.
  EXPECT_EQ(f.igp.next_hop(a.id(), c.id())->via, b.id());
}

TEST(Igp, CostDecreaseRunsIncrementalAndReroutes) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1);
  f.link(b, c, 1);
  const net::LinkId ac = f.link(a, c, 5);
  f.converge();
  ASSERT_EQ(f.igp.next_hop(a.id(), c.id())->via, b.id());
  const auto full_before = f.igp.spf_full_runs();
  const auto incr_before = f.igp.spf_incremental_runs();
  f.topo.link(ac).set_igp_cost(1);
  f.igp.notify_link_change(ac);
  f.topo.scheduler().run();
  // Decrease-only change: seeded partial runs, zero full rebuilds.
  EXPECT_EQ(f.igp.spf_full_runs(), full_before);
  EXPECT_GT(f.igp.spf_incremental_runs(), incr_before);
  const auto* nh = f.igp.next_hop(a.id(), c.id());
  ASSERT_NE(nh, nullptr);
  EXPECT_EQ(nh->via, c.id());
  EXPECT_EQ(nh->cost, 1u);
}

TEST(Igp, IncrementalMatchesFullAcrossFlapSequence) {
  // Run the same flap script in both modes and compare every router's
  // next hop toward every destination — the A/B identity the bench guards
  // at scale, pinned here on a topology with ECMP and a detour.
  auto run_mode = [](bool full) {
    auto f = std::make_unique<IgpFixture>();
    f->igp.set_full_spf(full);
    auto& a = f->add("a");
    auto& b = f->add("b");
    auto& c = f->add("c");
    auto& d = f->add("d");
    auto& e = f->add("e");
    const net::LinkId ab = f->link(a, b, 1);
    f->link(a, c, 1);
    f->link(b, d, 1);
    f->link(c, d, 1);
    const net::LinkId de = f->link(d, e, 2);
    const net::LinkId ae = f->link(a, e, 9);
    f->converge();
    // Decrease onto the shortest path, increase off it, then break a tie.
    f->topo.link(ae).set_igp_cost(2);
    f->igp.notify_link_change(ae);
    f->topo.scheduler().run();
    f->topo.link(de).set_igp_cost(7);
    f->igp.notify_link_change(de);
    f->topo.scheduler().run();
    f->topo.link(ab).set_igp_cost(3);
    f->igp.notify_link_change(ab);
    f->topo.scheduler().run();
    return f;
  };
  const auto incremental = run_mode(false);
  const auto full = run_mode(true);
  for (const auto* src : incremental->routers) {
    for (const auto* dst : incremental->routers) {
      if (src == dst) continue;
      const auto inc = incremental->igp.next_hops_ecmp(src->id(), dst->id());
      const auto ref = full->igp.next_hops_ecmp(src->id(), dst->id());
      ASSERT_EQ(inc.size(), ref.size())
          << src->name() << "->" << dst->name();
      for (std::size_t i = 0; i < inc.size(); ++i) {
        EXPECT_EQ(inc[i].via, ref[i].via)
            << src->name() << "->" << dst->name();
        EXPECT_EQ(inc[i].cost, ref[i].cost)
            << src->name() << "->" << dst->name();
      }
    }
  }
  // The incremental run actually took the fast paths at least once.
  EXPECT_GT(incremental->igp.spf_incremental_runs() +
                incremental->igp.spf_skipped(),
            0u);
  EXPECT_EQ(full->igp.spf_incremental_runs(), 0u);
  EXPECT_EQ(full->igp.spf_skipped(), 0u);
}

TEST(RdRt, Formatting) {
  EXPECT_EQ((RouteDistinguisher{65000, 7}).to_string(), "65000:7");
  EXPECT_EQ((RouteTarget{65000, 9}).to_string(), "65000:9");
  VpnRoute r;
  r.route_targets = {RouteTarget{1, 2}, RouteTarget{3, 4}};
  EXPECT_TRUE(r.has_target(RouteTarget{3, 4}));
  EXPECT_FALSE(r.has_target(RouteTarget{3, 5}));
}

}  // namespace
}  // namespace mvpn::routing
