#include <gtest/gtest.h>

#include "mpls/domain.hpp"
#include "mpls/ldp.hpp"
#include "mpls/lfib.hpp"
#include "mpls/rsvp_te.hpp"
#include "routing/igp.hpp"
#include "vpn/router.hpp"

namespace mvpn::mpls {
namespace {

using vpn::Role;
using vpn::Router;

TEST(LabelAllocator, DenseFromFirstDynamic) {
  LabelAllocator alloc;
  EXPECT_EQ(alloc.allocate(), net::kFirstDynamicLabel);
  EXPECT_EQ(alloc.allocate(), net::kFirstDynamicLabel + 1);
  EXPECT_EQ(alloc.allocated_count(), 2u);
}

TEST(Lfib, InstallLookupRemove) {
  Lfib lfib;
  LfibEntry e;
  e.in_label = 100;
  e.op = LabelOp::kSwap;
  e.out_label = 200;
  e.next_hop = 7;
  e.out_iface = 1;
  lfib.install(e);
  ASSERT_NE(lfib.lookup(100), nullptr);
  EXPECT_EQ(lfib.lookup(100)->out_label, 200u);
  EXPECT_EQ(lfib.lookup(99), nullptr);
  EXPECT_EQ(lfib.lookup(3), nullptr);  // reserved range never matches
  EXPECT_EQ(lfib.size(), 1u);
  EXPECT_TRUE(lfib.remove(100));
  EXPECT_FALSE(lfib.remove(100));
  EXPECT_EQ(lfib.lookup(100), nullptr);
}

TEST(Lfib, ReplaceKeepsSize) {
  Lfib lfib;
  LfibEntry e;
  e.in_label = 50;
  lfib.install(e);
  e.out_label = 9;
  lfib.install(e);
  EXPECT_EQ(lfib.size(), 1u);
  EXPECT_EQ(lfib.entries().size(), 1u);
}

TEST(Lfib, RejectsReservedLabels) {
  Lfib lfib;
  LfibEntry e;
  e.in_label = net::kImplicitNullLabel;
  EXPECT_THROW(lfib.install(e), std::invalid_argument);
}

TEST(MplsDomain, AggregatesState) {
  MplsDomain domain;
  (void)domain.state_of(1).allocator.allocate();
  (void)domain.state_of(2).allocator.allocate();
  LfibEntry e;
  e.in_label = 16;
  domain.state_of(1).lfib.install(e);
  EXPECT_EQ(domain.total_labels(), 2u);
  EXPECT_EQ(domain.total_lfib_entries(), 1u);
  EXPECT_EQ(domain.find(3), nullptr);
  EXPECT_NE(domain.find(1), nullptr);
}

// ---------------------------------------------------------------------------

struct MplsFixture {
  net::Topology topo;
  routing::ControlPlane cp{topo};
  routing::Igp igp{cp};
  MplsDomain domain;
  Ldp ldp{cp, igp, domain};
  RsvpTe rsvp{cp, igp, domain};
  std::vector<Router*> routers;

  Router& add(const std::string& name) {
    auto& r = topo.add_node<Router>(name, Role::kP);
    routers.push_back(&r);
    igp.add_router(r.id());
    ldp.enable_router(r.id());
    r.set_lsr_state(&domain.state_of(r.id()));
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

TEST(Ldp, DistributesLabelsAlongChain) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b);
  f.link(b, c);
  f.converge();

  const ip::Prefix fec = ip::Prefix::host(c.loopback());
  f.ldp.announce_egress(c.id(), fec);
  f.topo.scheduler().run();

  // Ingress a: must have an FTN toward c via b with b's label.
  const auto ftn = f.ldp.ftn(a.id(), fec);
  ASSERT_TRUE(ftn.has_value());
  EXPECT_EQ(ftn->next_hop, b.id());
  EXPECT_FALSE(ftn->implicit_null);

  // Transit b: swap entry exists and pops toward c (PHP — c advertised
  // implicit null).
  const LfibEntry* at_b = f.domain.state_of(b.id()).lfib.lookup(
      ftn->out_label);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->op, LabelOp::kPop);
  EXPECT_EQ(at_b->next_hop, c.id());

  // b itself, adjacent to the egress, sees implicit-null in its FTN.
  const auto ftn_b = f.ldp.ftn(b.id(), fec);
  ASSERT_TRUE(ftn_b.has_value());
  EXPECT_TRUE(ftn_b->implicit_null);

  EXPECT_GT(f.ldp.bindings_at(a.id()), 0u);
  EXPECT_EQ(f.ldp.fec_count(), 1u);
}

TEST(Ldp, LongerChainSwapsInTheMiddle) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  auto& d = f.add("d");
  f.link(a, b);
  f.link(b, c);
  f.link(c, d);
  f.converge();
  const ip::Prefix fec = ip::Prefix::host(d.loopback());
  f.ldp.announce_egress(d.id(), fec);
  f.topo.scheduler().run();

  const auto ftn = f.ldp.ftn(a.id(), fec);
  ASSERT_TRUE(ftn.has_value());
  const LfibEntry* at_b =
      f.domain.state_of(b.id()).lfib.lookup(ftn->out_label);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->op, LabelOp::kSwap);  // b swaps to c's label
  const LfibEntry* at_c =
      f.domain.state_of(c.id()).lfib.lookup(at_b->out_label);
  ASSERT_NE(at_c, nullptr);
  EXPECT_EQ(at_c->op, LabelOp::kPop);  // penultimate hop pops
}

TEST(Ldp, RepointsAfterIgpChange) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId ab = f.link(a, b, 1);
  f.link(b, c, 1);
  f.link(a, c, 5);
  f.converge();
  const ip::Prefix fec = ip::Prefix::host(c.loopback());
  f.ldp.announce_egress(c.id(), fec);
  f.topo.scheduler().run();
  ASSERT_EQ(f.ldp.ftn(a.id(), fec)->next_hop, b.id());

  f.topo.link(ab).set_up(false);
  f.igp.notify_link_change(ab);
  f.topo.scheduler().run();
  // Liberal retention: the mapping from c was already in a's LIB, so the
  // new FTN via the direct a-c link is available without new signaling.
  const auto ftn = f.ldp.ftn(a.id(), fec);
  ASSERT_TRUE(ftn.has_value());
  EXPECT_EQ(ftn->next_hop, c.id());
  EXPECT_TRUE(ftn->implicit_null);
}

TEST(RsvpTe, SignalsLspAndInstallsLabels) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1, 10e6);
  f.link(b, c, 1, 10e6);
  f.converge();

  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = c.id();
  cfg.bandwidth_bps = 4e6;
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();

  const RsvpTe::Lsp& lsp = f.rsvp.lsp(id);
  EXPECT_EQ(lsp.state, RsvpTe::LspState::kUp);
  EXPECT_EQ(lsp.path,
            (std::vector<ip::NodeId>{a.id(), b.id(), c.id()}));
  EXPECT_FALSE(lsp.head_implicit_null);
  EXPECT_EQ(lsp.head_next_hop, b.id());
  // Bandwidth is held on both hops.
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(a.id(), 0), 4e6);
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(b.id(), 1), 4e6);
  // b has a pop entry for the LSP label (PHP from the tail).
  const LfibEntry* at_b =
      f.domain.state_of(b.id()).lfib.lookup(lsp.head_label);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->op, LabelOp::kPop);
  EXPECT_GT(f.cp.message_count("rsvp.path"), 0u);
  EXPECT_GT(f.cp.message_count("rsvp.resv"), 0u);
}

TEST(RsvpTe, OneHopLspIsImplicitNull) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  f.link(a, b);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = b.id();
  cfg.bandwidth_bps = 1e6;
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(id).state, RsvpTe::LspState::kUp);
  EXPECT_TRUE(f.rsvp.lsp(id).head_implicit_null);
}

TEST(RsvpTe, AdmissionControlRejectsOverSubscription) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  f.link(a, b, 1, 10e6);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = b.id();
  cfg.bandwidth_bps = 7e6;
  const LspId first = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(first).state, RsvpTe::LspState::kUp);

  const LspId second = f.rsvp.signal(cfg);  // another 7 Mb/s does not fit
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(second).state, RsvpTe::LspState::kFailed);
  // The first LSP's reservation is intact.
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(a.id(), 0), 7e6);
}

TEST(RsvpTe, PicksDetourWhenDirectIsFull) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1, 10e6);  // direct
  f.link(a, c, 1, 10e6);  // detour
  f.link(c, b, 1, 10e6);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = b.id();
  cfg.bandwidth_bps = 6e6;
  const LspId first = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  const LspId second = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(first).state, RsvpTe::LspState::kUp);
  EXPECT_EQ(f.rsvp.lsp(first).path.size(), 2u);
  EXPECT_EQ(f.rsvp.lsp(second).state, RsvpTe::LspState::kUp);
  EXPECT_EQ(f.rsvp.lsp(second).path.size(), 3u);  // via c
}

TEST(RsvpTe, TearDownReleasesEverything) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1, 10e6);
  f.link(b, c, 1, 10e6);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = c.id();
  cfg.bandwidth_bps = 4e6;
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  const std::size_t lfib_before = f.domain.total_lfib_entries();
  EXPECT_GT(lfib_before, 0u);

  f.rsvp.tear_down(id);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(id).state, RsvpTe::LspState::kTornDown);
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(a.id(), 0), 0.0);
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(b.id(), 1), 0.0);
  EXPECT_LT(f.domain.total_lfib_entries(), lfib_before);
}

TEST(RsvpTe, ReroutesAroundFailedLink) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId direct = f.link(a, b, 1, 10e6);
  f.link(a, c, 1, 10e6);
  f.link(c, b, 1, 10e6);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = b.id();
  cfg.bandwidth_bps = 2e6;
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  ASSERT_EQ(f.rsvp.lsp(id).path.size(), 2u);

  f.topo.link(direct).set_up(false);
  f.igp.notify_link_change(direct);
  f.rsvp.notify_link_failure(direct);
  f.topo.scheduler().run();

  const RsvpTe::Lsp& lsp = f.rsvp.lsp(id);
  EXPECT_EQ(lsp.state, RsvpTe::LspState::kUp);
  EXPECT_EQ(lsp.path, (std::vector<ip::NodeId>{a.id(), c.id(), b.id()}));
  EXPECT_EQ(lsp.reroutes, 1u);
  // The failed link holds no stale reservation.
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(a.id(), direct), 0.0);
}

TEST(RsvpTe, ExplicitRouteIshonored) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1, 10e6);
  f.link(a, c, 1, 10e6);
  f.link(c, b, 1, 10e6);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = b.id();
  cfg.bandwidth_bps = 1e6;
  cfg.explicit_route = {a.id(), c.id(), b.id()};  // force the detour
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(id).state, RsvpTe::LspState::kUp);
  EXPECT_EQ(f.rsvp.lsp(id).path.size(), 3u);
}

TEST(Ldp, MultipleFecsIndependentLabels) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b);
  f.link(b, c);
  f.converge();
  const ip::Prefix fec_b = ip::Prefix::host(b.loopback());
  const ip::Prefix fec_c = ip::Prefix::host(c.loopback());
  f.ldp.announce_egress(b.id(), fec_b);
  f.ldp.announce_egress(c.id(), fec_c);
  f.topo.scheduler().run();
  EXPECT_EQ(f.ldp.fec_count(), 2u);
  const auto ftn_b = f.ldp.ftn(a.id(), fec_b);
  const auto ftn_c = f.ldp.ftn(a.id(), fec_c);
  ASSERT_TRUE(ftn_b.has_value());
  ASSERT_TRUE(ftn_c.has_value());
  // b is adjacent (PHP); c needs a real label, distinct per FEC.
  EXPECT_TRUE(ftn_b->implicit_null);
  EXPECT_FALSE(ftn_c->implicit_null);
}

TEST(Ldp, UnknownFecHasNoFtn) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  f.link(a, b);
  f.converge();
  EXPECT_FALSE(
      f.ldp.ftn(a.id(), ip::Prefix::must_parse("9.9.9.9/32")).has_value());
  EXPECT_EQ(f.ldp.bindings_at(a.id()), 0u);
}

TEST(RsvpTe, ExplicitRouteThroughDownLinkFails) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId ab = f.link(a, b);
  f.link(b, c);
  f.converge();
  f.topo.link(ab).set_up(false);
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = c.id();
  cfg.bandwidth_bps = 1e6;
  cfg.explicit_route = {a.id(), b.id(), c.id()};
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  // The PATH message is lost on the dead link; the LSP never comes up and
  // holds only the reservation made before the break (released on
  // teardown).
  EXPECT_NE(f.rsvp.lsp(id).state, RsvpTe::LspState::kUp);
  f.rsvp.tear_down(id);
  f.topo.scheduler().run();
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(a.id(), ab), 0.0);
}

TEST(RsvpTe, NonAdjacentExplicitRouteFails) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b);
  f.link(b, c);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = c.id();
  cfg.bandwidth_bps = 1e6;
  cfg.explicit_route = {a.id(), c.id()};  // a and c are not adjacent
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(id).state, RsvpTe::LspState::kFailed);
}

TEST(RsvpTe, UnknownLspThrows) {
  MplsFixture f;
  EXPECT_THROW((void)f.rsvp.lsp(42), std::out_of_range);
}

}  // namespace
}  // namespace mvpn::mpls
