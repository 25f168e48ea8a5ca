#include "obs/topology_metrics.hpp"

#include <string>

#include "qos/queues.hpp"
#include "vpn/router.hpp"

namespace mvpn::obs {

namespace {

void register_router(const vpn::Router& r, const std::string& prefix,
                     MetricsRegistry& reg) {
  const auto& c = r.counters();
  for (const stats::Counter* counter :
       {&c.forwarded, &c.delivered, &c.no_route, &c.ttl_expired,
        &c.label_miss, &c.no_tunnel, &c.policed, &c.esp_rejected}) {
    reg.add_counter(prefix + "/router/" + counter->name(), counter);
  }
  // Flow fastpath cache health, straight from the router — previously only
  // visible through the sync profiler's injected CacheSampler, which left
  // serial runs (and sharded runs without a profiler) blind to it.
  const vpn::Router* rp = &r;
  reg.add_gauge(prefix + "/router/fastpath/hits", [rp] {
    return static_cast<double>(rp->flowcache_stats().hits);
  });
  reg.add_gauge(prefix + "/router/fastpath/misses", [rp] {
    return static_cast<double>(rp->flowcache_stats().misses);
  });
  reg.add_gauge(prefix + "/router/fastpath/invalidated", [rp] {
    return static_cast<double>(rp->flowcache_stats().invalidated);
  });
  reg.add_gauge(prefix + "/router/fastpath/hit_rate", [rp] {
    const auto& fc = rp->flowcache_stats();
    const double probes = static_cast<double>(fc.hits + fc.misses);
    return probes == 0.0 ? 0.0 : static_cast<double>(fc.hits) / probes;
  });
  for (const vpn::Vrf* vrf : const_cast<vpn::Router&>(r).vrfs()) {
    reg.add_gauge(prefix + "/vrf/" + vrf->config().name + "/routes",
                  [vrf] { return static_cast<double>(vrf->table().size()); });
  }
}

void register_queue(const net::Link& link, ip::NodeId from,
                    const std::string& prefix, MetricsRegistry& reg) {
  const net::Link* l = &link;
  // Gauges re-resolve queue_from() per snapshot: scenario builders may
  // still swap the discipline (set_queue_from) after registration.
  auto q = [l, from]() -> const net::QueueDisc& { return l->queue_from(from); };
  reg.add_gauge(prefix + "/drops/packets",
                [q] { return static_cast<double>(q().dropped().packets.value()); });
  reg.add_gauge(prefix + "/drops/bytes",
                [q] { return static_cast<double>(q().dropped().bytes.value()); });
  reg.add_gauge(prefix + "/enqueued/packets",
                [q] { return static_cast<double>(q().enqueued().packets.value()); });
  reg.add_gauge(prefix + "/depth/packets",
                [q] { return static_cast<double>(q().packet_count()); });
  reg.add_gauge(prefix + "/depth/bytes",
                [q] { return static_cast<double>(q().byte_count()); });

  if (const auto* mb = dynamic_cast<const qos::MultiBandQueue*>(&q())) {
    for (unsigned b = 0; b < mb->band_count(); ++b) {
      reg.add_gauge(prefix + "/band" + std::to_string(b) + "/drops",
                    [q, b]() -> double {
                      const auto* m =
                          dynamic_cast<const qos::MultiBandQueue*>(&q());
                      if (m == nullptr || b >= m->band_count()) return 0.0;
                      return static_cast<double>(m->band_drops(b).packets.value());
                    });
    }
  }
  if (dynamic_cast<const qos::RedQueueDisc*>(&q()) != nullptr) {
    auto red_gauge = [q](bool early) -> double {
      const auto* r = dynamic_cast<const qos::RedQueueDisc*>(&q());
      if (r == nullptr) return 0.0;
      return static_cast<double>(early ? r->early_drops().value()
                                       : r->forced_drops().value());
    };
    reg.add_gauge(prefix + "/red/early_drops",
                  [red_gauge] { return red_gauge(true); });
    reg.add_gauge(prefix + "/red/forced_drops",
                  [red_gauge] { return red_gauge(false); });
  }
}

}  // namespace

void register_topology_metrics(net::Topology& topo, MetricsRegistry& reg) {
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    const net::Node& node = topo.node(static_cast<ip::NodeId>(i));
    const std::string prefix = "node/" + node.name();
    for (const net::Interface& ifc : node.interfaces()) {
      const std::string if_prefix =
          prefix + "/if" + std::to_string(ifc.index);
      reg.add_packet_byte(if_prefix + "/rx", &ifc.rx);
      reg.add_packet_byte(if_prefix + "/tx", &ifc.tx);
    }
    if (const auto* r = dynamic_cast<const vpn::Router*>(&node)) {
      register_router(*r, prefix, reg);
    }
  }

  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const net::Link& link = topo.link(static_cast<net::LinkId>(i));
    for (const auto* ep : {&link.end_a(), &link.end_b()}) {
      const ip::NodeId from = ep->node;
      const std::string dir_prefix =
          "link/" + std::to_string(link.id()) + '/' +
          topo.node(from).name() + "->" +
          topo.node(link.peer_of(from).node).name();
      reg.add_packet_byte(dir_prefix + "/tx", &link.tx_from(from));
      reg.add_packet_byte(dir_prefix + "/down_drops",
                          &link.down_drops_from(from));
      register_queue(link, from, dir_prefix + "/queue", reg);
    }
  }
}

void register_engine_metrics(const net::ShardRuntime& runtime,
                             MetricsRegistry& reg) {
  const net::ShardRuntime* rt = &runtime;
  reg.add_gauge("engine/shards",
                [rt] { return static_cast<double>(rt->shard_count()); });
  reg.add_gauge("engine/lookahead_us", [rt] {
    return static_cast<double>(rt->lookahead()) / 1e3;
  });
  reg.add_gauge("engine/windows",
                [rt] { return static_cast<double>(rt->windows()); });
  reg.add_gauge("engine/widened_windows", [rt] {
    return static_cast<double>(rt->widened_windows());
  });
  reg.add_gauge("engine/idle_jumps",
                [rt] { return static_cast<double>(rt->idle_jumps()); });
  reg.add_gauge("engine/handoffs",
                [rt] { return static_cast<double>(rt->handoffs()); });
  reg.add_gauge("engine/delivery_batches", [rt] {
    return static_cast<double>(rt->delivery_batches());
  });
}

void register_control_metrics(const routing::ControlPlane& cp,
                              const routing::Bgp& bgp,
                              const routing::Igp& igp,
                              MetricsRegistry& reg) {
  const routing::ControlPlane* c = &cp;
  const routing::Bgp* b = &bgp;
  const routing::Igp* g = &igp;
  reg.add_gauge("control/messages",
                [c] { return static_cast<double>(c->total_messages()); });
  reg.add_gauge("control/bytes",
                [c] { return static_cast<double>(c->total_bytes()); });
  reg.add_gauge("control/bgp/sessions",
                [b] { return static_cast<double>(b->session_count()); });
  reg.add_gauge("control/bgp/updates", [c] {
    return static_cast<double>(c->message_count("bgp.update"));
  });
  reg.add_gauge("control/bgp/withdraws", [c] {
    return static_cast<double>(c->message_count("bgp.withdraw"));
  });
  reg.add_gauge("control/bgp/nlri_enqueued", [b] {
    return static_cast<double>(b->rib_out().nlri_enqueued());
  });
  reg.add_gauge("control/bgp/nlri_packed", [b] {
    return static_cast<double>(b->rib_out().nlri_packed());
  });
  reg.add_gauge("control/bgp/superseded", [b] {
    return static_cast<double>(b->rib_out().superseded());
  });
  reg.add_gauge("control/bgp/messages_packed", [b] {
    return static_cast<double>(b->rib_out().messages_packed());
  });
  reg.add_gauge("control/bgp/wire_bytes_packed", [b] {
    return static_cast<double>(b->rib_out().wire_bytes_packed());
  });
  reg.add_gauge("control/bgp/flushes", [b] {
    return static_cast<double>(b->rib_out().flushes());
  });
  reg.add_gauge("control/bgp/update_groups", [b] {
    return static_cast<double>(b->rib_out().group_count());
  });
  reg.add_gauge("control/bgp/adj_rib_routes", [b] {
    return static_cast<double>(b->adj_rib_routes());
  });
  reg.add_gauge("control/bgp/adj_rib_bytes", [b] {
    return static_cast<double>(b->adj_rib_bytes());
  });
  reg.add_gauge("control/bgp/rt_filtered",
                [b] { return static_cast<double>(b->rt_filtered()); });
  reg.add_gauge("control/bgp/rt_pool_sets",
                [b] { return static_cast<double>(b->rt_pool().size()); });
  reg.add_gauge("control/spf/runs",
                [g] { return static_cast<double>(g->spf_runs()); });
  reg.add_gauge("control/spf/full",
                [g] { return static_cast<double>(g->spf_full_runs()); });
  reg.add_gauge("control/spf/incremental", [g] {
    return static_cast<double>(g->spf_incremental_runs());
  });
  reg.add_gauge("control/spf/skipped",
                [g] { return static_cast<double>(g->spf_skipped()); });
  reg.add_gauge("control/spf/te_only_installs", [g] {
    return static_cast<double>(g->te_only_installs());
  });
  reg.add_gauge("control/spf/edges_relaxed",
                [g] { return static_cast<double>(g->edges_relaxed()); });
}

NodeNamer topology_node_namer(const net::Topology& topo) {
  const net::Topology* t = &topo;
  return [t](std::uint32_t id) -> std::string {
    if (id < t->node_count()) return t->node(static_cast<ip::NodeId>(id)).name();
    return "node" + std::to_string(id);
  };
}

}  // namespace mvpn::obs
