//! Per-switch routing programs: ECMP (the paper's F10₀ approximation),
//! F10₃ (3-hop rerouting), and F10₃,₅ (3-hop + 5-hop rerouting), §7.
//!
//! Every scheme picks a port by priority: the first *live* candidate set
//! wins, and the port is chosen uniformly within it (modelling ECMP
//! hashing). Liveness is read from the `up_i` flags drawn by the failure
//! model at the start of the hop; following the paper, only downward links
//! are failure-prone, so upward candidates need no liveness tests.

use crate::NetFields;
use mcnetkat_core::{Pred, Prog};
use mcnetkat_topo::{Level, NodeId, ShortestPaths, Topology};

/// The routing scheme running on every switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingScheme {
    /// F10₀: random shortest-path forwarding (ECMP approximation);
    /// no failure awareness on the downward path.
    Ecmp,
    /// F10₃: ECMP plus 3-hop rerouting through opposite-type aggregation
    /// switches; dead-end aggregation switches bounce packets back up.
    F10_3,
    /// F10₃,₅: F10₃ plus 5-hop rerouting through same-type subtrees, using
    /// a detour flag carried by the packet.
    F10_3_5,
}

impl RoutingScheme {
    /// Human-readable name matching the paper's notation.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingScheme::Ecmp => "F10_0",
            RoutingScheme::F10_3 => "F10_3",
            RoutingScheme::F10_3_5 => "F10_3,5",
        }
    }
}

/// A candidate port set with liveness information.
#[derive(Clone, Debug)]
pub(crate) struct Candidates {
    /// Ports requiring a live `up` flag.
    pub prone: Vec<u32>,
    /// Ports that cannot fail (upward links).
    pub safe: Vec<u32>,
    /// Program to run before forwarding (e.g. set/clear the detour flag).
    pub prelude: Prog,
}

impl Candidates {
    fn prone(ports: Vec<u32>) -> Candidates {
        Candidates {
            prone: ports,
            safe: Vec::new(),
            prelude: Prog::skip(),
        }
    }

    fn safe(ports: Vec<u32>) -> Candidates {
        Candidates {
            prone: Vec::new(),
            safe: ports,
            prelude: Prog::skip(),
        }
    }

    fn with_prelude(mut self, prelude: Prog) -> Candidates {
        self.prelude = prelude;
        self
    }
}

/// The ports of `s` that point *down* the fabric (these are the
/// failure-prone links of §7's model). Exposed so failure specifications
/// — e.g. custom [`crate::Srlg`] groups — can be built against a topology
/// before any [`crate::NetworkModel`] exists.
pub fn down_ports(topo: &Topology, s: NodeId) -> Vec<u32> {
    let my_level = topo.info(s).level;
    topo.ports(s)
        .iter()
        .filter(|pp| {
            let peer = topo.info(pp.peer).level;
            matches!(
                (my_level, peer),
                (Level::Core, Level::Agg) | (Level::Agg, Level::Edge)
            )
        })
        .map(|pp| pp.port)
        .collect()
}

fn up_ports(topo: &Topology, s: NodeId) -> Vec<u32> {
    let my_level = topo.info(s).level;
    topo.ports(s)
        .iter()
        .filter(|pp| {
            let peer = topo.info(pp.peer).level;
            matches!(
                (my_level, peer),
                (Level::Edge, Level::Agg) | (Level::Agg, Level::Core)
            )
        })
        .map(|pp| pp.port)
        .collect()
}

/// Splits the ECMP next-hop ports of `s` into failure-prone and safe.
fn ecmp_candidates(topo: &Topology, sp: &ShortestPaths, s: NodeId) -> Candidates {
    let down = down_ports(topo, s);
    let mut prone = Vec::new();
    let mut safe = Vec::new();
    for port in sp.next_hop_ports_in(topo, s) {
        if down.contains(&port) {
            prone.push(port);
        } else {
            safe.push(port);
        }
    }
    Candidates {
        prone,
        safe,
        prelude: Prog::skip(),
    }
}

/// Builds the forwarding program for switch `s` under the given scheme.
///
/// The destination switch itself gets `drop` (it is never executed: the
/// surrounding loop exits first, like "switch 3" in the §2 example).
pub(crate) fn switch_program(
    scheme: RoutingScheme,
    fields: &NetFields,
    topo: &Topology,
    sp: &ShortestPaths,
    s: NodeId,
    dst: NodeId,
) -> Prog {
    if s == dst {
        return Prog::drop();
    }
    let ecmp = ecmp_candidates(topo, sp, s);
    match scheme {
        RoutingScheme::Ecmp => {
            // Failure-oblivious: uniform over all shortest-path ports
            // regardless of health (dead links drop in the topology
            // program).
            let all: Vec<u32> = ecmp.safe.iter().chain(ecmp.prone.iter()).copied().collect();
            if all.is_empty() {
                Prog::drop()
            } else {
                forward_uniform(fields, &all)
            }
        }
        RoutingScheme::F10_3 => {
            let sets = candidate_sets(scheme, fields, topo, sp, s, dst);
            priority_choose(fields, &sets, Prog::drop())
        }
        RoutingScheme::F10_3_5 => {
            let normal = candidate_sets(scheme, fields, topo, sp, s, dst);
            let normal_prog = priority_choose(fields, &normal, Prog::drop());
            if topo.info(s).level == Level::Agg && topo.info(s).pod != topo.info(dst).pod {
                // A detoured packet in a foreign pod travels *down* to an
                // edge switch (5-hop detour mid-leg); if no down link is
                // live it bounces up and retries.
                let down = Candidates::prone(down_ports(topo, s));
                let up = Candidates::safe(up_ports(topo, s));
                let detour_prog = priority_choose(fields, &[down, up], Prog::drop());
                Prog::ite(Pred::test(fields.dt, 1), detour_prog, normal_prog)
            } else if topo.info(s).level == Level::Edge {
                // Edges clear the detour flag: the packet resumes normal
                // (upward) routing from here.
                Prog::assign(fields.dt, 0).seq(normal_prog)
            } else {
                normal_prog
            }
        }
    }
}

/// The priority-ordered candidate sets of F10 routing for switch `s`.
fn candidate_sets(
    scheme: RoutingScheme,
    fields: &NetFields,
    topo: &Topology,
    sp: &ShortestPaths,
    s: NodeId,
    dst: NodeId,
) -> Vec<Candidates> {
    let mut sets = vec![ecmp_candidates(topo, sp, s)];
    match topo.info(s).level {
        Level::Core => {
            // 3-hop rerouting: aggregation switches of the *opposite* type.
            let dst_pod = topo.info(dst).pod;
            let dst_agg_type = dst_pod.and_then(|_| {
                topo.ports(s)
                    .iter()
                    .find(|pp| topo.info(pp.peer).pod == dst_pod)
                    .and_then(|pp| topo.info(pp.peer).pod_type)
            });
            let mut opposite = Vec::new();
            let mut same = Vec::new();
            for pp in topo.ports(s) {
                let info = topo.info(pp.peer);
                if info.pod == dst_pod {
                    continue; // the normal path, already in the ECMP set
                }
                match (info.pod_type, dst_agg_type) {
                    (Some(a), Some(b)) if a != b => opposite.push(pp.port),
                    (Some(_), Some(_)) => same.push(pp.port),
                    _ => {}
                }
            }
            sets.push(Candidates::prone(opposite));
            if scheme == RoutingScheme::F10_3_5 {
                // 5-hop rerouting through a same-type subtree: mark the
                // packet so foreign-pod aggregation switches send it down.
                sets.push(Candidates::prone(same).with_prelude(Prog::assign(fields.dt, 1)));
            }
        }
        Level::Agg => {
            // A dead-end aggregation switch bounces the packet back up to
            // the core layer (upward links are failure-free).
            sets.push(Candidates::safe(up_ports(topo, s)));
        }
        _ => {}
    }
    sets
}

/// `pt <- uniform(ports)`.
fn forward_uniform(fields: &NetFields, ports: &[u32]) -> Prog {
    Prog::uniform(ports.iter().map(|&p| Prog::assign(fields.pt, p)).collect())
}

/// Chooses uniformly among the live ports of the first candidate set with
/// at least one live port; falls through to `otherwise` when every set is
/// dead. Liveness of prone ports is resolved by nested conditionals on the
/// `up` flags (an explicit subset enumeration, exponential in the number
/// of prone ports per set — small in practice).
pub(crate) fn priority_choose(fields: &NetFields, sets: &[Candidates], otherwise: Prog) -> Prog {
    match sets.split_first() {
        None => otherwise,
        Some((set, rest)) => {
            let fallback = priority_choose(fields, rest, otherwise);
            // The prelude (e.g. setting the detour flag) only takes effect
            // on the leaves where this set actually wins.
            enumerate_live_with_prelude(
                fields,
                &set.prone,
                set.safe.clone(),
                &set.prelude,
                fallback,
            )
        }
    }
}

fn enumerate_live_with_prelude(
    fields: &NetFields,
    prone: &[u32],
    live: Vec<u32>,
    prelude: &Prog,
    fallback: Prog,
) -> Prog {
    match prone.split_first() {
        None => {
            if live.is_empty() {
                fallback
            } else {
                prelude.clone().seq(forward_uniform(fields, &live))
            }
        }
        Some((&p, rest)) => {
            let mut with_p = live.clone();
            with_p.push(p);
            Prog::ite(
                Pred::test(fields.up(p), 1),
                enumerate_live_with_prelude(fields, rest, with_p, prelude, fallback.clone()),
                enumerate_live_with_prelude(fields, rest, live, prelude, fallback),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnetkat_core::{Interp, Packet};
    use mcnetkat_num::Ratio;
    use mcnetkat_topo::ab_fattree;

    fn setup() -> (Topology, NetFields, NodeId, ShortestPaths) {
        let topo = ab_fattree(4);
        let fields = NetFields::new(topo.max_degree());
        let dst = topo.find("edge0_0").unwrap();
        let sp = ShortestPaths::towards(&topo, dst);
        (topo, fields, dst, sp)
    }

    fn all_up(fields: &NetFields, n: usize) -> Packet {
        let mut pk = Packet::new();
        for i in 1..=n {
            pk.set(fields.up(i as u32), 1);
        }
        pk
    }

    #[test]
    fn ecmp_splits_uniformly_at_source_edge() {
        let (topo, fields, dst, sp) = setup();
        let src = topo.find("edge1_0").unwrap();
        let prog = switch_program(RoutingScheme::Ecmp, &fields, &topo, &sp, src, dst);
        let d = Interp::new().eval_packet(&prog, &Packet::new());
        // Two aggregation uplinks on shortest paths → ½ each.
        assert_eq!(d.mass(), Ratio::one());
        let ports: Vec<_> = d.iter().collect();
        assert_eq!(ports.len(), 2);
        for (_, r) in ports {
            assert_eq!(*r, Ratio::new(1, 2));
        }
    }

    #[test]
    fn destination_switch_drops() {
        let (topo, fields, dst, sp) = setup();
        for scheme in [
            RoutingScheme::Ecmp,
            RoutingScheme::F10_3,
            RoutingScheme::F10_3_5,
        ] {
            let prog = switch_program(scheme, &fields, &topo, &sp, dst, dst);
            assert_eq!(prog, Prog::drop(), "{scheme:?}");
        }
    }

    #[test]
    fn f103_core_reroutes_to_opposite_type() {
        let (topo, fields, dst, sp) = setup();
        let core = topo.find("core0").unwrap();
        let prog = switch_program(RoutingScheme::F10_3, &fields, &topo, &sp, core, dst);
        // All links up: forwards on the unique shortest-path port.
        let up = all_up(&fields, topo.ports(core).len());
        let d = Interp::new().eval_packet(&prog, &up);
        assert_eq!(d.mass(), Ratio::one());
        let normal_port = sp.next_hop_ports_in(&topo, core)[0];
        let expect = up.with(fields.pt, normal_port);
        assert_eq!(d.prob(&expect), Ratio::one());
        // Kill the shortest-path link: mass moves to opposite-type ports.
        let mut broken = up.clone();
        broken.set(fields.up(normal_port), 0);
        let d2 = Interp::new().eval_packet(&prog, &broken);
        assert_eq!(d2.mass(), Ratio::one());
        assert_eq!(d2.prob(&broken.with(fields.pt, normal_port)), Ratio::zero());
        // Two opposite-type choices, uniform.
        let choices: Vec<_> = d2.iter().collect();
        assert_eq!(choices.len(), 2);
        for (_, r) in choices {
            assert_eq!(*r, Ratio::new(1, 2));
        }
    }

    #[test]
    fn f103_drops_only_when_all_candidates_dead() {
        let (topo, fields, dst, sp) = setup();
        let core = topo.find("core0").unwrap();
        let prog = switch_program(RoutingScheme::F10_3, &fields, &topo, &sp, core, dst);
        // Everything down → drop (F10_3 has no same-type fallback).
        let all_down = Packet::new();
        let d = Interp::new().eval_packet(&prog, &all_down);
        assert_eq!(d.drop_prob(), Ratio::one());
    }

    #[test]
    fn f1035_core_falls_back_to_same_type_with_flag() {
        let (topo, fields, dst, sp) = setup();
        let core = topo.find("core0").unwrap();
        let prog = switch_program(RoutingScheme::F10_3_5, &fields, &topo, &sp, core, dst);
        // Normal + both opposite-type links dead; same-type (pod 2) alive.
        let mut pk = Packet::new();
        for pp in topo.ports(core) {
            let pod = topo.info(pp.peer).pod;
            pk.set(fields.up(pp.port), if pod == Some(2) { 1 } else { 0 });
        }
        let d = Interp::new().eval_packet(&prog, &pk);
        assert_eq!(d.mass(), Ratio::one());
        let (out, r) = d.iter().next().unwrap();
        let out = out.as_ref().unwrap();
        assert_eq!(*r, Ratio::one());
        assert_eq!(out.get(fields.dt), 1, "detour flag set");
        let chosen = out.get(fields.pt);
        let (peer, _) = topo.neighbor(core, chosen).unwrap();
        assert_eq!(topo.info(peer).pod, Some(2));
    }

    #[test]
    fn f1035_foreign_agg_sends_detoured_packets_down() {
        let (topo, fields, dst, sp) = setup();
        let agg = topo.find("agg2_0").unwrap();
        let prog = switch_program(RoutingScheme::F10_3_5, &fields, &topo, &sp, agg, dst);
        let nports = topo.ports(agg).len();
        // Detoured packet, all links alive → goes down to an edge switch.
        let pk = all_up(&fields, nports).with(fields.dt, 1);
        let d = Interp::new().eval_packet(&prog, &pk);
        for (out, _) in d.iter() {
            let out = out.as_ref().unwrap();
            let (peer, _) = topo.neighbor(agg, out.get(fields.pt)).unwrap();
            assert_eq!(topo.info(peer).level, Level::Edge);
        }
        // Normal packet goes up.
        let pk2 = all_up(&fields, nports);
        let d2 = Interp::new().eval_packet(&prog, &pk2);
        for (out, _) in d2.iter() {
            let out = out.as_ref().unwrap();
            let (peer, _) = topo.neighbor(agg, out.get(fields.pt)).unwrap();
            assert_eq!(topo.info(peer).level, Level::Core);
        }
    }

    #[test]
    fn dst_pod_agg_bounces_up_when_down_link_dead() {
        let (topo, fields, dst, sp) = setup();
        let agg = topo.find("agg0_0").unwrap();
        for scheme in [RoutingScheme::F10_3, RoutingScheme::F10_3_5] {
            let prog = switch_program(scheme, &fields, &topo, &sp, agg, dst);
            // The unique down-port to the destination edge is dead.
            let down = sp.next_hop_ports_in(&topo, agg);
            assert_eq!(down.len(), 1);
            let mut pk = all_up(&fields, topo.ports(agg).len());
            pk.set(fields.up(down[0]), 0);
            let d = Interp::new().eval_packet(&prog, &pk);
            assert_eq!(d.mass(), Ratio::one(), "{scheme:?}");
            assert_eq!(d.drop_prob(), Ratio::zero(), "{scheme:?}");
            for (out, _) in d.iter() {
                let out = out.as_ref().unwrap();
                let (peer, _) = topo.neighbor(agg, out.get(fields.pt)).unwrap();
                assert_eq!(topo.info(peer).level, Level::Core, "{scheme:?}");
            }
        }
    }

    #[test]
    fn ecmp_ignores_failures() {
        let (topo, fields, dst, sp) = setup();
        let core = topo.find("core0").unwrap();
        let prog = switch_program(RoutingScheme::Ecmp, &fields, &topo, &sp, core, dst);
        // ECMP picks the dead port anyway — the topology will drop it.
        let dead = Packet::new();
        let d = Interp::new().eval_packet(&prog, &dead);
        assert_eq!(d.drop_prob(), Ratio::zero());
        assert_eq!(d.mass(), Ratio::one());
    }
}
