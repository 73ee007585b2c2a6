//! Network timing model: per-link occupancy and serialization.

use std::fmt;

use ring_sim::Cycle;
use serde::{Deserialize, Serialize};

use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultStats, InjectedFault, OutageEvent};
use crate::multicast::{multicast_tree, TreeEdge};
use crate::topology::{NodeId, Torus};

/// An error the network model reports instead of panicking, so the
/// machine layer can trace it as a protocol error and keep running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocError {
    /// A multicast tree edge departs a node the broadcast has not
    /// reached yet — the tree is not topologically ordered root-outward
    /// (only possible with a corrupted or hand-installed tree).
    MulticastTreeDisorder {
        /// Root of the broadcast.
        root: NodeId,
        /// The unreached node the offending edge departs from.
        from: NodeId,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::MulticastTreeDisorder { root, from } => write!(
                f,
                "multicast tree rooted at {root} is not topologically ordered: \
                 an edge departs unreached node {from}"
            ),
        }
    }
}

impl std::error::Error for NocError {}

/// Virtual network (message class) a message travels on.
///
/// Like real coherence NoCs, the network provides separate virtual
/// channels per protocol message class, so request bursts (e.g. Uncorq's
/// multicast `R` delivery) cannot block the response ring, and neither
/// can data transfers. Each class has its own per-link occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Channel {
    /// Snoop requests and probes.
    Request,
    /// Combined responses / acks.
    Response,
    /// Data-carrying transfers.
    Data,
}

impl Channel {
    /// Number of virtual channels.
    pub const COUNT: usize = 3;

    /// Dense index of the channel (stable across runs; used for
    /// occupancy tables, flow sort keys, and trace encoding).
    pub fn index(self) -> usize {
        match self {
            Channel::Request => 0,
            Channel::Response => 1,
            Channel::Data => 2,
        }
    }
}

/// Timing parameters of the on-chip network (paper Table 3: 8×8 2D torus,
/// 8 processor cycles per hop, 2 GHz network at 64 GB/s).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Latency of one router-to-router hop, in processor cycles.
    pub hop_cycles: Cycle,
    /// Link bandwidth, in bytes per processor cycle. Serialization of a
    /// message over a link takes `ceil(bytes / link_bytes_per_cycle)`.
    pub link_bytes_per_cycle: u64,
    /// When `true`, messages contend for links (a link can carry one flit
    /// per cycle); when `false`, the network is contention-free and every
    /// message sees only hop + serialization latency.
    pub model_contention: bool,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            hop_cycles: 8,
            link_bytes_per_cycle: 8,
            model_contention: true,
        }
    }
}

/// Outcome of injecting a message: when it arrives and how many links it
/// traversed (for traffic accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery {
    /// Destination node.
    pub to: NodeId,
    /// Absolute arrival cycle at the destination.
    pub arrival: Cycle,
    /// Number of links traversed.
    pub hops: u64,
    /// The fault injected into this delivery, if chaos mode perturbed it
    /// (so the machine can trace injected faults next to protocol
    /// events).
    pub fault: Option<InjectedFault>,
    /// `true` when a lossy link destroyed the message in flight — only
    /// possible on the `*_lossy` wire paths used by the reliability
    /// sublayer, which retransmits it. `arrival` is then the cycle the
    /// frame died, and `fault` names the drop class.
    pub dropped: bool,
}

/// The network timing model. Owns per-link occupancy state.
///
/// All protocol messages (ring `R`/`r`, direct suppliership transfers,
/// Uncorq multicast requests, HT probes/responses) are timed through this
/// one model, so every protocol sees identical network resources — matching
/// the paper's "all algorithms use exactly the same network".
///
/// # Examples
///
/// ```
/// use ring_noc::{Network, NetworkConfig, NodeId, Torus};
///
/// let mut net = Network::new(Torus::new(8, 8), NetworkConfig::default());
/// // 1-hop control message: 8 cycles of hop latency + 1 cycle serialization.
/// let d = net.unicast(0, NodeId(0), NodeId(1), 8, ring_noc::Channel::Request);
/// assert_eq!(d.arrival, 9);
/// assert_eq!(d.hops, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    torus: Torus,
    cfg: NetworkConfig,
    /// Per-channel, per-link occupancy: `free_at[channel][link]`.
    free_at: Vec<Vec<Cycle>>,
    /// Per-link traffic counters (all virtual channels combined),
    /// indexed like `free_at[_]` by physical link.
    link_traffic: Vec<LinkTraffic>,
    /// Per-link destroyed-frame counters (drops + outage kills), for
    /// stall-report attribution.
    link_drops: Vec<u64>,
    /// Link-outage transitions observed by lossy traffic, drained by the
    /// machine into `LinkDown`/`LinkUp` trace events.
    outage_events: Vec<OutageEvent>,
    messages_sent: u64,
    /// Installed by chaos mode; `None` in normal runs.
    faults: Option<FaultInjector>,
    /// Per-root multicast trees, built lazily on first use and cached
    /// (the topology never changes) so repeated broadcasts from the
    /// same root allocate nothing.
    trees: Vec<Option<Box<[TreeEdge]>>>,
    /// Reusable per-broadcast arrival scratch, indexed by node;
    /// `Cycle::MAX` marks an unreached node.
    arrive: Vec<Cycle>,
    /// Reusable per-broadcast lossy scratch: nodes whose copy of the
    /// frame was destroyed (the subtree below a lossy edge).
    killed: Vec<bool>,
}

/// Applies the lossy per-link checks to one link crossing departing at
/// `depart`: scheduled outage first (a pure schedule lookup), then a
/// probabilistic drop draw. Returns the destroying fault, if any.
///
/// A free function over the injector and drop counters so callers can
/// use it while other fields of the network are borrowed.
fn lossy_check(
    faults: &mut Option<FaultInjector>,
    link_drops: &mut [u64],
    depart: Cycle,
    link: crate::topology::LinkId,
) -> Option<InjectedFault> {
    let inj = faults.as_mut()?;
    if let Some(up_at) = inj.link_down(depart, link) {
        inj.count_outage_drop();
        link_drops[link.0] += 1;
        return Some(InjectedFault {
            kind: FaultKind::Outage,
            delay: up_at.saturating_sub(depart),
        });
    }
    if inj.drop_frame() {
        link_drops[link.0] += 1;
        return Some(InjectedFault {
            kind: FaultKind::Drop,
            delay: 0,
        });
    }
    None
}

/// Messages and bytes that crossed one physical link, for hotspot
/// analysis (the embedded ring concentrates load on its ring links).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Messages that traversed the link.
    pub messages: u64,
    /// Bytes that traversed the link.
    pub bytes: u64,
}

impl Network {
    /// Creates a network over `torus` with the given timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if `hop_cycles` or `link_bytes_per_cycle` is zero.
    pub fn new(torus: Torus, cfg: NetworkConfig) -> Self {
        assert!(cfg.hop_cycles > 0, "hop latency must be positive");
        assert!(
            cfg.link_bytes_per_cycle > 0,
            "link bandwidth must be positive"
        );
        let links = torus.links();
        let nodes = torus.nodes();
        Network {
            torus,
            cfg,
            free_at: vec![vec![0; links]; Channel::COUNT],
            link_traffic: vec![LinkTraffic::default(); links],
            link_drops: vec![0; links],
            outage_events: Vec::new(),
            messages_sent: 0,
            faults: None,
            trees: vec![None; nodes],
            arrive: vec![Cycle::MAX; nodes],
            killed: vec![false; nodes],
        }
    }

    /// Arms deterministic fault injection over `plan`. Jitter and
    /// congestion faults are applied *through the link-occupancy chain*,
    /// which preserves per-link, per-channel FIFO order (a later message
    /// can never overtake an earlier one on the same link) — so the
    /// embedded ring's ordering guarantee survives injection.
    ///
    /// # Panics
    ///
    /// Panics unless [`NetworkConfig::model_contention`] is on: without
    /// the occupancy chain, jitter could reorder same-link messages and
    /// inject out-of-spec faults into the ring.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            self.cfg.model_contention,
            "fault injection requires contention modeling (ring FIFO safety)"
        );
        let mut inj = FaultInjector::new(plan);
        inj.set_links(self.torus.links());
        self.faults = Some(inj);
    }

    /// Mutable access to the fault injector, for the machine layer to
    /// draw reorder/duplication decisions on non-ring deliveries.
    pub fn faults_mut(&mut self) -> Option<&mut FaultInjector> {
        self.faults.as_mut()
    }

    /// What the injector has injected so far (zero when chaos mode is
    /// off).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| *f.stats()).unwrap_or_default()
    }

    /// The underlying topology.
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// The timing configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Total messages injected so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Per-link traffic counters, indexed by physical link id.
    pub fn link_traffic(&self) -> &[LinkTraffic] {
        &self.link_traffic
    }

    /// Per-link destroyed-frame counters (probabilistic drops plus
    /// outage kills), indexed by physical link id. All zero unless the
    /// lossy wire paths ran.
    pub fn link_drops(&self) -> &[u64] {
        &self.link_drops
    }

    /// Drains link-outage transitions observed since the last call, in
    /// chronological order, appending them to `out`.
    pub fn take_outage_events(&mut self, out: &mut Vec<OutageEvent>) {
        out.append(&mut self.outage_events);
    }

    fn serialization(&self, bytes: u64) -> Cycle {
        bytes.div_ceil(self.cfg.link_bytes_per_cycle)
    }

    /// Sends a `bytes`-sized message from `from` to `to` at cycle `now`
    /// along the xy route on virtual channel `ch`, reserving link
    /// occupancy on that channel.
    ///
    /// Sending to self arrives instantly with zero hops.
    pub fn unicast(
        &mut self,
        now: Cycle,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        ch: Channel,
    ) -> Delivery {
        self.messages_sent += 1;
        if from == to {
            return Delivery {
                to,
                arrival: now,
                hops: 0,
                fault: None,
                dropped: false,
            };
        }
        let ser = self.serialization(bytes);
        // Chaos mode: jitter delays this message's injection; a
        // congestion burst keeps every link of the route busy for a
        // while. Both act through the occupancy chain below, so same-link
        // FIFO order is preserved.
        let mut fault = None;
        if let Some(inj) = self.faults.as_mut() {
            if let Some(jit) = inj.jitter() {
                fault = Some(InjectedFault {
                    kind: FaultKind::Jitter,
                    delay: jit,
                });
            }
            if let Some(burst) = inj.congestion() {
                let free_at = &mut self.free_at[ch.index()];
                for link in self.torus.route_iter(from, to) {
                    free_at[link.0] = free_at[link.0].max(now) + burst;
                }
                if fault.is_none() {
                    fault = Some(InjectedFault {
                        kind: FaultKind::Congestion,
                        delay: burst,
                    });
                }
            }
        }
        let jitter = match fault {
            Some(InjectedFault {
                kind: FaultKind::Jitter,
                delay,
            }) => delay,
            _ => 0,
        };
        let free_at = &mut self.free_at[ch.index()];
        let mut t = now + jitter;
        let mut hops = 0;
        for link in self.torus.route_iter(from, to) {
            self.link_traffic[link.0].messages += 1;
            self.link_traffic[link.0].bytes += bytes;
            hops += 1;
            if self.cfg.model_contention {
                let depart = t.max(free_at[link.0]);
                free_at[link.0] = depart + ser;
                t = depart + self.cfg.hop_cycles;
            } else {
                t += self.cfg.hop_cycles;
            }
        }
        Delivery {
            to,
            arrival: t + ser,
            hops,
            fault,
            dropped: false,
        }
    }

    /// Estimates the contention-free latency from `from` to `to` for a
    /// `bytes`-sized message, without reserving any link.
    pub fn latency_estimate(&self, from: NodeId, to: NodeId, bytes: u64) -> Cycle {
        let hops = self.torus.distance(from, to) as Cycle;
        hops * self.cfg.hop_cycles + self.serialization(bytes)
    }

    /// Broadcasts a `bytes`-sized message from `root` to every other node
    /// using a dimension-ordered multicast tree (the unconstrained delivery
    /// Uncorq uses for its `R` messages). Returns one [`Delivery`] per
    /// destination; the `hops` field of each delivery is the number of
    /// *tree* links attributed to that destination (each tree link is
    /// counted exactly once across the whole broadcast, so summing `hops`
    /// over all deliveries gives total broadcast traffic).
    ///
    /// Allocating convenience wrapper over [`Network::multicast_into`].
    pub fn multicast(
        &mut self,
        now: Cycle,
        root: NodeId,
        bytes: u64,
        ch: Channel,
    ) -> Result<Vec<Delivery>, NocError> {
        let mut deliveries = Vec::with_capacity(self.torus.nodes() - 1);
        self.multicast_into(now, root, bytes, ch, &mut deliveries)?;
        Ok(deliveries)
    }

    /// [`Network::multicast`] into a caller-owned buffer (cleared first),
    /// so the per-broadcast hot path allocates nothing: the multicast
    /// tree is cached per root and the arrival scratch is reused.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::MulticastTreeDisorder`] if the tree is not
    /// topologically ordered root-outward — impossible for trees built
    /// by [`multicast_tree`], so only a corrupted or hand-installed tree
    /// (see [`Network::install_multicast_tree`]) triggers it. Link
    /// traffic and occupancy already charged for earlier edges stay
    /// charged; `out` holds the deliveries computed before the error.
    pub fn multicast_into(
        &mut self,
        now: Cycle,
        root: NodeId,
        bytes: u64,
        ch: Channel,
        out: &mut Vec<Delivery>,
    ) -> Result<(), NocError> {
        out.clear();
        self.messages_sent += 1;
        let ser = self.serialization(bytes);
        let edges: &[TreeEdge] = self.trees[root.0]
            .get_or_insert_with(|| multicast_tree(&self.torus, root).into_boxed_slice());
        // Arrival time at each node, filled in BFS order (edges are
        // topologically ordered root-outward by construction).
        self.arrive.fill(Cycle::MAX);
        self.arrive[root.0] = now;
        for e in edges {
            let t0 = self.arrive[e.from.0];
            if t0 == Cycle::MAX {
                return Err(NocError::MulticastTreeDisorder { root, from: e.from });
            }
            self.link_traffic[e.link.0].messages += 1;
            self.link_traffic[e.link.0].bytes += bytes;
            // Chaos mode, per tree edge: jitter delays the hop, a
            // congestion burst keeps the edge's link busy (delaying this
            // and subsequent traffic). Multicast deliveries are unordered
            // by design, so any perturbation here is in-spec.
            let mut fault = None;
            if let Some(inj) = self.faults.as_mut() {
                if let Some(jit) = inj.jitter() {
                    fault = Some(InjectedFault {
                        kind: FaultKind::Jitter,
                        delay: jit,
                    });
                }
                if let Some(burst) = inj.congestion() {
                    self.free_at[ch.index()][e.link.0] =
                        self.free_at[ch.index()][e.link.0].max(t0) + burst;
                    if fault.is_none() {
                        fault = Some(InjectedFault {
                            kind: FaultKind::Congestion,
                            delay: burst,
                        });
                    }
                }
            }
            let jitter = match fault {
                Some(InjectedFault {
                    kind: FaultKind::Jitter,
                    delay,
                }) => delay,
                _ => 0,
            };
            let free_at = &mut self.free_at[ch.index()];
            let t = if self.cfg.model_contention {
                let depart = (t0 + jitter).max(free_at[e.link.0]);
                free_at[e.link.0] = depart + ser;
                depart + self.cfg.hop_cycles
            } else {
                t0 + jitter + self.cfg.hop_cycles
            };
            self.arrive[e.to.0] = t;
            out.push(Delivery {
                to: e.to,
                arrival: t + ser,
                hops: 1,
                fault,
                dropped: false,
            });
        }
        Ok(())
    }

    /// [`Network::unicast`] over lossy links: each link crossed may
    /// destroy the frame, either probabilistically
    /// ([`crate::FaultProfile::drop_prob`], drawn per link) or because
    /// the link sits inside a scheduled outage window. A destroyed frame
    /// comes back with [`Delivery::dropped`] set and `fault` naming the
    /// drop class; links up to and including the lossy one keep their
    /// occupancy and traffic charges (the frame really crossed them).
    ///
    /// Only the reliability sublayer sends through this path — the
    /// protocol layers above it always use [`Network::unicast`], whose
    /// draw sequence is untouched, so runs without reliability stay
    /// byte-identical.
    pub fn unicast_lossy(
        &mut self,
        now: Cycle,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        ch: Channel,
    ) -> Delivery {
        if let Some(inj) = self.faults.as_mut() {
            inj.observe_outages(now, &mut self.outage_events);
        }
        self.messages_sent += 1;
        if from == to {
            return Delivery {
                to,
                arrival: now,
                hops: 0,
                fault: None,
                dropped: false,
            };
        }
        let ser = self.serialization(bytes);
        let mut fault = None;
        if let Some(inj) = self.faults.as_mut() {
            if let Some(jit) = inj.jitter() {
                fault = Some(InjectedFault {
                    kind: FaultKind::Jitter,
                    delay: jit,
                });
            }
            if let Some(burst) = inj.congestion() {
                let free_at = &mut self.free_at[ch.index()];
                for link in self.torus.route_iter(from, to) {
                    free_at[link.0] = free_at[link.0].max(now) + burst;
                }
                if fault.is_none() {
                    fault = Some(InjectedFault {
                        kind: FaultKind::Congestion,
                        delay: burst,
                    });
                }
            }
        }
        let jitter = match fault {
            Some(InjectedFault {
                kind: FaultKind::Jitter,
                delay,
            }) => delay,
            _ => 0,
        };
        let mut t = now + jitter;
        let mut hops = 0;
        let mut dropped = false;
        for link in self.torus.route_iter(from, to) {
            self.link_traffic[link.0].messages += 1;
            self.link_traffic[link.0].bytes += bytes;
            hops += 1;
            let depart;
            if self.cfg.model_contention {
                depart = t.max(self.free_at[ch.index()][link.0]);
                self.free_at[ch.index()][link.0] = depart + ser;
                t = depart + self.cfg.hop_cycles;
            } else {
                depart = t;
                t += self.cfg.hop_cycles;
            }
            if let Some(kill) = lossy_check(&mut self.faults, &mut self.link_drops, depart, link) {
                fault = Some(kill);
                dropped = true;
                break;
            }
        }
        Delivery {
            to,
            arrival: t + ser,
            hops,
            fault,
            dropped,
        }
    }

    /// [`Network::multicast_into`] over lossy links. Each tree edge may
    /// destroy the frame crossing it; a destroyed frame kills the whole
    /// subtree below that edge (children of a dropped node are reported
    /// dropped with zero hops and no link charges — the frame never
    /// departed their parent).
    ///
    /// # Errors
    ///
    /// Same contract as [`Network::multicast_into`].
    pub fn multicast_lossy_into(
        &mut self,
        now: Cycle,
        root: NodeId,
        bytes: u64,
        ch: Channel,
        out: &mut Vec<Delivery>,
    ) -> Result<(), NocError> {
        if let Some(inj) = self.faults.as_mut() {
            inj.observe_outages(now, &mut self.outage_events);
        }
        out.clear();
        self.messages_sent += 1;
        let ser = self.serialization(bytes);
        if self.trees[root.0].is_none() {
            self.trees[root.0] = Some(multicast_tree(&self.torus, root).into_boxed_slice());
        }
        let Some(edges) = self.trees[root.0].take() else {
            unreachable!("tree built above");
        };
        self.arrive.fill(Cycle::MAX);
        self.arrive[root.0] = now;
        // Nodes whose copy of the frame was destroyed (the subtree below
        // a lossy edge): a dropped node keeps its parent's arrival time
        // for tree-ordering purposes and is marked in the reusable
        // scratch.
        self.killed.fill(false);
        let mut result = Ok(());
        for e in edges.iter() {
            let t0 = self.arrive[e.from.0];
            if t0 == Cycle::MAX {
                result = Err(NocError::MulticastTreeDisorder { root, from: e.from });
                break;
            }
            if self.killed[e.from.0] {
                // The frame never reached the parent; the whole subtree
                // is dropped without touching any link.
                self.killed[e.to.0] = true;
                self.arrive[e.to.0] = t0;
                out.push(Delivery {
                    to: e.to,
                    arrival: t0,
                    hops: 0,
                    fault: None,
                    dropped: true,
                });
                continue;
            }
            self.link_traffic[e.link.0].messages += 1;
            self.link_traffic[e.link.0].bytes += bytes;
            let mut fault = None;
            if let Some(inj) = self.faults.as_mut() {
                if let Some(jit) = inj.jitter() {
                    fault = Some(InjectedFault {
                        kind: FaultKind::Jitter,
                        delay: jit,
                    });
                }
                if let Some(burst) = inj.congestion() {
                    self.free_at[ch.index()][e.link.0] =
                        self.free_at[ch.index()][e.link.0].max(t0) + burst;
                    if fault.is_none() {
                        fault = Some(InjectedFault {
                            kind: FaultKind::Congestion,
                            delay: burst,
                        });
                    }
                }
            }
            let jitter = match fault {
                Some(InjectedFault {
                    kind: FaultKind::Jitter,
                    delay,
                }) => delay,
                _ => 0,
            };
            let (depart, t) = if self.cfg.model_contention {
                let depart = (t0 + jitter).max(self.free_at[ch.index()][e.link.0]);
                self.free_at[ch.index()][e.link.0] = depart + ser;
                (depart, depart + self.cfg.hop_cycles)
            } else {
                (t0 + jitter, t0 + jitter + self.cfg.hop_cycles)
            };
            let mut dropped = false;
            if let Some(kill) = lossy_check(&mut self.faults, &mut self.link_drops, depart, e.link)
            {
                fault = Some(kill);
                dropped = true;
                self.killed[e.to.0] = true;
            }
            self.arrive[e.to.0] = t;
            out.push(Delivery {
                to: e.to,
                arrival: t + ser,
                hops: 1,
                fault,
                dropped,
            });
        }
        self.trees[root.0] = Some(edges);
        result
    }

    /// Replaces the cached multicast tree for `root` with an explicit
    /// edge list. A testing/fault-modeling hook: the edges are *not*
    /// validated here, so a disordered tree makes the next broadcast
    /// from `root` report [`NocError::MulticastTreeDisorder`].
    pub fn install_multicast_tree(&mut self, root: NodeId, edges: Vec<TreeEdge>) {
        self.trees[root.0] = Some(edges.into_boxed_slice());
    }

    /// Clears all link occupancy (used between independent measurements).
    pub fn reset_contention(&mut self) {
        for ch in &mut self.free_at {
            ch.fill(0);
        }
    }
}

impl Channel {
    /// Inverse of [`Channel::index`].
    pub fn from_index(i: usize) -> Option<Channel> {
        match i {
            0 => Some(Channel::Request),
            1 => Some(Channel::Response),
            2 => Some(Channel::Data),
            _ => None,
        }
    }
}

impl Network {
    /// Serializes the network's dynamic state: link occupancy chains,
    /// traffic/drop counters, undrained outage transitions, and the
    /// fault injector's cursor. The topology and timing configuration
    /// are rebuilt from the machine configuration at restore, and the
    /// multicast-tree cache and per-call scratch buffers are
    /// deliberately excluded (they are recomputed caches with no
    /// observable effect).
    pub fn snap_save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&self.free_at);
        w.put(
            &self
                .link_traffic
                .iter()
                .map(|t| (t.messages, t.bytes))
                .collect::<Vec<(u64, u64)>>(),
        );
        w.put(&self.link_drops);
        w.put(
            &self
                .outage_events
                .iter()
                .map(|e| (e.at, e.link.0 as u64, (e.down, e.up_at)))
                .collect::<Vec<(Cycle, u64, (bool, Cycle))>>(),
        );
        w.put(&self.messages_sent);
        match &self.faults {
            None => w.put(&false),
            Some(inj) => {
                w.put(&true);
                inj.snap_save(w);
            }
        }
    }

    /// Rebuilds a network from configuration plus snapshot state.
    pub fn snap_load(
        r: &mut ring_snapshot::SnapReader<'_>,
        torus: Torus,
        cfg: NetworkConfig,
        plan: Option<FaultPlan>,
    ) -> Result<Self, ring_snapshot::SnapshotError> {
        let mut n = Network::new(torus, cfg);
        let free_at: Vec<Vec<Cycle>> = r.get()?;
        if free_at.len() != n.free_at.len() || free_at.iter().any(|f| f.len() != n.torus.links()) {
            return Err(r.malformed("link occupancy shape does not match the topology"));
        }
        n.free_at = free_at;
        let traffic: Vec<(u64, u64)> = r.get()?;
        if traffic.len() != n.link_traffic.len() {
            return Err(r.malformed("link traffic length does not match the topology"));
        }
        n.link_traffic = traffic
            .into_iter()
            .map(|(messages, bytes)| LinkTraffic { messages, bytes })
            .collect();
        n.link_drops = r.get()?;
        if n.link_drops.len() != n.torus.links() {
            return Err(r.malformed("link drop length does not match the topology"));
        }
        let outages: Vec<(Cycle, u64, (bool, Cycle))> = r.get()?;
        n.outage_events = outages
            .into_iter()
            .map(|(at, link, (down, up_at))| OutageEvent {
                at,
                link: crate::topology::LinkId(link as usize),
                down,
                up_at,
            })
            .collect();
        n.messages_sent = r.get()?;
        let has_faults: bool = r.get()?;
        n.faults =
            match (has_faults, plan) {
                (false, _) => None,
                (true, Some(plan)) => Some(FaultInjector::snap_load(r, plan, n.torus.links())?),
                (true, None) => return Err(r.malformed(
                    "snapshot carries fault-injector state but the configuration has no fault plan",
                )),
            };
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Torus;

    const CH: Channel = Channel::Request;

    fn net() -> Network {
        Network::new(Torus::new(8, 8), NetworkConfig::default())
    }

    #[test]
    fn self_send_is_instant() {
        let mut n = net();
        let d = n.unicast(100, NodeId(3), NodeId(3), 64, CH);
        assert_eq!(d.arrival, 100);
        assert_eq!(d.hops, 0);
    }

    #[test]
    fn latency_scales_with_hops() {
        let mut n = net();
        let d1 = n.unicast(0, NodeId(0), NodeId(1), 8, CH);
        n.reset_contention();
        let d2 = n.unicast(0, NodeId(0), NodeId(2), 8, CH);
        assert_eq!(d1.arrival, 8 + 1);
        assert_eq!(d2.arrival, 16 + 1);
    }

    #[test]
    fn contention_serializes_same_link() {
        let mut n = net();
        // Two 64-byte messages over the same single link back-to-back.
        let a = n.unicast(0, NodeId(0), NodeId(1), 64, CH);
        let b = n.unicast(0, NodeId(0), NodeId(1), 64, CH);
        assert!(b.arrival > a.arrival, "second message must queue");
    }

    #[test]
    fn virtual_channels_are_independent() {
        let mut n = net();
        let a = n.unicast(0, NodeId(0), NodeId(1), 64, Channel::Request);
        let b = n.unicast(0, NodeId(0), NodeId(1), 64, Channel::Response);
        assert_eq!(a.arrival, b.arrival, "different classes must not contend");
    }

    #[test]
    fn no_contention_mode_is_pure_latency() {
        let cfg = NetworkConfig {
            model_contention: false,
            ..NetworkConfig::default()
        };
        let mut n = Network::new(Torus::new(8, 8), cfg);
        let a = n.unicast(0, NodeId(0), NodeId(1), 64, CH);
        let b = n.unicast(0, NodeId(0), NodeId(1), 64, CH);
        assert_eq!(a.arrival, b.arrival);
    }

    #[test]
    fn estimate_matches_uncontended_unicast() {
        let mut n = net();
        let est = n.latency_estimate(NodeId(0), NodeId(5), 8);
        let d = n.unicast(0, NodeId(0), NodeId(5), 8, CH);
        assert_eq!(est, d.arrival);
    }

    #[test]
    fn multicast_reaches_all_other_nodes() {
        let mut n = net();
        let ds = n.multicast(0, NodeId(0), 8, CH).unwrap();
        assert_eq!(ds.len(), 63);
        let mut seen: Vec<usize> = ds.iter().map(|d| d.to.0).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 63);
        assert!(!seen.contains(&0));
    }

    #[test]
    fn multicast_total_hops_is_n_minus_one() {
        let mut n = net();
        let ds = n.multicast(0, NodeId(17), 8, CH).unwrap();
        let total: u64 = ds.iter().map(|d| d.hops).sum();
        assert_eq!(total, 63);
    }

    #[test]
    fn multicast_max_arrival_bounded_by_diameter() {
        let mut n = net();
        let ds = n.multicast(0, NodeId(0), 8, CH).unwrap();
        let max = ds.iter().map(|d| d.arrival).max().unwrap();
        // Diameter 8 hops * 8 cycles + serialization; with tree contention
        // allow a small margin.
        assert!(max <= 8 * 8 + 8 + 8, "max arrival {max}");
    }

    #[test]
    fn multicast_nearest_nodes_arrive_first() {
        let mut n = net();
        let ds = n.multicast(0, NodeId(0), 8, CH).unwrap();
        let near = ds.iter().find(|d| d.to == NodeId(1)).unwrap().arrival;
        let far = ds.iter().find(|d| d.to == NodeId(36)).unwrap().arrival;
        assert!(near < far);
    }

    #[test]
    fn message_count_increments() {
        let mut n = net();
        n.unicast(0, NodeId(0), NodeId(1), 8, CH);
        n.multicast(0, NodeId(0), 8, CH).unwrap();
        assert_eq!(n.messages_sent(), 2);
    }

    #[test]
    fn repeated_multicasts_reuse_the_cached_tree() {
        let mut a = net();
        let mut b = net();
        // Same roots, fresh contention each time: the cached-tree path
        // must time every broadcast exactly like a fresh network.
        for root in [NodeId(0), NodeId(17), NodeId(63)] {
            for _ in 0..3 {
                let da = a.multicast(0, root, 8, CH).unwrap();
                a.reset_contention();
                let db = b.multicast(0, root, 8, CH).unwrap();
                b.reset_contention();
                assert_eq!(da, db);
            }
        }
    }

    #[test]
    fn multicast_into_reuses_the_buffer() {
        let mut n = net();
        let mut buf = Vec::new();
        n.multicast_into(0, NodeId(0), 8, CH, &mut buf).unwrap();
        assert_eq!(buf.len(), 63);
        n.reset_contention();
        let first = buf.clone();
        n.multicast_into(0, NodeId(0), 8, CH, &mut buf).unwrap();
        assert_eq!(buf, first, "buffer must be cleared and refilled");
    }

    #[test]
    fn disordered_tree_reports_typed_error() {
        let mut n = net();
        // An edge departing node 5, which the (empty-prefix) broadcast
        // from node 0 has not reached.
        let t = Torus::new(8, 8);
        let bad = vec![crate::multicast::TreeEdge {
            from: NodeId(5),
            to: NodeId(6),
            link: t.link(NodeId(5), crate::topology::Direction::East),
        }];
        n.install_multicast_tree(NodeId(0), bad);
        let err = n.multicast(0, NodeId(0), 8, CH).unwrap_err();
        assert_eq!(
            err,
            NocError::MulticastTreeDisorder {
                root: NodeId(0),
                from: NodeId(5),
            }
        );
        assert!(err.to_string().contains("not topologically ordered"));
    }

    fn chaos_net(seed: u64) -> Network {
        let mut n = net();
        n.set_fault_plan(crate::fault::FaultPlan::new(
            crate::fault::FaultProfile::chaos(),
            seed,
        ));
        n
    }

    #[test]
    fn faults_never_accelerate_delivery() {
        let mut clean = net();
        let mut dirty = chaos_net(1);
        for i in 0..200u64 {
            let from = NodeId((i % 64) as usize);
            let to = NodeId(((i * 13 + 7) % 64) as usize);
            let a = clean.unicast(i * 10, from, to, 72, CH);
            let b = dirty.unicast(i * 10, from, to, 72, CH);
            assert!(
                b.arrival >= a.arrival,
                "fault injection made a delivery faster: {} < {}",
                b.arrival,
                a.arrival
            );
        }
    }

    #[test]
    fn faults_preserve_same_link_fifo() {
        // Messages injected in time order on one link must arrive in
        // order even under heavy jitter/congestion — the ring's FIFO
        // guarantee. (Same-cycle sends tie-break FIFO in the event
        // queue, so equality is fine.)
        for seed in 0..20u64 {
            let mut n = chaos_net(seed);
            let mut last = 0;
            for i in 0..100u64 {
                let d = n.unicast(i, NodeId(0), NodeId(1), 8, CH);
                assert!(
                    d.arrival >= last,
                    "seed {seed}: delivery {i} overtook its predecessor"
                );
                last = d.arrival;
            }
        }
    }

    #[test]
    fn fault_injection_is_deterministic_and_annotated() {
        let mut a = chaos_net(3);
        let mut b = chaos_net(3);
        let mut faults = 0;
        for i in 0..300u64 {
            let da = a.unicast(i * 3, NodeId(0), NodeId(9), 72, CH);
            let db = b.unicast(i * 3, NodeId(0), NodeId(9), 72, CH);
            assert_eq!(da, db);
            if da.fault.is_some() {
                faults += 1;
            }
        }
        assert!(faults > 0, "chaos profile should annotate some deliveries");
        assert_eq!(a.fault_stats(), b.fault_stats());
        assert!(a.fault_stats().total() >= faults);
    }

    #[test]
    fn multicast_faults_are_annotated() {
        let mut n = chaos_net(5);
        let mut faulted = 0;
        for i in 0..20u64 {
            let ds = n.multicast(i * 100, NodeId(0), 8, CH).unwrap();
            faulted += ds.iter().filter(|d| d.fault.is_some()).count();
        }
        assert!(faulted > 0, "multicast edges should see injected faults");
    }

    #[test]
    #[should_panic(expected = "contention modeling")]
    fn fault_plan_requires_contention_model() {
        let cfg = NetworkConfig {
            model_contention: false,
            ..NetworkConfig::default()
        };
        let mut n = Network::new(Torus::new(4, 4), cfg);
        n.set_fault_plan(crate::fault::FaultPlan::new(
            crate::fault::FaultProfile::jitter(),
            0,
        ));
    }
}
