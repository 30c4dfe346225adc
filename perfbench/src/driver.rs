//! The traced driver: `RegionSim`'s cycle loop rebuilt from the public
//! calls of each layer, with a span around every call.
//!
//! It follows `RegionSim::new`, `run_cycle` and `finish` step for step —
//! the same RNG streams drawn in the same order, the same routing order,
//! the same wave times — so that for any seed it produces the report
//! `RegionSim` produces. The benchmark checks that (the fidelity gate):
//! a driver that drifted would be measuring a different program.
//!
//! Two deliberate differences, neither visible in any result:
//!
//! * Each wave drives its nodes one after another on the calling thread
//!   instead of handing them to the pool. Pool width never changes a
//!   result, and a single-threaded driver keeps spans from overlapping,
//!   so self times add up. Nodes still use the pool internally (repair
//!   chains, aggregation flush shards), inside their spans.
//! * Every routed envelope is encoded and decoded with the wire codec
//!   before it is routed, and the decoded copy is what travels. That is
//!   what measures the codec layer; the codec is exact, so the decoded
//!   envelope equals the original.
//!
//! `RegionSim`'s read-only export-pool snapshot (federation support) is
//! repeated too, as `tso.export_snapshot`, so the driver does the work a
//! cycle does.

use crate::trace::Tracer;
use crate::workloads::TSO;
use mirabel_aggregate::{AggregationParams, DeltaStats};
use mirabel_core::codec::Wire;
use mirabel_core::{
    ActorId, EnergyRange, FlexOffer, NodeId, Price, Profile, RegionId, ScheduledFlexOffer, Slice,
    TimeSlot, SLOTS_PER_DAY,
};
use mirabel_edms::{
    BrpConfig, BrpNode, Envelope, IslandedRound, LinkHealthStats, Message, Network, Node,
    NodeRuntime, NodeWal, OfferState, ProsumerNode, RuntimeConfig, SimulationConfig,
    SimulationReport, TsoNode,
};
use mirabel_forecast::{ForecastEvent, ForecastHub};
use mirabel_schedule::MarketPrices;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::f64::consts::PI;

/// Ground-truth baseline imbalance for one window (as `RegionSim` draws it).
fn window_baseline(scale: f64, horizon: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..horizon)
        .map(|i| {
            let x = i as f64 / horizon as f64;
            let demand = 0.6 + 0.4 * (2.0 * PI * (x - 0.80)).cos();
            let res = 1.5 * (-((x - 0.5) * (x - 0.5)) / 0.02).exp();
            scale * (demand - res + rng.gen_range(-0.05..0.05))
        })
        .collect()
}

/// One prosumer offer inside `[window, window + horizon)` (as `RegionSim`
/// draws it).
fn gen_offer(
    id: u64,
    owner: ActorId,
    window: TimeSlot,
    horizon: u32,
    deadline: TimeSlot,
    rng: &mut StdRng,
) -> FlexOffer {
    let dur = rng.gen_range(2..=6u32);
    let base = rng.gen_range(0.5..2.5);
    let width = base * rng.gen_range(0.1..0.4);
    let profile = Profile::new(vec![Slice {
        duration: dur,
        energy: EnergyRange::new(base, base + width).expect("ordered"),
    }])
    .expect("non-empty");
    let es = rng.gen_range(0..(horizon - dur));
    let max_tf = horizon - dur - es;
    let tf = if max_tf == 0 {
        0
    } else {
        rng.gen_range(0..=max_tf)
    };
    FlexOffer::builder(id, owner.value())
        .earliest_start(window + es)
        .time_flexibility(tf)
        .assignment_before(deadline.min(window + es))
        .profile(profile)
        .unit_price(Price(0.02))
        .build()
        .expect("generated offers are valid")
}

/// The committed-execution signature of one window (the hash
/// `RegionSim::plan_signatures` records).
fn plan_signature(prosumers: &[ProsumerNode], window: TimeSlot, horizon: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
    };
    for p in prosumers {
        p.for_each_committed_in_window(
            window,
            window + horizon,
            |id, assigned, start, energies| {
                mix(id.value());
                mix((start.index() as u64) << 1 | assigned as u64);
                for e in energies {
                    mix(e.kwh().to_bits());
                }
            },
        );
    }
    h
}

fn brp_config(cfg: &SimulationConfig) -> BrpConfig {
    BrpConfig {
        scheduler: cfg.scheduler,
        budget_evaluations: cfg.budget_evaluations,
        forward_to_tso: cfg.use_tso,
        repair_chains: cfg.repair_chains.max(1),
        pool: cfg.pool.clone(),
        link_health: cfg.link_health,
        ..BrpConfig::default()
    }
}

fn tso_runtime(cfg: &SimulationConfig) -> RuntimeConfig {
    RuntimeConfig {
        budget_evaluations: cfg.budget_evaluations,
        repair_chains: cfg.repair_chains.max(1),
        pool: cfg.pool.clone(),
        ..RuntimeConfig::default()
    }
}

/// Encode, decode and route one envelope.
fn route(network: &mut Network, t: &mut Tracer, errors: &mut Vec<String>, env: Envelope) {
    let bytes = t.span("codec.encode", |_| env.to_bytes());
    t.add("codec.encode.bytes", bytes.len() as f64);
    let decoded = t.span("codec.decode", |_| Envelope::from_bytes(&bytes));
    t.add("codec.decode.bytes", bytes.len() as f64);
    let env = match decoded {
        Ok(d) => d,
        Err(e) => {
            errors.push(format!("codec: envelope failed to decode: {e:?}"));
            env
        }
    };
    t.span("comm.route", |_| network.route(env));
}

fn route_all(
    network: &mut Network,
    t: &mut Tracer,
    errors: &mut Vec<String>,
    envs: impl IntoIterator<Item = Envelope>,
) {
    for env in envs {
        route(network, t, errors, env);
    }
}

fn drain(network: &mut Network, t: &mut Tracer, node: NodeId, now: TimeSlot) -> Vec<Envelope> {
    t.span("comm.drain", |_| network.drain(node, now))
}

/// The TSO's handle, plus the delta-splice counter: when a delta batch
/// was delivered (or a resync snapshot spliced), the fold report of the
/// last batch is the work it cost.
fn tso_handle(tso: &mut TsoNode, env: Envelope, now: TimeSlot, t: &mut Tracer) -> Vec<Envelope> {
    let from = env.from;
    let deltas = matches!(env.message, Message::MacroOfferDeltas(_));
    let resync = matches!(env.message, Message::ResyncSnapshot { .. });
    let delivered = tso.stream_stats(from).delivered;
    let out = t.span("tso.handle", |_| tso.handle(env, now));
    // A delta batch may be buffered behind a gap instead of applied.
    let applied = resync || (deltas && tso.stream_stats(from).delivered > delivered);
    if applied {
        if let Some(r) = tso.last_offer_delta_report() {
            t.add(
                "runtime.offer_deltas.spliced",
                (r.inserted + r.removed + r.replaced) as f64,
            );
        }
    }
    out
}

fn plan_counters(t: &mut Tracer, report: &mirabel_edms::PlanReport) {
    t.add("runtime.plan.eligible_macro", report.eligible_macro as f64);
    t.add("runtime.plan.assignments", report.assignments as f64);
}

fn replan_counters(t: &mut Tracer, report: &Option<mirabel_edms::ReplanReport>) {
    if let Some(r) = report {
        t.add("runtime.replan.changed_slots", r.changed_slots as f64);
        t.add("runtime.replan.scoped_offers", r.scoped_offers as f64);
    }
}

/// One region's hierarchy, driven call by call.
pub struct Driver {
    cfg: SimulationConfig,
    rng: StdRng,
    churn_rng: StdRng,
    network: Network,
    tso: TsoNode,
    brps: Vec<BrpNode>,
    prosumers: Vec<ProsumerNode>,
    hub: ForecastHub,
    subscriptions: BTreeMap<NodeId, u64>,
    next_offer_id: u64,
    offers_submitted: usize,
    replans: usize,
    crashes: usize,
    shadow_load: BTreeMap<i64, f64>,
    baselines: Vec<(TimeSlot, Vec<f64>)>,
    plan_signatures: Vec<u64>,
    islanded: Vec<IslandedRound>,
    offline: BTreeSet<usize>,
    scale: f64,
    export_pool: Vec<FlexOffer>,
    /// Counters of nodes a crash replaced (their successors start at 0).
    replaced_delta: DeltaStats,
    replaced_health: LinkHealthStats,
    replaced_dedup: u64,
    /// Conditions the driver could not uphold (a codec failure).
    pub errors: Vec<String>,
}

impl Driver {
    /// Build the hierarchy (`RegionSim::new`).
    pub fn new(cfg: SimulationConfig, t: &mut Tracer) -> Driver {
        let s = SLOTS_PER_DAY;
        let rng = StdRng::seed_from_u64(cfg.seed);
        let churn_rng = StdRng::seed_from_u64(cfg.seed ^ 0x00c0_ffee);
        let mut network = Network::new(cfg.failure, cfg.seed ^ 0xabcd);
        network.set_region(RegionId::DEFAULT);
        network.set_chaos(cfg.chaos.clone());

        let mut tso = TsoNode::with_config(TSO, AggregationParams::p0(), tso_runtime(&cfg));
        if cfg.use_tso {
            t.span("comm.register", |_| network.register(TSO));
            if let Some(wal_config) = cfg.wal {
                tso.attach_wal(NodeWal::in_memory(wal_config));
            }
        }

        let brps: Vec<BrpNode> = (0..cfg.brps)
            .map(|b| {
                let id = NodeId(1 + b as u64);
                t.span("comm.register", |_| network.register(id));
                let mut brp = BrpNode::new(id, cfg.use_tso.then_some(TSO), brp_config(&cfg));
                if let Some(wal_config) = cfg.wal {
                    brp.attach_wal(NodeWal::in_memory(wal_config));
                }
                brp
            })
            .collect();

        let hub = ForecastHub::new();
        let mut subscriptions: BTreeMap<NodeId, u64> = brps
            .iter()
            .map(|b| {
                (
                    b.id,
                    t.span("forecast.subscribe", |_| hub.subscribe(s as usize, 0.0)),
                )
            })
            .collect();
        if cfg.use_tso {
            let sub = t.span("forecast.subscribe", |_| hub.subscribe(s as usize, 0.0));
            subscriptions.insert(TSO, sub);
        }

        let mut prosumers: Vec<ProsumerNode> = Vec::new();
        for b in 0..cfg.brps {
            for k in 0..cfg.prosumers_per_brp {
                let id = NodeId(10_000 + (b * cfg.prosumers_per_brp + k) as u64);
                t.span("comm.register", |_| network.register(id));
                prosumers.push(ProsumerNode::new(
                    id,
                    ActorId(id.value()),
                    NodeId(1 + b as u64),
                ));
            }
        }

        let total_flex_per_window =
            (cfg.brps * cfg.prosumers_per_brp * cfg.offers_per_prosumer) as f64 * 1.8 * 4.0;
        let scale = (total_flex_per_window / s as f64).max(0.5);
        let cycles = cfg.cycles;
        Driver {
            cfg,
            rng,
            churn_rng,
            network,
            tso,
            brps,
            prosumers,
            hub,
            subscriptions,
            next_offer_id: 1,
            offers_submitted: 0,
            replans: 0,
            crashes: 0,
            shadow_load: BTreeMap::new(),
            baselines: Vec::new(),
            plan_signatures: Vec::with_capacity(cycles),
            islanded: Vec::new(),
            offline: BTreeSet::new(),
            scale,
            export_pool: Vec::new(),
            replaced_delta: DeltaStats::default(),
            replaced_health: LinkHealthStats::default(),
            replaced_dedup: 0,
            errors: Vec::new(),
        }
    }

    /// One planning cycle (`RegionSim::run_cycle`), phase by phase.
    pub fn run_cycle(&mut self, c: usize, t: &mut Tracer) {
        let s = SLOTS_PER_DAY;
        let t0 = TimeSlot((c as i64) * s as i64);
        let window = t0 + s;
        let deadline = t0 + s / 2;
        self.network.advance(t0);

        t.span("driver.offer_issue", |t| {
            self.offer_issue(t0, window, deadline, t)
        });
        t.span("driver.crash_restart", |t| self.crash_restarts(t0, t));

        // 2. Planning wave, bottom-up.
        let forecast0 = window_baseline(self.scale, s as usize, &mut self.rng);
        let prices = MarketPrices::flat(s as usize, 0.09, 0.02, self.scale * 0.4);
        let penalties = vec![0.2; s as usize];
        t.span("driver.planning_wave", |t| {
            self.planning_wave(t0, window, &forecast0, &prices, &penalties, t)
        });

        // 2b. Prosumers see accept/reject decisions.
        let t2 = t0 + 8u32;
        self.network.advance(t2);
        t.span("driver.accept_pump", |t| self.pump_prosumers(t2, None, t));

        // 3. Intra-day refinement and incremental replans.
        let baseline = t.span("driver.refinement", |t| self.refinement(forecast0, t));
        self.baselines.push((window, baseline));
        // Pools are largest here, between planning and commit.
        self.sample_state(t);

        // 3b. The TSO's export-pool snapshot.
        t.span("tso.export_snapshot", |_| {
            self.export_pool.clear();
            if self.cfg.use_tso {
                for id in self.tso.pooled_ids() {
                    if let Some(offer) = self.tso.pooled_offer(id) {
                        self.export_pool.push(offer.clone());
                    }
                }
            }
        });

        // 4. Commit wave, top-down.
        t.span("driver.commit_wave", |t| self.commit_wave(t0, t));

        // 5. Assignments reach the prosumers; the deadline passes.
        let t5 = t0 + 20u32;
        self.network.advance(t5);
        t.span("driver.execution_pump", |t| {
            self.pump_prosumers(t5, Some(window), t)
        });

        let sig = t.span("driver.signature", |_| {
            plan_signature(&self.prosumers, window, s)
        });
        self.plan_signatures.push(sig);

        // 6. Islanded rounds, in BRP order.
        for b in self.brps.iter_mut() {
            self.islanded.extend(b.take_islanded_rounds());
        }
        self.sample_state(t);
    }

    fn offer_issue(&mut self, t0: TimeSlot, window: TimeSlot, deadline: TimeSlot, t: &mut Tracer) {
        let s = SLOTS_PER_DAY;
        let Driver {
            cfg,
            rng,
            churn_rng,
            network,
            prosumers,
            next_offer_id,
            offers_submitted,
            shadow_load,
            offline,
            errors,
            ..
        } = self;
        for (i, p) in prosumers.iter_mut().enumerate() {
            if offline.contains(&i) {
                continue;
            }
            for _ in 0..cfg.offers_per_prosumer {
                let offer = gen_offer(*next_offer_id, p.actor, window, s, deadline, rng);
                *next_offer_id += 1;
                *offers_submitted += 1;
                let open = ScheduledFlexOffer::open_contract(&offer);
                for (i, e) in open.slot_energies.iter().enumerate() {
                    *shadow_load
                        .entry(open.start.index() + i as i64)
                        .or_insert(0.0) += offer.demand_sign() * e.kwh();
                }
                let env = t.span("prosumer.submit", |_| p.submit(offer, t0));
                route(network, t, errors, env);
            }
        }
        if cfg.churn_fraction > 0.0 {
            for (i, p) in prosumers.iter_mut().enumerate() {
                if !churn_rng.gen_bool(cfg.churn_fraction.clamp(0.0, 1.0)) {
                    continue;
                }
                if offline.remove(&i) {
                    t.span("comm.register", |_| network.register(p.id));
                    t.span("prosumer.on_slot", |_| p.on_slot(t0));
                } else {
                    offline.insert(i);
                    t.span("comm.deregister", |_| network.deregister(p.id));
                }
            }
        }
    }

    fn crash_restarts(&mut self, t0: TimeSlot, t: &mut Tracer) {
        let s = SLOTS_PER_DAY;

        for node in self.cfg.chaos.crashes_between(t0, t0 + s) {
            if self.cfg.use_tso && node == TSO {
                self.crashes += 1;
                self.network.deregister(node);
                self.replaced_delta
                    .absorb(self.tso.pipeline().delta_stats());
                let survived = self.tso.take_wal().map(NodeWal::into_store);
                let (rebuilt, out) = match (survived, self.cfg.wal) {
                    (Some(store), Some(wal_config)) => t
                        .span("wal.recover", |_| {
                            TsoNode::recover(
                                TSO,
                                AggregationParams::p0(),
                                tso_runtime(&self.cfg),
                                store,
                                wal_config,
                                t0,
                            )
                        })
                        .expect("in-memory WAL stores cannot fail"),
                    _ => (
                        TsoNode::with_config(TSO, AggregationParams::p0(), tso_runtime(&self.cfg)),
                        Vec::new(),
                    ),
                };
                self.tso = rebuilt;
                self.network.register(node);
                route_all(&mut self.network, t, &mut self.errors, out);
                continue;
            }
            let Some(idx) = self.brps.iter().position(|b| b.id == node) else {
                continue;
            };
            self.crashes += 1;
            self.network.deregister(node);
            self.replaced_health
                .absorb(&self.brps[idx].link_health_stats());
            self.replaced_dedup += self.brps[idx].dedup_duplicates();
            let survived = self.brps[idx].take_wal().map(NodeWal::into_store);
            let parent = self.cfg.use_tso.then_some(TSO);
            let (rebuilt, out) = match (survived, self.cfg.wal) {
                (Some(store), Some(wal_config)) => t
                    .span("wal.recover", |_| {
                        BrpNode::recover(node, parent, brp_config(&self.cfg), store, wal_config, t0)
                    })
                    .expect("in-memory WAL stores cannot fail"),
                _ => (
                    BrpNode::new(node, parent, brp_config(&self.cfg)),
                    Vec::new(),
                ),
            };
            self.brps[idx] = rebuilt;
            self.network.register(node);
            route_all(&mut self.network, t, &mut self.errors, out);
        }
    }

    fn planning_wave(
        &mut self,
        t0: TimeSlot,
        window: TimeSlot,
        forecast0: &[f64],
        prices: &MarketPrices,
        penalties: &[f64],
        t: &mut Tracer,
    ) {
        t.span("forecast.publish", |_| self.hub.publish(forecast0));

        // Level 2: the BRPs.
        let now = t0 + 4u32;
        self.network.advance(now);
        let inboxes: Vec<Vec<Envelope>> = (0..self.brps.len())
            .map(|i| drain(&mut self.network, t, self.brps[i].id, now))
            .collect();
        let events: Vec<ForecastEvent> = self
            .brps
            .iter()
            .map(|b| self.poll(b.id, t).expect("initial publish always notifies"))
            .collect();
        let mut outs = Vec::with_capacity(self.brps.len());
        for ((brp, inbox), event) in self.brps.iter_mut().zip(inboxes).zip(events) {
            let mut out = Vec::new();
            for env in inbox {
                out.extend(t.span("brp.handle", |_| Node::handle(brp, env, now)));
            }
            let (envs, report) = t.span("brp.prepare_plan", |_| {
                NodeRuntime::prepare_plan(
                    brp,
                    now,
                    window,
                    event.forecast,
                    prices.clone(),
                    penalties.to_vec(),
                )
            });
            plan_counters(t, &report);
            out.extend(envs);
            outs.push(out);
        }
        for out in outs {
            route_all(&mut self.network, t, &mut self.errors, out);
        }

        // Level 3: the TSO.
        if self.cfg.use_tso {
            let now = t0 + 8u32;
            self.network.advance(now);
            let inbox = drain(&mut self.network, t, TSO, now);
            let event = self.poll(TSO, t).expect("initial publish always notifies");
            let mut out = Vec::new();
            for env in inbox {
                out.extend(tso_handle(&mut self.tso, env, now, t));
            }
            let (envs, report) = t.span("tso.prepare_plan", |_| {
                NodeRuntime::prepare_plan(
                    &mut self.tso,
                    now,
                    window,
                    event.forecast,
                    prices.clone(),
                    penalties.to_vec(),
                )
            });
            plan_counters(t, &report);
            out.extend(envs);
            route_all(&mut self.network, t, &mut self.errors, out);
        }
    }

    fn poll(&self, node: NodeId, t: &mut Tracer) -> Option<ForecastEvent> {
        let sub = self.subscriptions[&node];
        t.span("forecast.poll", |_| self.hub.poll(sub))
    }

    fn refinement(&mut self, forecast0: Vec<f64>, t: &mut Tracer) -> Vec<f64> {
        if self.cfg.refine_fraction <= 0.0 {
            return forecast0;
        }
        let mut refined = forecast0;
        for v in refined.iter_mut() {
            if self.rng.gen_bool(self.cfg.refine_fraction.clamp(0.0, 1.0)) {
                *v += self.scale * self.rng.gen_range(-0.3..0.3);
            }
        }
        t.span("forecast.publish", |_| self.hub.publish(&refined));
        let brp_events: Vec<Option<ForecastEvent>> =
            self.brps.iter().map(|b| self.poll(b.id, t)).collect();
        let tso_event = if self.cfg.use_tso {
            self.poll(TSO, t)
        } else {
            None
        };
        for (brp, event) in self.brps.iter_mut().zip(brp_events) {
            if let Some(event) = event {
                let report = t.span("brp.on_forecast_event", |_| {
                    NodeRuntime::on_forecast_event(brp, &event)
                });
                replan_counters(t, &report);
                self.replans += usize::from(report.is_some());
            }
        }
        if let Some(event) = tso_event {
            let report = t.span("tso.on_forecast_event", |_| {
                NodeRuntime::on_forecast_event(&mut self.tso, &event)
            });
            replan_counters(t, &report);
            self.replans += usize::from(report.is_some());
        }
        refined
    }

    fn commit_wave(&mut self, t0: TimeSlot, t: &mut Tracer) {
        let mut brp_now = t0 + 12u32;
        if self.cfg.use_tso {
            let now = t0 + 12u32;
            brp_now = t0 + 16u32;
            self.network.advance(now);
            let inbox = drain(&mut self.network, t, TSO, now);
            let mut out = Vec::new();
            for env in inbox {
                out.extend(tso_handle(&mut self.tso, env, now, t));
            }
            out.extend(t.span("tso.commit_plan", |_| {
                NodeRuntime::commit_plan(&mut self.tso, now)
            }));
            route_all(&mut self.network, t, &mut self.errors, out);
        }
        let now = brp_now;
        self.network.advance(now);
        let inboxes: Vec<Vec<Envelope>> = (0..self.brps.len())
            .map(|i| drain(&mut self.network, t, self.brps[i].id, now))
            .collect();
        let mut outs = Vec::with_capacity(self.brps.len());
        for (brp, inbox) in self.brps.iter_mut().zip(inboxes) {
            let mut out = Vec::new();
            for env in inbox {
                out.extend(t.span("brp.handle", |_| Node::handle(brp, env, now)));
            }
            out.extend(t.span("brp.commit_plan", |_| NodeRuntime::commit_plan(brp, now)));
            outs.push(out);
        }
        for out in outs {
            route_all(&mut self.network, t, &mut self.errors, out);
        }
    }

    /// One prosumer wave: drain every online inbox, then handle each
    /// prosumer's envelopes (and `on_slot`), then route replies.
    fn pump_prosumers(&mut self, now: TimeSlot, on_slot_at: Option<TimeSlot>, t: &mut Tracer) {
        let Driver {
            network,
            prosumers,
            offline,
            errors,
            ..
        } = self;
        let inboxes: Vec<Vec<Envelope>> = prosumers
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if offline.contains(&i) {
                    Vec::new()
                } else {
                    drain(network, t, p.id, now)
                }
            })
            .collect();
        let mut replies = Vec::new();
        for (i, (p, inbox)) in prosumers.iter_mut().zip(inboxes).enumerate() {
            if offline.contains(&i) {
                continue;
            }
            for env in inbox {
                replies.extend(t.span("prosumer.handle", |_| Node::handle(p, env, now)));
            }
            if let Some(slot) = on_slot_at {
                t.span("prosumer.on_slot", |_| p.on_slot(slot));
            }
        }
        route_all(network, t, errors, replies);
    }

    /// State-size samples, taken before each commit wave and after each
    /// cycle.
    fn sample_state(&self, t: &mut Tracer) {
        if !t.enabled() {
            return;
        }
        let brp_pool: usize = self.brps.iter().map(BrpNode::pool_size).sum();
        t.max("brp.pool_size.max", brp_pool as f64);
        t.max("tso.pool_size.max", self.tso.pool_size() as f64);
        let tails = self
            .brps
            .iter()
            .filter_map(|b| b.wal())
            .chain(self.tso.wal())
            .map(NodeWal::tail_len);
        for tail in tails {
            t.max("wal.tail_len.max", tail as f64);
        }
    }

    /// Close the run (`RegionSim::finish`): the churn sweep, the
    /// imbalance accounting, the invariant probes and the report.
    pub fn finish(mut self, t: &mut Tracer) -> SimulationReport {
        let s = SLOTS_PER_DAY;
        let end = TimeSlot((self.cfg.cycles as i64 + 1) * s as i64);
        if self.cfg.churn_fraction > 0.0 {
            self.network.advance(end);
            let Driver {
                network,
                prosumers,
                offline,
                errors,
                ..
            } = &mut self;
            for (i, p) in prosumers.iter_mut().enumerate() {
                if offline.remove(&i) {
                    t.span("comm.register", |_| network.register(p.id));
                }
                t.span("prosumer.on_slot", |_| p.on_slot(end));
                for env in drain(network, t, p.id, end) {
                    let replies = t.span("prosumer.handle", |_| Node::handle(p, env, end));
                    route_all(network, t, errors, replies);
                }
            }
        }

        let mut imbalance_before = 0.0;
        let mut imbalance_after = 0.0;
        for (window, baseline) in &self.baselines {
            for (i, &b) in baseline.iter().enumerate() {
                let slot = *window + i as u32;
                let open = self.shadow_load.get(&slot.index()).copied().unwrap_or(0.0);
                let realized: f64 = self
                    .prosumers
                    .iter()
                    .map(|p| t.span("prosumer.flexible_load_at", |_| p.flexible_load_at(slot)))
                    .sum();
                imbalance_before += (b + open).abs();
                imbalance_after += (b + realized).abs();
            }
        }

        let mut count = |b: &BrpNode, state: OfferState| {
            t.span("datastore.count_in_state", |_| {
                b.store.count_in_state(state)
            })
        };
        let accepted: usize = self
            .brps
            .iter()
            .map(|b| {
                count(b, OfferState::Accepted)
                    + count(b, OfferState::Assigned)
                    + count(b, OfferState::Provisional)
                    + count(b, OfferState::Expired)
            })
            .sum();
        let rejected: usize = self
            .brps
            .iter()
            .map(|b| count(b, OfferState::Rejected))
            .sum();

        let phantom_offers = if self.cfg.use_tso {
            let exported: BTreeSet<u64> = self
                .brps
                .iter()
                .flat_map(|b| b.exported_offer_ids())
                .map(|id| id.value())
                .collect();
            self.tso
                .pooled_ids()
                .iter()
                .filter(|id| !exported.contains(&id.value()))
                .filter(|id| {
                    self.tso
                        .pooled_offer(**id)
                        .is_some_and(|o| !o.is_expired(end))
                })
                .count()
        } else {
            0
        };
        let energy_violations = self
            .prosumers
            .iter()
            .map(|p| p.energy_violations(1e-6))
            .sum();
        let (provisional_adopted, provisional_superseded) = self.tso.provisional_audit();
        self.final_counters(t);

        SimulationReport {
            offers_submitted: self.offers_submitted,
            accepted,
            rejected,
            assigned: self.prosumers.iter().map(|p| p.assigned_count()).sum(),
            fallbacks: self.prosumers.iter().map(|p| p.fallback_count()).sum(),
            replans: self.replans,
            imbalance_before,
            imbalance_after,
            network: self.network.stats(),
            plan_signatures: self.plan_signatures,
            phantom_offers,
            energy_violations,
            crashes: self.crashes,
            islanded: self.islanded,
            provisional_adopted,
            provisional_superseded,
        }
    }

    /// Layer counters read once, at the end of the run.
    fn final_counters(&self, t: &mut Tracer) {
        if !t.enabled() {
            return;
        }
        let mut delta = self.replaced_delta;
        delta.absorb(self.tso.pipeline().delta_stats());
        t.add("aggregate.folded_in", delta.folded_in as f64);
        t.add("aggregate.folded_out", delta.folded_out as f64);
        t.add("aggregate.refolds", delta.refolds as f64);
        t.add("aggregate.emitted", delta.emitted as f64);

        let mut health = self.replaced_health;
        let mut dedup = self.replaced_dedup;
        let mut stream = mirabel_edms::StreamStats::default();
        for b in &self.brps {
            health.absorb(&b.link_health_stats());
            dedup += b.dedup_duplicates();
            if self.cfg.use_tso {
                stream.absorb(&self.tso.stream_stats(b.id));
            }
        }
        t.add("wire.resyncs_requested", stream.resyncs_requested as f64);
        t.add("wire.resyncs_applied", stream.resyncs_applied as f64);
        t.add("wire.buffered", stream.buffered as f64);
        t.add("wire.duplicates", (stream.duplicates + dedup) as f64);
        t.add("wire.suspects", health.suspects as f64);
        t.add("wire.downs", health.downs as f64);
        t.add("wire.recoveries", health.recoveries as f64);
        t.add("wire.retransmits", health.retransmits as f64);
        t.add("wire.heartbeats", health.heartbeats_seen as f64);

        let net = self.network.stats();
        t.add("comm.dropped", net.dropped as f64);
        t.add("comm.dead_lettered", net.dead_lettered as f64);
        t.add("comm.replayed", net.replayed as f64);

        let appends: u64 = self
            .brps
            .iter()
            .filter_map(|b| b.wal())
            .chain(self.tso.wal())
            .map(NodeWal::next_event_id)
            .sum();
        t.add("wal.appends", appends as f64);

        let rows: usize = self
            .brps
            .iter()
            .map(|b| {
                let (m, o, sc, p, f) = b.store.row_counts();
                m + o + sc + p + f
            })
            .sum();
        t.add("datastore.rows", rows as f64);
        let brp_aggregates: usize = self.brps.iter().map(BrpNode::aggregate_count).sum();
        t.add("brp.aggregates", brp_aggregates as f64);
        t.add("tso.aggregates", self.tso.aggregate_count() as f64);
    }
}
