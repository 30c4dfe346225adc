//! Durable-node recovery contract shared by the BRP and the TSO.
//!
//! Two properties are pinned down:
//!
//! 1. **Snapshot format.** The bytes a small, fixed node installs at a
//!    WAL compaction point are asserted as literals — a local-mode BRP,
//!    a TSO-forwarding BRP (both with duplicate-filter state), and a TSO
//!    with two BRP streams, applied-flush counters and provisional-audit
//!    counters. A codec or compaction change that moves one byte fails
//!    here.
//! 2. **Corruption sweep.** Both public `recover`s are driven over a
//!    crafted store holding every strict truncation and every single-bit
//!    flip of those snapshots. A truncated snapshot is rejected with
//!    `InvalidData` (never silently dropped, which would rebuild the node
//!    from the tail alone); a bit flip returns `Ok` or `Err` but never
//!    panics.

use mirabel_aggregate::{AggregationParams, FlexOfferUpdate};
use mirabel_core::{EnergyRange, FlexOffer, NodeId, Price, Profile, ScheduledFlexOffer, TimeSlot};
use mirabel_edms::{
    BrpConfig, BrpNode, Envelope, LoadedLog, Message, NodeWal, RuntimeConfig, TsoNode, WalConfig,
    WalStore,
};
use mirabel_schedule::MarketPrices;
use std::io::ErrorKind;
use std::panic::AssertUnwindSafe;

const BRP: NodeId = NodeId(1);
const TSO: NodeId = NodeId(100);

/// A store whose `load` returns exactly the crafted snapshot bytes (and
/// no log frames); appends and installs after recovery are discarded.
#[derive(Debug)]
struct Crafted(Vec<u8>);

impl WalStore for Crafted {
    fn append(&mut self, _frame: &[u8]) -> std::io::Result<()> {
        Ok(())
    }

    fn install_snapshot(&mut self, _snapshot: &[u8]) -> std::io::Result<()> {
        Ok(())
    }

    fn load(&mut self) -> std::io::Result<LoadedLog> {
        Ok((Some(self.0.clone()), Vec::new()))
    }
}

fn offer(id: u64, owner: u64, es: i64) -> FlexOffer {
    FlexOffer::builder(id, owner)
        .earliest_start(TimeSlot(es))
        .time_flexibility(8)
        .assignment_before(TimeSlot(90))
        .profile(Profile::uniform(2, EnergyRange::new(1.0, 2.0).unwrap()))
        .build()
        .unwrap()
}

fn brp_config(forward_to_tso: bool) -> BrpConfig {
    BrpConfig {
        forward_to_tso,
        ..BrpConfig::default()
    }
}

fn submit(from: u64, seq: u64, o: FlexOffer) -> Envelope {
    Envelope::new(NodeId(from), BRP, TimeSlot(0), Message::SubmitOffer(o)).with_seq(seq)
}

/// The installed snapshot (event-id header included) a node's WAL store
/// holds, asserting the log was truncated right at it.
fn installed_snapshot(wal: NodeWal) -> Vec<u8> {
    let (snapshot, frames) = wal.into_store().load().unwrap();
    assert!(frames.is_empty(), "compaction truncated the log");
    snapshot.expect("a snapshot was installed")
}

/// Four pooled offers from two prosumers; the filters hold a dropped
/// duplicate (sender 10) and an out-of-order delivery (sender 11).
fn feed_prosumers(brp: &mut BrpNode) {
    assert!(!brp
        .handle(submit(10, 0, offer(1, 7, 110)), TimeSlot(0))
        .is_empty());
    assert!(brp
        .handle(submit(10, 0, offer(1, 7, 110)), TimeSlot(0))
        .is_empty());
    brp.handle(submit(10, 1, offer(2, 7, 112)), TimeSlot(0));
    brp.handle(submit(11, 3, offer(3, 8, 111)), TimeSlot(0));
    brp.handle(submit(11, 0, offer(4, 8, 140)), TimeSlot(0));
}

/// The snapshot a local-mode BRP installs after four accepted offers.
fn brp_local_snapshot() -> Vec<u8> {
    let mut brp = BrpNode::new(BRP, None, brp_config(false));
    brp.attach_wal(NodeWal::in_memory(WalConfig { snapshot_every: 4 }));
    feed_prosumers(&mut brp);
    installed_snapshot(brp.take_wal().unwrap())
}

/// The snapshot a TSO-forwarding BRP installs after four accepted
/// offers, one upward flush, and one macro assignment back from the TSO
/// (which drains the assigned members from the pool and adds the TSO's
/// stream to the duplicate filters).
fn brp_forward_snapshot() -> Vec<u8> {
    let mut brp = BrpNode::new(BRP, Some(TSO), brp_config(true));
    brp.attach_wal(NodeWal::in_memory(WalConfig { snapshot_every: 6 }));
    feed_prosumers(&mut brp);
    let (flush, _) = brp.prepare_plan(
        TimeSlot(0),
        TimeSlot(96),
        vec![0.0; 96],
        MarketPrices::flat(96, 0.08, 0.03, 100.0),
        vec![0.2; 96],
    );
    let Message::MacroOfferDeltas(deltas) = &flush[0].message else {
        panic!("forward mode flushes its staged exports: {flush:?}");
    };
    let FlexOfferUpdate::Insert(exported) = &deltas[0] else {
        panic!("a fresh export is an insert");
    };
    let schedule = ScheduledFlexOffer::at_min(exported, exported.earliest_start());
    let assignment = Envelope::new(
        TSO,
        BRP,
        TimeSlot(0),
        Message::Assignment {
            schedule,
            discount_per_kwh: Price::ZERO,
        },
    )
    .with_seq(0);
    assert!(!brp.handle(assignment, TimeSlot(0)).is_empty());
    installed_snapshot(brp.take_wal().unwrap())
}

fn macro_offer(id: u64, es: i64) -> FlexOffer {
    FlexOffer::builder(id, 1)
        .earliest_start(TimeSlot(es))
        .time_flexibility(6)
        .assignment_before(TimeSlot(es - 10))
        .profile(Profile::uniform(3, EnergyRange::new(2.0, 6.0).unwrap()))
        .build()
        .unwrap()
}

fn to_tso(from: u64, seq: u64, message: Message) -> Envelope {
    Envelope::new(NodeId(from), TSO, TimeSlot(0), message).with_seq(seq)
}

/// The snapshot a TSO installs after delta batches from two BRPs, an
/// out-of-order batch parked behind a gap, and a provisional report
/// that adopts one offer and supersedes another. Three macro offers
/// stay pooled.
fn tso_snapshot() -> Vec<u8> {
    let mut tso = TsoNode::new(TSO, AggregationParams::p3(8, 8), 500);
    tso.attach_wal(NodeWal::in_memory(WalConfig { snapshot_every: 4 }));
    let insert = |id, es| FlexOfferUpdate::Insert(macro_offer(id, es));
    tso.handle(
        to_tso(
            1,
            0,
            Message::MacroOfferDeltas(vec![insert(11, 120), insert(12, 130)]),
        ),
        TimeSlot(0),
    );
    tso.handle(
        to_tso(
            2,
            0,
            Message::MacroOfferDeltas(vec![insert(21, 125), insert(22, 150)]),
        ),
        TimeSlot(0),
    );
    let gap = tso.handle(
        to_tso(2, 2, Message::MacroOfferDeltas(vec![insert(23, 160)])),
        TimeSlot(0),
    );
    assert!(matches!(gap[0].message, Message::ResyncRequest));
    let audited = |id| ScheduledFlexOffer::at_min(&macro_offer(id, 120), TimeSlot(120));
    tso.handle(
        to_tso(
            1,
            1,
            Message::ProvisionalReport {
                window_start: TimeSlot(96),
                assignments: vec![audited(11), audited(99)],
            },
        ),
        TimeSlot(0),
    );
    assert_eq!(tso.provisional_audit(), (1, 1));
    assert_eq!(tso.pool_size(), 3);
    installed_snapshot(tso.take_wal().unwrap())
}

const BRP_LOCAL_SNAPSHOT: &[u8] = &[
    4, 4, 1, 7, 0, 180, 1, 220, 1, 236, 1, 1, 2, 0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 0,
    64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10, 2, 7, 0, 180, 1, 224, 1, 240, 1, 1, 2, 0, 0, 0, 0, 0, 0,
    240, 63, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10, 3, 8, 0, 180, 1, 222, 1, 238,
    1, 1, 2, 0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11, 4,
    8, 0, 180, 1, 152, 2, 168, 2, 1, 2, 0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 11, 2, 10, 2, 0, 1, 11, 1, 1, 3, 0,
];

const BRP_FORWARD_SNAPSHOT: &[u8] = &[
    6, 1, 4, 8, 0, 180, 1, 152, 2, 168, 2, 1, 2, 0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 0,
    64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11, 3, 10, 2, 0, 1, 11, 1, 1, 3, 0, 100, 1, 0, 0,
];

const TSO_SNAPSHOT: &[u8] = &[
    4, 3, 12, 1, 0, 240, 1, 132, 2, 144, 2, 1, 3, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 24,
    64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 21, 1, 0, 230, 1, 250, 1, 134, 2, 1, 3, 0, 0, 0, 0, 0, 0, 0,
    64, 0, 0, 0, 0, 0, 0, 24, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 22, 1, 0, 152, 2, 172, 2, 184, 2,
    1, 3, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 24, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 1,
    0, 128, 8, 0, 1, 0, 0, 0, 0, 0, 2, 1, 1, 2, 100, 0, 1, 2, 5, 1, 0, 23, 1, 0, 172, 2, 192, 2,
    204, 2, 1, 3, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 24, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    128, 8, 1, 1, 0, 1, 1, 0, 0, 2, 1, 1, 2, 1, 1, 1,
];

fn recover_brp(forward_to_tso: bool, snapshot: Vec<u8>) -> std::io::Result<BrpNode> {
    BrpNode::recover(
        BRP,
        forward_to_tso.then_some(TSO),
        brp_config(forward_to_tso),
        Box::new(Crafted(snapshot)),
        WalConfig::default(),
        TimeSlot(0),
    )
    .map(|(node, _)| node)
}

fn recover_tso(snapshot: Vec<u8>) -> std::io::Result<TsoNode> {
    TsoNode::recover(
        TSO,
        AggregationParams::p3(8, 8),
        RuntimeConfig {
            budget_evaluations: 500,
            ..RuntimeConfig::default()
        },
        Box::new(Crafted(snapshot)),
        WalConfig::default(),
        TimeSlot(0),
    )
    .map(|(node, _)| node)
}

/// Every strict truncation of `snapshot` must be rejected as
/// `InvalidData`.
fn assert_truncations_rejected<N>(
    snapshot: &[u8],
    recover: impl Fn(Vec<u8>) -> std::io::Result<N>,
) {
    assert!(
        recover(snapshot.to_vec()).is_ok(),
        "the intact snapshot recovers"
    );
    for len in 0..snapshot.len() {
        match recover(snapshot[..len].to_vec()) {
            Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "truncated to {len} bytes"),
            Ok(_) => panic!(
                "a snapshot truncated to {len} of {} bytes recovered",
                snapshot.len()
            ),
        }
    }
}

/// Every single-bit flip of `snapshot` must recover or fail — never
/// panic.
fn assert_bit_flips_never_panic<N>(
    snapshot: &[u8],
    recover: impl Fn(Vec<u8>) -> std::io::Result<N>,
) {
    for bit in 0..snapshot.len() * 8 {
        let mut bytes = snapshot.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| recover(bytes).is_ok()));
        assert!(outcome.is_ok(), "recovery panicked on a flip of bit {bit}");
    }
}

#[test]
fn brp_snapshot_bytes_are_pinned() {
    assert_eq!(brp_local_snapshot(), BRP_LOCAL_SNAPSHOT);
    assert_eq!(brp_forward_snapshot(), BRP_FORWARD_SNAPSHOT);
}

#[test]
fn tso_snapshot_bytes_are_pinned() {
    assert_eq!(tso_snapshot(), TSO_SNAPSHOT);
}

#[test]
fn pinned_snapshots_recover_their_state() {
    let local = recover_brp(false, BRP_LOCAL_SNAPSHOT.to_vec()).unwrap();
    assert_eq!(local.pool_size(), 4);
    assert_eq!(local.dedup_duplicates(), 1);
    let forward = recover_brp(true, BRP_FORWARD_SNAPSHOT.to_vec()).unwrap();
    assert_eq!(
        forward.pool_size(),
        1,
        "the TSO assignment drained three offers"
    );
    assert_eq!(forward.exported_offer_ids().len(), 1);
    let tso = recover_tso(TSO_SNAPSHOT.to_vec()).unwrap();
    assert_eq!(tso.pool_size(), 3);
    assert_eq!(tso.provisional_audit(), (1, 1));
}

#[test]
fn truncated_brp_snapshots_are_rejected() {
    assert_truncations_rejected(BRP_LOCAL_SNAPSHOT, |s| recover_brp(false, s));
    assert_truncations_rejected(BRP_FORWARD_SNAPSHOT, |s| recover_brp(true, s));
}

#[test]
fn truncated_tso_snapshots_are_rejected() {
    assert_truncations_rejected(TSO_SNAPSHOT, recover_tso);
}

#[test]
fn bit_flipped_brp_snapshots_never_panic() {
    assert_bit_flips_never_panic(BRP_LOCAL_SNAPSHOT, |s| recover_brp(false, s));
    assert_bit_flips_never_panic(BRP_FORWARD_SNAPSHOT, |s| recover_brp(true, s));
}

#[test]
fn bit_flipped_tso_snapshots_never_panic() {
    assert_bit_flips_never_panic(TSO_SNAPSHOT, recover_tso);
}
