//! The metric tables. `BENCHMARK.json` lists exactly these names; the
//! benchmark's tests check that the two agree.

/// End-to-end metrics of a timed run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cycle_ms.p50", "ms"),
    ("finish_s", "s"),
    ("offers_per_s", "1/s"),
    ("imbalance_reduction", "ratio"),
    ("assigned_ratio", "ratio"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: (name, unit). A name ending in
/// `.calls`, `.self_ms` or `.ms` reads the call count, self time or busy
/// time of the span named by the rest; the others are counters.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Real-path phase split (`RegionSim`, spans around its public calls).
    ("simulation.new.ms", "ms"),
    ("simulation.run_cycle.ms", "ms"),
    ("simulation.run_cycle.total_ms", "ms"),
    ("simulation.finish.ms", "ms"),
    // Driver phases (busy time, summed over cycles).
    ("driver.offer_issue.ms", "ms"),
    ("driver.planning_wave.ms", "ms"),
    ("driver.accept_pump.ms", "ms"),
    ("driver.refinement.ms", "ms"),
    ("driver.commit_wave.ms", "ms"),
    ("driver.execution_pump.ms", "ms"),
    ("driver.finish.ms", "ms"),
    // End-of-run accounting.
    ("prosumer.flexible_load_at.calls", "count"),
    ("prosumer.flexible_load_at.self_ms", "ms"),
    ("datastore.count_in_state.calls", "count"),
    ("datastore.count_in_state.self_ms", "ms"),
    // Scheduling.
    ("brp.prepare_plan.calls", "count"),
    ("brp.prepare_plan.self_ms", "ms"),
    ("brp.on_forecast_event.calls", "count"),
    ("brp.on_forecast_event.self_ms", "ms"),
    ("runtime.replan.changed_slots", "count"),
    ("runtime.replan.scoped_offers", "count"),
    ("runtime.plan.eligible_macro", "count"),
    ("runtime.plan.assignments", "count"),
    // Node message handling and the TSO life-cycle.
    ("brp.handle.calls", "count"),
    ("brp.handle.self_ms", "ms"),
    ("brp.commit_plan.calls", "count"),
    ("brp.commit_plan.self_ms", "ms"),
    ("tso.handle.calls", "count"),
    ("tso.handle.self_ms", "ms"),
    ("tso.prepare_plan.calls", "count"),
    ("tso.prepare_plan.self_ms", "ms"),
    ("tso.on_forecast_event.calls", "count"),
    ("tso.on_forecast_event.self_ms", "ms"),
    ("tso.commit_plan.calls", "count"),
    ("tso.commit_plan.self_ms", "ms"),
    ("tso.export_snapshot.self_ms", "ms"),
    // Aggregation and delta splicing at the TSO.
    ("aggregate.folded_in", "count"),
    ("aggregate.folded_out", "count"),
    ("aggregate.refolds", "count"),
    ("aggregate.emitted", "count"),
    ("runtime.offer_deltas.spliced", "count"),
    // Prosumers.
    ("prosumer.submit.calls", "count"),
    ("prosumer.submit.self_ms", "ms"),
    ("prosumer.handle.calls", "count"),
    ("prosumer.handle.self_ms", "ms"),
    ("prosumer.on_slot.calls", "count"),
    ("prosumer.on_slot.self_ms", "ms"),
    // Network and forecast pub/sub.
    ("comm.route.calls", "count"),
    ("comm.route.self_ms", "ms"),
    ("comm.drain.calls", "count"),
    ("comm.drain.self_ms", "ms"),
    ("comm.register.calls", "count"),
    ("comm.register.self_ms", "ms"),
    ("forecast.publish.self_ms", "ms"),
    ("forecast.poll.self_ms", "ms"),
    // Durability and the self-healing wire.
    ("wal.appends", "count"),
    ("wal.tail_len.max", "count"),
    ("wal.recover.calls", "count"),
    ("wal.recover.self_ms", "ms"),
    ("wire.resyncs_requested", "count"),
    ("wire.resyncs_applied", "count"),
    ("wire.buffered", "count"),
    ("wire.duplicates", "count"),
    ("wire.suspects", "count"),
    ("wire.downs", "count"),
    ("wire.recoveries", "count"),
    ("wire.retransmits", "count"),
    ("wire.heartbeats", "count"),
    ("comm.dropped", "count"),
    ("comm.dead_lettered", "count"),
    ("comm.replayed", "count"),
    // Wire codec over every routed envelope.
    ("codec.encode.bytes", "bytes"),
    ("codec.encode.self_ms", "ms"),
    ("codec.decode.bytes", "bytes"),
    ("codec.decode.self_ms", "ms"),
    // State size.
    ("datastore.rows", "count"),
    ("brp.pool_size.max", "count"),
    ("tso.pool_size.max", "count"),
    ("brp.aggregates", "count"),
    ("tso.aggregates", "count"),
    // The trace itself.
    ("trace.driver_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead", "ratio"),
];
