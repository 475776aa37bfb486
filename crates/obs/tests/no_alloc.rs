//! The no-op path must not allocate: with no sink installed, opening,
//! annotating and finishing spans is free of heap traffic, and nothing
//! is collected. Neither does the serving layer's per-request telemetry
//! (query-id context, flight-recorder stamp, windowed SLO record).
//!
//! This file holds a **single** test on purpose: it installs a counting
//! global allocator and measures an allocation delta, which would race
//! with sibling tests in the same binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use toss_obs::{FlightRecorder, QueryId, QueryOutcomeKind, QueryRecord, RollingWindow};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn disabled_spans_do_not_allocate() {
    assert!(!toss_obs::tracing_enabled());

    // Warm up thread-locals (the lazy thread id, the span stack) and the
    // timer outside the measured window.
    let _ = toss_obs::span("warmup").finish();
    toss_obs::record("warmup_field", 1u64);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        let span = toss_obs::span("toss.query.select");
        toss_obs::record("expansion_terms", i); // free: no open span collects it
        span.record("results", i);
        let _ = span.finish();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled span path allocated {} time(s)",
        after - before
    );

    // And nothing was collected anywhere: installing a sink *now* shows
    // an empty world (span-count == 0 for everything above).
    let sink = std::sync::Arc::new(toss_obs::sink::MemorySink::new());
    let scope = toss_obs::install_sink_scoped(sink.clone());
    assert_eq!(sink.len(), 0);
    drop(scope);

    // Per-request telemetry: records (and their strings) are built
    // outside the measured window; the ring is full, so every push evicts.
    const REQUESTS: u64 = 10_000;
    let record = |i: u64| QueryRecord {
        query_id: i,
        class: "interactive".to_string(),
        query: format!("//inproceedings[author=\"A{i}\"]"),
        plan: "index-probe tag=author terms=1 candidates=1".to_string(),
        total_ns: 100_000 + i,
        ..QueryRecord::default()
    };
    let flight = FlightRecorder::new(512);
    for i in 0..flight.capacity() as u64 {
        flight.record(record(i));
    }
    let window = RollingWindow::new(Duration::from_secs(1), 10);
    let records: Vec<QueryRecord> = (0..REQUESTS).map(record).collect();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for rec in records {
        let _ctx = toss_obs::set_current_query(QueryId(rec.query_id));
        let total_ns = rec.total_ns;
        flight.record(rec);
        window.record(total_ns, QueryOutcomeKind::Ok);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "per-request telemetry allocated {} time(s)",
        after - before
    );
    assert_eq!(flight.recorded(), flight.capacity() as u64 + REQUESTS);
    assert_eq!(flight.len(), flight.capacity());
}
