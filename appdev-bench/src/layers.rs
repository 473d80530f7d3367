//! Per-layer attribution, measured from outside each layer.
//!
//! [`TimedBackend`] decorates the public `CacheBackend` trait, so every
//! cache call the client library makes is timed and counted at the layer
//! boundary. [`Counters`] reads the public statistics of every layer at the
//! start and end of the measured window; [`per_layer`] turns the two
//! readings, the decorator's tally and the driver's spans into the
//! per-layer metrics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use cache_server::{CacheStats, LookupOutcome, LookupRequest};
use mvdb::{BufferStats, DbStats, InvalidationMessage};
use obs::{HistogramSnapshot, MetricsSnapshot};
use pincushion::PincushionStats;
use txcache::backend::CacheBackend;
use txcache::{BackendKind, ClientStats};
use txtypes::{CacheKey, TagSet, Timestamp, ValidityInterval, WallClock};

use crate::stack::Stack;

/// A deliberately wrong behaviour the decorator can inject, to show the
/// consistency oracle is not vacuous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Forward heartbeats but drop every invalidation message, so nodes
    /// keep serving entries the database has since overwritten.
    DropInvalidations,
}

/// Calls and time the decorator saw while timing was on.
#[derive(Debug, Default)]
pub struct Tally {
    pub lookup_calls: u64,
    pub lookup_keys: u64,
    /// One sample per lookup call, in nanoseconds.
    pub lookup_ns: Vec<u64>,
    pub insert_calls: u64,
    pub insert_entries: u64,
    pub insert_bytes: u64,
    pub insert_ns: u64,
    pub inval_calls: u64,
    pub inval_messages: u64,
    pub inval_ns: u64,
    pub evict_calls: u64,
    pub evict_ns: u64,
}

/// Timing decorator around the cache backend handed to the client library.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn CacheBackend>,
    fault: Fault,
    timing: AtomicBool,
    /// Nanoseconds spent inside timed calls, for self-time attribution.
    busy_ns: AtomicU64,
    /// Invalidation batches applied, counted whether or not timing is on.
    inval_calls: AtomicU64,
    tally: Mutex<Tally>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn CacheBackend>, fault: Fault) -> TimedBackend {
        TimedBackend {
            inner,
            fault,
            timing: AtomicBool::new(false),
            busy_ns: AtomicU64::new(0),
            inval_calls: AtomicU64::new(0),
            tally: Mutex::new(Tally::default()),
        }
    }

    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Relaxed);
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    pub fn take_tally(&self) -> Tally {
        std::mem::take(&mut *self.tally.lock().expect("tally lock poisoned"))
    }

    fn timed<R>(&self, call: impl FnOnce() -> R, record: impl FnOnce(&mut Tally, u64, &R)) -> R {
        if !self.timing.load(Ordering::Relaxed) {
            return call();
        }
        let started = Instant::now();
        let out = call();
        let ns = started.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        record(
            &mut self.tally.lock().expect("tally lock poisoned"),
            ns,
            &out,
        );
        out
    }
}

fn count_lookup(t: &mut Tally, ns: u64, keys: usize) {
    t.lookup_calls += 1;
    t.lookup_keys += keys as u64;
    t.lookup_ns.push(ns);
}

type Entry = (CacheKey, Bytes, ValidityInterval, TagSet);

impl CacheBackend for TimedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn lookup_many(&self, keys: &[CacheKey], request: &LookupRequest) -> Vec<LookupOutcome> {
        self.timed(
            || self.inner.lookup_many(keys, request),
            |t, ns, out| count_lookup(t, ns, out.len()),
        )
    }

    fn lookup(&self, key: &CacheKey, request: &LookupRequest) -> LookupOutcome {
        self.timed(
            || self.inner.lookup(key, request),
            |t, ns, _| count_lookup(t, ns, 1),
        )
    }

    fn insert_many(&self, entries: Vec<Entry>, now: WallClock) {
        let (n, bytes) = (
            entries.len() as u64,
            entries.iter().map(|e| e.1.len() as u64).sum::<u64>(),
        );
        self.timed(
            || self.inner.insert_many(entries, now),
            |t, ns, ()| {
                t.insert_calls += 1;
                t.insert_entries += n;
                t.insert_bytes += bytes;
                t.insert_ns += ns;
            },
        );
    }

    fn insert(
        &self,
        key: CacheKey,
        value: Bytes,
        validity: ValidityInterval,
        tags: TagSet,
        now: WallClock,
    ) {
        let bytes = value.len() as u64;
        self.timed(
            || self.inner.insert(key, value, validity, tags, now),
            |t, ns, ()| {
                t.insert_calls += 1;
                t.insert_entries += 1;
                t.insert_bytes += bytes;
                t.insert_ns += ns;
            },
        );
    }

    fn put_stalls(&self) -> u64 {
        self.inner.put_stalls()
    }

    fn replica_fallbacks(&self) -> u64 {
        self.inner.replica_fallbacks()
    }

    fn wrong_epoch_redirects(&self) -> u64 {
        self.inner.wrong_epoch_redirects()
    }

    fn apply_invalidations(&self, batch: &[InvalidationMessage], heartbeat: Timestamp) {
        self.inval_calls.fetch_add(1, Ordering::Relaxed);
        let batch = match self.fault {
            Fault::None => batch,
            Fault::DropInvalidations => &[],
        };
        self.timed(
            || self.inner.apply_invalidations(batch, heartbeat),
            |t, ns, ()| {
                t.inval_calls += 1;
                t.inval_messages += batch.len() as u64;
                t.inval_ns += ns;
            },
        );
    }

    fn evict_stale(&self, min_useful_ts: Timestamp) {
        self.timed(
            || self.inner.evict_stale(min_useful_ts),
            |t, ns, ()| {
                t.evict_calls += 1;
                t.evict_ns += ns;
            },
        );
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

/// One reading of every layer's public statistics.
pub struct Counters {
    client: ClientStats,
    pins: PincushionStats,
    cache: CacheStats,
    db: DbStats,
    db_metrics: MetricsSnapshot,
    buffer: BufferStats,
    wal_bytes: u64,
    inval_calls: u64,
}

impl Counters {
    pub fn read(stack: &Stack) -> Counters {
        Counters {
            client: stack.txcache.stats(),
            pins: stack.txcache.pincushion().stats(),
            cache: stack.txcache.cache().stats(),
            db: stack.db.stats(),
            db_metrics: stack.db.metrics(),
            buffer: stack.db.buffer_stats(),
            wal_bytes: stack.db.wal_bytes(),
            inval_calls: stack.timed.inval_calls.load(Ordering::Relaxed),
        }
    }
}

/// Sum of the driver's spans of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub n: u64,
    pub ns: u64,
}

impl Span {
    pub fn add(&mut self, ns: u64) {
        self.n += 1;
        self.ns += ns;
    }

    fn mean_us(self) -> f64 {
        ratio(self.ns as f64 / 1e3, self.n)
    }
}

/// The spans the driver records around its calls into the client library
/// and the application, while tracing is on.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    pub begin_ro: Span,
    pub begin_rw: Span,
    pub commit_ro: Span,
    pub commit_rw: Span,
    pub pump: Span,
    pub maintenance: Span,
    /// Interaction bodies minus the cache calls made inside them.
    pub app_self: Span,
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// `end - start` of a histogram, keeping the end's extremes.
fn hist_delta(end: &MetricsSnapshot, start: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let Some(e) = end.histogram(name) else {
        return HistogramSnapshot::default();
    };
    let mut d = e.clone();
    if let Some(s) = start.histogram(name) {
        d.count -= s.count;
        d.sum -= s.sum;
        for (b, sb) in d.buckets.iter_mut().zip(s.buckets.iter()) {
            *b -= sb;
        }
    }
    d
}

fn counter_delta(end: &MetricsSnapshot, start: &MetricsSnapshot, name: &str) -> u64 {
    end.counter(name).unwrap_or(0) - start.counter(name).unwrap_or(0)
}

/// Exact nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The per-layer metrics, as `(name, unit, value)`. Every name is present
/// on every workload; a layer a workload does not exercise reads 0.
/// `txns` counts the transactions (interactions and probes) whose
/// counters fall between the two readings.
pub fn per_layer(
    start: &Counters,
    end: &Counters,
    mut tally: Tally,
    spans: &Spans,
    txns: u64,
) -> Vec<(&'static str, &'static str, f64)> {
    let c = |f: fn(&ClientStats) -> u64| (f(&end.client) - f(&start.client)) as f64;
    let k = |f: fn(&CacheStats) -> u64| (f(&end.cache) - f(&start.cache)) as f64;
    let d = |f: fn(&DbStats) -> u64| (f(&end.db) - f(&start.db)) as f64;
    let per_txn = |v: f64| v / txns.max(1) as f64;

    let lookups = k(CacheStats::lookups);
    let insertions =
        k(|s| s.insertions) + k(|s| s.duplicate_insertions) + k(|s| s.history_floor_drops);
    let rw_commits = c(|s| s.rw_transactions);
    tally.lookup_ns.sort_unstable();
    let lookup_mean_us = ratio(
        tally.lookup_ns.iter().sum::<u64>() as f64 / 1e3,
        tally.lookup_calls,
    );

    let db_hist = |name| hist_delta(&end.db_metrics, &start.db_metrics, name);
    let (query, commit) = (db_hist("db.query.us"), db_hist("db.commit.us"));

    vec![
        ("core.begin_ro.us", "us", spans.begin_ro.mean_us()),
        ("core.begin_rw.us", "us", spans.begin_rw.mean_us()),
        ("core.commit_ro.us", "us", spans.commit_ro.mean_us()),
        ("core.commit_rw.us", "us", spans.commit_rw.mean_us()),
        ("core.pump.us", "us", spans.pump.mean_us()),
        ("core.maintenance.us", "us", spans.maintenance.mean_us()),
        (
            "core.hit_ratio",
            "ratio",
            c(|s| s.cache_hits) / c(|s| s.cacheable_calls).max(1.0),
        ),
        (
            "core.cacheable_calls_per_interaction",
            "calls",
            per_txn(c(|s| s.cacheable_calls)),
        ),
        ("core.new_pins", "1/txn", per_txn(c(|s| s.new_pins))),
        ("core.reused_pins", "1/txn", per_txn(c(|s| s.reused_pins))),
        (
            "pincushion.queries",
            "1/txn",
            per_txn((end.pins.queries - start.pins.queries) as f64),
        ),
        (
            "pincushion.registrations",
            "1/txn",
            per_txn((end.pins.registrations - start.pins.registrations) as f64),
        ),
        ("cache.lookup.calls", "1/txn", per_txn(lookups)),
        ("cache.lookup.us", "us", lookup_mean_us),
        (
            "cache.lookup.p99_us",
            "us",
            percentile(&tally.lookup_ns, 0.99) as f64 / 1e3,
        ),
        (
            "cache.lookup.keys_per_call",
            "keys",
            ratio(tally.lookup_keys as f64, tally.lookup_calls),
        ),
        (
            "cache.lookup.hit_ratio",
            "ratio",
            k(|s| s.hits) / lookups.max(1.0),
        ),
        (
            "cache.miss.compulsory",
            "ratio",
            k(|s| s.compulsory_misses) / lookups.max(1.0),
        ),
        (
            "cache.miss.staleness",
            "ratio",
            k(|s| s.staleness_misses) / lookups.max(1.0),
        ),
        (
            "cache.miss.capacity",
            "ratio",
            k(|s| s.capacity_misses) / lookups.max(1.0),
        ),
        (
            "cache.miss.consistency",
            "ratio",
            k(|s| s.consistency_misses) / lookups.max(1.0),
        ),
        ("cache.insert.calls", "1/txn", per_txn(insertions)),
        (
            "cache.insert.us",
            "us",
            ratio(tally.insert_ns as f64 / 1e3, tally.insert_calls),
        ),
        (
            "cache.insert.bytes",
            "bytes",
            ratio(tally.insert_bytes as f64, tally.insert_entries),
        ),
        (
            "cache.insert.kept_ratio",
            "ratio",
            k(|s| s.insertions) / insertions.max(1.0),
        ),
        (
            "cache.insert.floor_drops",
            "ratio",
            k(|s| s.history_floor_drops) / insertions.max(1.0),
        ),
        (
            "cache.insert.late_truncations",
            "ratio",
            k(|s| s.late_insert_truncations) / insertions.max(1.0),
        ),
        (
            "cache.invalidate.calls",
            "1/txn",
            per_txn((end.inval_calls - start.inval_calls) as f64),
        ),
        (
            "cache.invalidate.us",
            "us",
            ratio(tally.inval_ns as f64 / 1e3, tally.inval_calls),
        ),
        (
            "cache.invalidate.messages",
            "msgs/call",
            ratio(tally.inval_messages as f64, tally.inval_calls),
        ),
        (
            "cache.evict_stale.us",
            "us",
            ratio(tally.evict_ns as f64 / 1e3, tally.evict_calls),
        ),
        (
            "cache.lru_evictions",
            "1/txn",
            per_txn(k(|s| s.lru_evictions)),
        ),
        ("cache.used_bytes", "bytes", end.cache.used_bytes as f64),
        (
            "mvdb.queries_per_interaction",
            "queries",
            per_txn(d(|s| s.queries)),
        ),
        ("mvdb.query.us", "us", query.mean()),
        (
            "mvdb.plan.seq_scan",
            "1/txn",
            per_txn(counter_delta(&end.db_metrics, &start.db_metrics, "db.plan.seq_scan") as f64),
        ),
        (
            "mvdb.pages.misses",
            "1/txn",
            per_txn((end.buffer.misses - start.buffer.misses) as f64),
        ),
        ("mvdb.commit.us", "us", commit.mean()),
        (
            "mvdb.wal.bytes_per_commit",
            "bytes",
            (end.wal_bytes - start.wal_bytes) as f64 / rw_commits.max(1.0),
        ),
        ("rubis.self.us", "us", spans.app_self.mean_us()),
    ]
}
