//! Builds and tears down the stack one workload runs on: the RUBiS data in
//! `mvdb` (in memory, or logged to a WAL in a temporary directory), the in-process
//! cache tier, and the `txcache` client library wired through the timing
//! decorator.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cache_server::CacheCluster;
use mvdb::{Database, DbConfig, FsyncPolicy};
use pincushion::Pincushion;
use rubis::{RubisApp, RubisScale};
use txcache::{CacheBackend, CacheMode, TxCache, TxCacheConfig};
use txtypes::SimClock;

use crate::layers::{Fault, TimedBackend};

/// Scale factor applied to the paper's in-memory RUBiS configuration.
const SCALE_FACTOR: f64 = 0.05;
const CACHE_NODES: usize = 2;
/// Total cache capacity of `rubis-cached`: far above the working set, so it
/// never evicts for space.
const LARGE_CACHE_BYTES: usize = 64 << 20;
/// Total cache capacity of `rubis-wal`: below the working set, so LRU
/// eviction runs.
const SMALL_CACHE_BYTES: usize = 2 << 20;
/// Where the WAL-logged database of `rubis-wal` lives, relative to the
/// working directory. Removed on every exit path that unwinds.
const TMP_ROOT: &str = ".appdev-bench-tmp";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cached,
    NoCache,
    Wal,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "rubis-cached" => Some(Workload::Cached),
            "rubis-nocache" => Some(Workload::NoCache),
            "rubis-wal" => Some(Workload::Wal),
            _ => None,
        }
    }
}

/// The database configuration: a buffer pool that holds the whole data set
/// (the paper's in-memory configuration). On `rubis-wal` every commit is
/// appended to the WAL but never fsynced: fsync latency on a shared virtual
/// disk varied threefold between runs (README.md), which would drown any
/// change in the program.
fn db_config(scale: &RubisScale) -> DbConfig {
    let rows_per_page = 32usize;
    let total_rows = scale.users
        + scale.total_items() * (1 + scale.bids_per_item)
        + scale.users * scale.comments_per_user
        + scale.active_items;
    DbConfig {
        buffer_pages: (total_rows / rows_per_page).max(64) * 4,
        rows_per_page,
        fsync: FsyncPolicy::Never,
        ..DbConfig::default()
    }
}

/// A directory under the working directory, removed on drop. Its name is
/// fixed by the caller, so a directory left behind by a killed run is
/// replaced by the next run that uses the name.
pub struct TempDir {
    pub path: PathBuf,
}

impl TempDir {
    fn create(name: &str) -> Result<TempDir, String> {
        let path = Path::new(TMP_ROOT).join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("mkdir {}: {e}", path.display()))?;
        Ok(TempDir { path })
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Only succeeds once the last directory in it is gone.
        let _ = std::fs::remove_dir(TMP_ROOT);
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in KiB (0 if unreadable).
pub fn peak_rss_kib(status_path: &str) -> u64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One assembled stack. Field order is drop order: the client library
/// goes first, then the database, then its directory.
pub struct Stack {
    pub app: RubisApp,
    pub txcache: Arc<TxCache>,
    pub timed: Arc<TimedBackend>,
    pub db: Arc<Database>,
    pub clock: SimClock,
    pub scale: RubisScale,
    pub dir: Option<TempDir>,
}

impl Stack {
    pub fn build(workload: Workload, seed: u64, fault: Fault, tag: &str) -> Result<Stack, String> {
        let scale = RubisScale::in_memory(SCALE_FACTOR);
        let clock = SimClock::new();
        let config = db_config(&scale);
        let (db, dir) = if workload == Workload::Wal {
            let dir = TempDir::create(&format!("db-{tag}"))?;
            let db = Database::open_durable(&dir.path, config, clock.clone())
                .map_err(|e| format!("open durable db: {e}"))?;
            (db, Some(dir))
        } else {
            (Database::new(config, clock.clone()), None)
        };
        let db = Arc::new(db);
        rubis::create_tables(&db).map_err(|e| format!("create tables: {e}"))?;
        rubis::populate(&db, &scale, seed).map_err(|e| format!("populate: {e}"))?;

        let capacity = if workload == Workload::Wal {
            SMALL_CACHE_BYTES
        } else {
            LARGE_CACHE_BYTES
        };
        let inner: Arc<dyn CacheBackend> =
            Arc::new(CacheCluster::with_total_capacity(CACHE_NODES, capacity));
        let timed = Arc::new(TimedBackend::new(inner, fault));
        let pincushion = Arc::new(Pincushion::new(Default::default(), clock.clone()));
        let mode = if workload == Workload::NoCache {
            CacheMode::Disabled
        } else {
            CacheMode::Full
        };
        let backend: Arc<dyn CacheBackend> = timed.clone();
        let txcache = Arc::new(TxCache::with_backend(
            Arc::clone(&db),
            backend,
            pincushion,
            clock.clone(),
            TxCacheConfig {
                mode,
                ..TxCacheConfig::default()
            },
        ));
        Ok(Stack {
            app: RubisApp::new(Arc::clone(&txcache)),
            txcache,
            timed,
            db,
            clock,
            scale,
            dir,
        })
    }
}
