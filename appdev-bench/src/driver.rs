//! The closed-loop driver: one thread cycling 64 RUBiS client sessions
//! through the bidding mix, with consistency probes after every round and
//! the checks that judge the outputs.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use mvdb::{Aggregate, Database, Predicate, QueryResult, SelectQuery, SortOrder};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rubis::{BidInfo, ClientSession, Interaction, ItemDetails, RubisApp, WorkloadConfig};
use txcache::Transaction;
use txtypes::{Staleness, Timestamp};

use crate::layers::Spans;
use crate::stack::Stack;

const SESSIONS: usize = 64;
/// Interactions per round; each round ends with one probe of a random item
/// and one probe of the reused-id item, so every run attempts whole rounds
/// of the same operations.
const ROUND: usize = 32;
/// Mean gap between interactions on the simulated clock. A 30 s staleness
/// window then spans about 3,000 interactions (≈450 updates), whatever the
/// host's speed.
const INTERARRIVAL_US: f64 = 10_000.0;
const MAINTENANCE_EVERY: u64 = 128;
const STALENESS_SECS: u64 = 30;

/// Tables whose row growth is checked against acknowledged commits.
const WRITE_TABLES: [&str; 5] = ["users", "items", "bids", "comments", "buy_now"];

/// Arguments of one interaction, drawn by the driver from its seed.
struct Args {
    item: i64,
    active_item: i64,
    other_user: i64,
    category: i64,
    region: i64,
    page: usize,
    amount: f64,
    me: i64,
}

type Res<T> = txtypes::Result<T>;

/// Everything the driver has found wrong with the program's outputs.
#[derive(Debug, Default)]
pub struct Findings {
    /// Probe results that differ from the database's own snapshot.
    pub snapshot_mismatches: u64,
    /// Read-only commits at a snapshot newer than the latest commit.
    pub future_reads: u64,
    /// `nb_of_bids != |bid history|` outside the reused-id range.
    pub unexpected_violations: u64,
    /// Operations that returned an error.
    pub errors: u64,
    pub first_error: Option<String>,
    /// Random probes that landed on a reused id and saw the fault.
    pub reused_probe_violations: u64,
    pub probes: u64,
}

impl Findings {
    pub fn consistent(&self) -> bool {
        self.snapshot_mismatches == 0 && self.future_reads == 0 && self.unexpected_violations == 0
    }
}

pub struct Driver<'a> {
    stack: &'a Stack,
    sessions: Vec<ClientSession>,
    rng: StdRng,
    staleness: Staleness,
    steps: u64,
    new_users: u64,
    /// Read/write commits (simulated wall time, commit timestamp) not yet
    /// older than the staleness limit.
    commit_log: VecDeque<(u64, Timestamp)>,
    /// Newest commit older than the staleness limit: every read-only
    /// snapshot must include it.
    fresh_floor: Timestamp,
    baseline_rows: [i64; 5],
    /// Acknowledged commits per table of [`WRITE_TABLES`].
    pub writes: [i64; 5],
    pub fault_item: i64,
    max_item_id: i64,
    pub findings: Findings,
    // Measurement state, switched by the caller.
    pub recording: bool,
    pub tracing: bool,
    pub attempted: u64,
    pub failed: u64,
    pub interactions: u64,
    /// Wall time spent in probes and checks, excluded from throughput.
    pub check_ns: u64,
    pub ro_ns: Vec<u64>,
    pub rw_ns: Vec<u64>,
    pub spans: Spans,
    /// Measured read-only commits whose snapshot misses a commit older
    /// than the staleness limit, and all measured read-only commits. Not
    /// counted against correctness: the client library re-pins old
    /// timestamps as fresh (see README.md), and how often depends on the
    /// seed. Reported as the `oracle.stale_reads` share.
    pub stale: (u64, u64),
}

impl<'a> Driver<'a> {
    /// Creates the driver and registers the one auction the reused-id
    /// probes read.
    pub fn new(stack: &'a Stack, seed: u64) -> Result<Driver<'a>, String> {
        let config = WorkloadConfig {
            staleness: Staleness::seconds(STALENESS_SECS),
            ..WorkloadConfig::default()
        };
        let sessions = (0..SESSIONS)
            .map(|i| ClientSession::new(seed.wrapping_add(i as u64 + 1), stack.scale, config))
            .collect();
        let mut baseline_rows = [0; 5];
        for (i, t) in WRITE_TABLES.iter().enumerate() {
            baseline_rows[i] = count_rows(&stack.db, t).map_err(|e| e.to_string())?;
        }
        let mut driver = Driver {
            stack,
            sessions,
            rng: StdRng::seed_from_u64(seed ^ 0xD21F_E5ED),
            staleness: config.staleness,
            steps: 0,
            new_users: 0,
            commit_log: VecDeque::from([(0, stack.db.latest_timestamp())]),
            fresh_floor: Timestamp::ZERO,
            baseline_rows,
            writes: [0; 5],
            fault_item: 0,
            max_item_id: stack.scale.active_items as i64,
            findings: Findings::default(),
            recording: false,
            tracing: false,
            attempted: 0,
            failed: 0,
            interactions: 0,
            check_ns: 0,
            ro_ns: Vec::new(),
            rw_ns: Vec::new(),
            spans: Spans::default(),
            stale: (0, 0),
        };
        let app = &stack.app;
        let mut tx = app.begin_rw().map_err(|e| e.to_string())?;
        let id = app
            .register_item(&mut tx, 1, 1, 1, "reused-id probe", "new auction", 10.0)
            .map_err(|e| e.to_string())?;
        let info = tx.commit().map_err(|e| e.to_string())?;
        driver.log_write(info.timestamp, &[1]);
        driver.fault_item = id;
        driver.max_item_id = driver.max_item_id.max(id);
        Ok(driver)
    }

    /// Whether `id` is an active item that took the id of a closed one.
    fn reused(&self, id: i64) -> bool {
        let scale = &self.stack.scale;
        id > scale.active_items as i64 && id <= self.max_item_id.min(scale.total_items() as i64)
    }

    /// `ROUND` interactions, then the two probes.
    pub fn round(&mut self) {
        for _ in 0..ROUND {
            self.step();
        }
        let total = self.stack.scale.total_items() as i64;
        let id = self.rng.random_range(1..=total);
        self.probe(id, false);
        self.probe(self.fault_item, true);
    }

    fn step(&mut self) {
        let u: f64 = self.rng.random_range(f64::EPSILON..1.0);
        let gap = (-INTERARRIVAL_US * u.ln()) as u64;
        self.stack.clock.advance_micros(gap.max(1));

        let t = Instant::now();
        self.stack.txcache.pump_invalidations();
        if self.tracing {
            self.spans.pump.add(t.elapsed().as_nanos() as u64);
        }
        if self.steps.is_multiple_of(MAINTENANCE_EVERY) {
            let t = Instant::now();
            self.stack.txcache.maintenance();
            if self.tracing {
                self.spans.maintenance.add(t.elapsed().as_nanos() as u64);
            }
        }
        let session = (self.steps % SESSIONS as u64) as usize;
        self.steps += 1;
        let interaction = self.sessions[session].next_interaction();
        let scale = self.stack.scale;
        let args = Args {
            item: self.rng.random_range(1..=scale.total_items() as i64),
            active_item: self.rng.random_range(1..=scale.active_items as i64),
            other_user: self.rng.random_range(1..=scale.users as i64),
            category: self.rng.random_range(1..=scale.categories as i64),
            region: self.rng.random_range(1..=scale.regions as i64),
            page: self.rng.random_range(0..3usize),
            amount: self.rng.random_range(1.0..500.0),
            me: self.sessions[session].user_id(),
        };
        let outcome = if interaction.is_read_only() {
            self.read_only(interaction, &args)
        } else {
            self.read_write(interaction, &args)
        };
        if self.recording {
            self.attempted += 1;
            self.interactions += 1;
        }
        if let Err(e) = outcome {
            self.fail(format!("{interaction:?}: {e}"));
        }
    }

    fn fail(&mut self, what: String) {
        self.findings.errors += 1;
        self.findings.first_error.get_or_insert(what);
        if self.recording {
            self.failed += 1;
        }
    }

    fn read_only(&mut self, interaction: Interaction, a: &Args) -> Res<()> {
        let app = &self.stack.app;
        let timed = &self.stack.timed;
        let t0 = Instant::now();
        let mut tx = app.begin_ro(self.staleness)?;
        let (t1, b1) = (Instant::now(), timed.busy_ns());
        if let Err(e) = page(app, &mut tx, interaction, a) {
            let _ = tx.abort();
            return Err(e);
        }
        let (t2, b2) = (Instant::now(), timed.busy_ns());
        let info = tx.commit()?;
        let t3 = Instant::now();
        self.check_snapshot(info.timestamp);
        if self.recording {
            self.ro_ns.push((t3 - t0).as_nanos() as u64);
        }
        if self.tracing {
            self.spans.begin_ro.add((t1 - t0).as_nanos() as u64);
            self.spans.commit_ro.add((t3 - t2).as_nanos() as u64);
            self.spans
                .app_self
                .add(((t2 - t1).as_nanos() as u64).saturating_sub(b2 - b1));
        }
        Ok(())
    }

    fn read_write(&mut self, interaction: Interaction, a: &Args) -> Res<()> {
        use Interaction::*;
        let app = &self.stack.app;
        let timed = &self.stack.timed;
        let t0 = Instant::now();
        let mut tx = app.begin_rw()?;
        let (t1, b1) = (Instant::now(), timed.busy_ns());
        let body = (|| -> Res<usize> {
            Ok(match interaction {
                RegisterUser => {
                    let nickname = format!("newuser-{}", self.new_users);
                    app.register_user(&mut tx, &nickname, a.region)?;
                    0
                }
                RegisterItem => {
                    let id = app.register_item(
                        &mut tx,
                        a.me,
                        a.category,
                        a.region,
                        "new item",
                        "freshly listed",
                        10.0,
                    )?;
                    self.max_item_id = self.max_item_id.max(id);
                    1
                }
                StoreBid => {
                    app.store_bid(&mut tx, a.me, a.active_item, a.amount)?;
                    2
                }
                StoreComment => {
                    app.store_comment(&mut tx, a.me, a.other_user, a.item, 1, "nice")?;
                    3
                }
                StoreBuyNow => {
                    app.store_buy_now(&mut tx, a.me, a.active_item, 1)?;
                    4
                }
                other => unreachable!("{other:?} is read-only"),
            })
        })();
        let table = match body {
            Ok(table) => table,
            Err(e) => {
                let _ = tx.abort();
                return Err(e);
            }
        };
        let (t2, b2) = (Instant::now(), timed.busy_ns());
        let info = tx.commit()?;
        let t3 = Instant::now();
        if interaction == RegisterUser {
            self.new_users += 1;
        }
        self.log_write(info.timestamp, &[table]);
        if self.recording {
            self.rw_ns.push((t3 - t0).as_nanos() as u64);
        }
        if self.tracing {
            self.spans.begin_rw.add((t1 - t0).as_nanos() as u64);
            self.spans.commit_rw.add((t3 - t2).as_nanos() as u64);
            self.spans
                .app_self
                .add(((t2 - t1).as_nanos() as u64).saturating_sub(b2 - b1));
        }
        Ok(())
    }

    fn log_write(&mut self, ts: Timestamp, tables: &[usize]) {
        for t in tables {
            self.writes[*t] += 1;
        }
        self.commit_log
            .push_back((self.stack.clock.now().as_micros(), ts));
    }

    /// Checks a read-only commit's snapshot against the driver's own log of
    /// read/write commits: it may not lie in the future, and it must
    /// include every commit older than the staleness limit.
    fn check_snapshot(&mut self, snapshot: Timestamp) {
        if snapshot > self.stack.db.latest_timestamp() {
            self.findings.future_reads += 1;
        }
        let now = self.stack.clock.now().as_micros();
        let limit = now.saturating_sub(self.staleness.as_micros());
        while let Some(&(at, ts)) = self.commit_log.front() {
            if at >= limit {
                break;
            }
            self.fresh_floor = self.fresh_floor.max(ts);
            self.commit_log.pop_front();
        }
        if self.recording {
            self.stale.1 += 1;
            self.stale.0 += (snapshot < self.fresh_floor) as u64;
        }
    }

    /// Reads one item and its bid history through the cache, then rereads
    /// both from the database at the snapshot the transaction reported.
    fn probe(&mut self, id: i64, reused_id_probe: bool) {
        let t = Instant::now();
        let outcome = self.probe_once(id);
        self.findings.probes += 1;
        if self.recording {
            self.attempted += 1;
        }
        match outcome {
            Err(e) => self.fail(format!("probe of item {id}: {e}")),
            // The named fault: a reused id shows a new auction's zero bid
            // count next to the closed auction's bids.
            Ok(false) if reused_id_probe => {
                if self.recording {
                    self.failed += 1;
                }
            }
            Ok(false) if self.reused(id) => self.findings.reused_probe_violations += 1,
            Ok(false) => self.findings.unexpected_violations += 1,
            Ok(true) => {}
        }
        if self.recording {
            self.check_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// Returns whether the item satisfies `nb_of_bids == |bid history|`.
    fn probe_once(&mut self, id: i64) -> Res<bool> {
        let app = &self.stack.app;
        let mut tx = app.begin_ro(self.staleness)?;
        let item = app.get_item(&mut tx, id)?;
        let bids = app.get_bid_history(&mut tx, id)?;
        let snapshot = tx.commit()?.timestamp;
        self.check_snapshot(snapshot);
        let (db_item, db_bids) = read_at(&self.stack.db, snapshot, id)?;
        if item != db_item || bids != db_bids {
            self.findings.snapshot_mismatches += 1;
        }
        Ok(item.is_none_or(|it| it.nb_of_bids == bids.len() as i64))
    }

    /// End-of-run checks: row growth against acknowledged commits, and a
    /// scan of every item against the bids table. Returns what failed.
    pub fn final_checks(&mut self) -> Result<Vec<String>, String> {
        let db = &self.stack.db;
        let mut problems = Vec::new();
        for (i, table) in WRITE_TABLES.iter().enumerate() {
            let rows = count_rows(db, table).map_err(|e| e.to_string())?;
            let expected = self.baseline_rows[i] + self.writes[i];
            if rows != expected {
                problems.push(format!(
                    "{table}: {rows} rows, expected {expected} from acknowledged commits"
                ));
            }
        }
        let scan = |q: SelectQuery| {
            db.query_ro_once(&q)
                .map(|r| r.result)
                .map_err(|e| e.to_string())
        };
        let bids = scan(SelectQuery::table("bids").select(vec!["item_id"]))?;
        let mut bid_counts: HashMap<i64, i64> = HashMap::new();
        for row in 0..bids.len() {
            *bid_counts.entry(int(&bids, row, "item_id")?).or_default() += 1;
        }
        let mut reused_violations = 0;
        for table in ["items", "old_items"] {
            let items = scan(SelectQuery::table(table).select(vec!["id", "nb_of_bids"]))?;
            for row in 0..items.len() {
                let id = int(&items, row, "id")?;
                let nb = int(&items, row, "nb_of_bids")?;
                if nb == bid_counts.get(&id).copied().unwrap_or(0) {
                    continue;
                }
                if table == "items" && self.reused(id) {
                    reused_violations += 1;
                } else {
                    problems.push(format!("{table} {id}: nb_of_bids {nb} disagrees with bids"));
                }
            }
        }
        let scale = &self.stack.scale;
        let reused_ids =
            (self.max_item_id.min(scale.total_items() as i64) - scale.active_items as i64).max(0);
        if reused_violations != reused_ids {
            problems.push(format!(
                "{reused_violations} reused-id violations for {reused_ids} reused ids"
            ));
        }
        Ok(problems)
    }

    pub fn reused_ids(&self) -> (i64, i64) {
        (self.stack.scale.active_items as i64 + 1, self.max_item_id)
    }
}

/// Renders one RUBiS read-only interaction (the bidding mix's page set).
fn page(app: &RubisApp, tx: &mut Transaction<'_>, interaction: Interaction, a: &Args) -> Res<()> {
    use Interaction::*;
    let me = format!("user{}", a.me);
    match interaction {
        Home | Register | SellItemForm => drop(app.page_home(tx)?),
        Browse | BrowseCategories | SellItemCategory => drop(app.page_browse_categories(tx)?),
        BrowseRegions => drop(app.page_browse_regions(tx)?),
        BrowseCategoriesInRegion => {
            app.page_browse_regions(tx)?;
            app.page_browse_categories(tx)?;
        }
        SearchItemsInCategory => drop(app.page_search_items_in_category(tx, a.category, a.page)?),
        SearchItemsInRegion => drop(app.page_search_items_in_region(tx, a.region, a.category)?),
        ViewItem => drop(app.page_view_item(tx, a.item)?),
        ViewUserInfo => drop(app.page_view_user_info(tx, a.other_user)?),
        ViewBidHistory => drop(app.page_view_bid_history(tx, a.item)?),
        BuyNowAuth | PutBidAuth | PutCommentAuth | AboutMeAuth => drop(app.auth_user(tx, &me)?),
        BuyNow | PutBid => {
            app.auth_user(tx, &me)?;
            app.page_view_item(tx, a.active_item)?;
        }
        PutComment => {
            app.auth_user(tx, &me)?;
            app.page_view_user_info(tx, a.other_user)?;
        }
        AboutMe => drop(app.page_about_me(tx, a.me)?),
        other => unreachable!("{other:?} writes"),
    }
    Ok(())
}

fn int(r: &QueryResult, row: usize, col: &str) -> Result<i64, String> {
    r.get(row, col)
        .map_err(|e| e.to_string())?
        .as_int()
        .ok_or_else(|| format!("{col} is not an integer"))
}

fn count_rows(db: &Database, table: &str) -> Res<i64> {
    let q = SelectQuery::table(table).aggregate(Aggregate::Count);
    let r = db.query_ro_once(&q)?.result;
    Ok(r.get(0, "count")?.as_int().unwrap_or(-1))
}

/// Rereads an item and its bid history with plain queries at a pinned
/// snapshot, exactly as `RubisApp::get_item` and `get_bid_history` define
/// them.
fn read_at(db: &Database, ts: Timestamp, id: i64) -> Res<(Option<ItemDetails>, Vec<BidInfo>)> {
    let snap = db.pin(ts)?;
    let token = db.begin_ro(Some(snap));
    let read = token.and_then(|token| {
        let out = (|| {
            let mut item = None;
            for (table, closed) in [("items", false), ("old_items", true)] {
                let q = SelectQuery::table(table).filter(Predicate::eq("id", id));
                let r = db.query(token, &q)?;
                if r.is_empty() {
                    continue;
                }
                let f = |c: &str| r.get(0, c).map(|v| v.as_float().unwrap_or(f64::NAN));
                let i = |c: &str| r.get(0, c).map(|v| v.as_int().unwrap_or(i64::MIN));
                let s = |c: &str| r.get(0, c).map(|v| v.as_text().unwrap_or("").to_string());
                item = Some(ItemDetails {
                    id,
                    name: s("name")?,
                    description: s("description")?,
                    seller: i("seller")?,
                    category: i("category")?,
                    initial_price: f("initial_price")?,
                    current_price: f("current_price")?,
                    nb_of_bids: i("nb_of_bids")?,
                    end_date: i("end_date")?,
                    closed,
                });
                break;
            }
            let q = SelectQuery::table("bids")
                .filter(Predicate::eq("item_id", id))
                .order_by("date", SortOrder::Desc);
            let r = db.query(token, &q)?;
            let bids = (0..r.len())
                .map(|row| {
                    Ok(BidInfo {
                        id: r.get(row, "id")?.as_int().unwrap_or(i64::MIN),
                        user_id: r.get(row, "user_id")?.as_int().unwrap_or(i64::MIN),
                        amount: r.get(row, "bid")?.as_float().unwrap_or(f64::NAN),
                        date: r.get(row, "date")?.as_int().unwrap_or(i64::MIN),
                    })
                })
                .collect::<Res<Vec<_>>>()?;
            Ok((item, bids))
        })();
        db.commit(token)?;
        out
    });
    db.unpin(snap)?;
    read
}
