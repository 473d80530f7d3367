//! `appdev-bench`: the end-to-end benchmark of an application developer
//! serving RUBiS pages through `txcache`.
//!
//! ```text
//! appdev-bench --workload rubis-cached|rubis-nocache|rubis-wal
//!              --seed N --seconds N --trace 0|1 [--canary]
//! ```
//!
//! Prints a human-readable report, then, as the last line of stdout, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. `--canary` injects a backend that drops invalidations
//! and exits 0 only if the consistency oracle catches it. See README.md.

mod driver;
mod layers;
mod stack;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use driver::Driver;
use layers::{percentile, Counters, Fault};
use stack::{peak_rss_kib, Stack, Workload};

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds run before the measured window, as part of each set-up.
const WARMUP_ROUNDS: usize = 100;
/// Rounds per block; a traced run alternates untraced and traced blocks.
const BLOCK_ROUNDS: usize = 4;
/// The measured window is cut into this many equal slices; each
/// end-to-end figure is the median of its per-slice values, so one slice
/// disturbed by the host does not move the result.
const SLICES: usize = 3;
/// `peak_rss_mb` is read once this many rounds have been measured, so it
/// reflects a fixed amount of work rather than the window's throughput.
const RSS_ROUNDS: usize = 1000;

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    canary: bool,
}

fn parse() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut canary) =
        (None, None, None, None, false);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value()? == "1"),
            "--canary" => canary = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        canary,
    })
}

fn main() -> ExitCode {
    let outcome = parse().and_then(|o| run(&o).map(|r| (o, r)));
    match outcome {
        Ok((o, report)) => {
            println!("{}", report.json);
            if o.canary && report.consistent {
                eprintln!("canary: the oracle did not catch dropped invalidations");
                ExitCode::from(3)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("appdev-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Report {
    json: String,
    consistent: bool,
}

/// Builds the stack, registers the reused-id auction and warms up.
fn set_up<'s>(stack: &'s Stack, seed: u64) -> Result<Driver<'s>, String> {
    let mut driver = Driver::new(stack, seed)?;
    for _ in 0..WARMUP_ROUNDS {
        driver.round();
    }
    Ok(driver)
}

fn run(o: &Options) -> Result<Report, String> {
    let fault = if o.canary {
        Fault::DropInvalidations
    } else {
        Fault::None
    };
    let mut setup_s = Vec::new();
    let mut warmup_consistent = true;
    for i in 1..SETUPS {
        let t = Instant::now();
        let stack = Stack::build(o.workload, o.seed, fault, &i.to_string())?;
        let driver = set_up(&stack, o.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        warmup_consistent &= driver.findings.consistent();
    }
    let t = Instant::now();
    let stack = Stack::build(o.workload, o.seed, fault, "0")?;
    let mut driver = set_up(&stack, o.seed)?;
    setup_s.push(t.elapsed().as_secs_f64());

    let start = o.trace.then(|| Counters::read(&stack));
    let txns_before = stack.txcache.stats();
    // [untraced, traced]: (interactions, nanoseconds outside probes)
    let mut modes = [(0u64, 0u64); 2];
    // Per slice: untraced (interactions, ns), and where its latency
    // samples start.
    let mut slices: Vec<((u64, u64), usize, usize)> = Vec::new();
    driver.recording = true;
    let window = Duration::from_secs(o.seconds);
    let began = Instant::now();
    let mut block = 0usize;
    let mut rss_kib = None;
    for slice in 1..=SLICES as u32 {
        let before = (modes[0], driver.ro_ns.len(), driver.rw_ns.len());
        while began.elapsed() < window * slice / SLICES as u32 {
            let traced = o.trace && block % 2 == 1;
            driver.tracing = traced;
            stack.timed.set_timing(traced);
            let (i0, c0, t) = (driver.interactions, driver.check_ns, Instant::now());
            for _ in 0..BLOCK_ROUNDS {
                driver.round();
            }
            let ns = (t.elapsed().as_nanos() as u64).saturating_sub(driver.check_ns - c0);
            modes[traced as usize].0 += driver.interactions - i0;
            modes[traced as usize].1 += ns;
            block += 1;
            if rss_kib.is_none() && block * BLOCK_ROUNDS >= RSS_ROUNDS {
                rss_kib = Some(peak_rss_kib("/proc/self/status"));
            }
        }
        let untraced = (modes[0].0 - before.0 .0, modes[0].1 - before.0 .1);
        slices.push((untraced, before.1, before.2));
    }
    driver.recording = false;
    driver.tracing = false;
    stack.timed.set_timing(false);
    let after = stack.txcache.stats();
    let txns = (after.ro_transactions + after.rw_transactions)
        - (txns_before.ro_transactions + txns_before.rw_transactions);
    let end = start.as_ref().map(|_| Counters::read(&stack));
    // A host too slow to measure RSS_ROUNDS in the window finishes them
    // unmeasured.
    let rss_kib = rss_kib.unwrap_or_else(|| {
        for _ in block * BLOCK_ROUNDS..RSS_ROUNDS {
            driver.round();
        }
        peak_rss_kib("/proc/self/status")
    });

    let ips = |(n, ns): (u64, u64)| n as f64 / (ns.max(1) as f64 / 1e9);
    let (cpus_reported, cpus_effective) = cpu_probe();
    println!(
        "host: cpus reported {cpus_reported}, cpus measured by a spin probe {cpus_effective:.2}"
    );
    let mut problems = driver.final_checks()?;
    let f = &driver.findings;
    println!(
        "oracle: {} probes, {} snapshot mismatches, {} future reads, \
         {} violations outside the reused-id range; \
         {} of {} read-only commits stale beyond the limit (measured window)",
        f.probes,
        f.snapshot_mismatches,
        f.future_reads,
        f.unexpected_violations,
        driver.stale.0,
        driver.stale.1
    );
    let (lo, hi) = driver.reused_ids();
    println!(
        "fault: item {} reuses a closed auction's id; reused-id range {lo}..={hi}; \
         {} random probes landed there and saw nb_of_bids disagree with the bids",
        driver.fault_item, f.reused_probe_violations
    );
    if let Some(e) = &f.first_error {
        problems.push(format!("{} operations failed; first: {e}", f.errors));
    }
    let consistent = f.consistent() && warmup_consistent;
    let (attempted, failed) = (driver.attempted, driver.failed);
    let mut ro_ns = std::mem::take(&mut driver.ro_ns);
    let mut rw_ns = std::mem::take(&mut driver.rw_ns);
    let spans = driver.spans;
    let interactions = driver.interactions;
    let stale_share = driver.stale.0 as f64 / driver.stale.1.max(1) as f64;
    drop(driver);

    let tally = stack.timed.take_tally();
    problems.extend(recovery_check(stack)?);
    for p in &problems {
        println!("check failed: {p}");
    }
    let correct = consistent && problems.is_empty();

    let metrics: Vec<(&str, &str, f64)> = if let (Some(start), Some(end)) = (start, end) {
        let overhead = ips(modes[0]) / ips(modes[1]) - 1.0;
        println!(
            "tracing overhead: {:.1}% ({:.0} untraced vs {:.0} traced interactions/s)",
            overhead * 100.0,
            ips(modes[0]),
            ips(modes[1])
        );
        let mut metrics = layers::per_layer(&start, &end, tally, &spans, txns);
        metrics.push(("oracle.stale_reads", "ratio", stale_share));
        metrics.push(("trace.overhead", "ratio", overhead));
        metrics
    } else {
        // Median over slices of each slice's figure.
        let mut per_slice: [Vec<f64>; 5] = Default::default();
        for (i, &(untraced, ro_at, rw_at)) in slices.iter().enumerate() {
            let (ro_end, rw_end) = slices
                .get(i + 1)
                .map_or((ro_ns.len(), rw_ns.len()), |next| (next.1, next.2));
            let mut ro = ro_ns[ro_at..ro_end].to_vec();
            let mut rw = rw_ns[rw_at..rw_end].to_vec();
            ro.sort_unstable();
            rw.sort_unstable();
            let us = |s: &[u64], p| percentile(s, p) as f64 / 1e3;
            let figures = [
                ips(untraced),
                us(&ro, 0.5),
                us(&ro, 0.99),
                us(&rw, 0.5),
                us(&rw, 0.99),
            ];
            for (acc, v) in per_slice.iter_mut().zip(figures) {
                acc.push(v);
            }
        }
        let [tput, ro50, ro99, rw50, rw99] = per_slice.map(median);
        ro_ns.sort_unstable();
        rw_ns.sort_unstable();
        for (name, samples) in [("read-only", &ro_ns), ("read/write", &rw_ns)] {
            println!(
                "{name} latency over the whole window: {} samples, p50 {:.1} us, p99 {:.1} us, \
                 highest percentile with >= 10 samples beyond it: {}",
                samples.len(),
                percentile(samples, 0.5) as f64 / 1e3,
                percentile(samples, 0.99) as f64 / 1e3,
                deepest_percentile(samples.len()),
            );
        }
        println!("end-to-end figures below are medians over {SLICES} slices of the window");
        vec![
            ("throughput_ips", "1/s", tput),
            ("ro_latency_p50_us", "us", ro50),
            ("ro_latency_p99_us", "us", ro99),
            ("rw_latency_p50_us", "us", rw50),
            ("rw_latency_p99_us", "us", rw99),
            ("setup_s", "s", median(setup_s)),
            ("peak_rss_mb", "MB", rss_kib as f64 / 1024.0),
        ]
    };
    println!(
        "{interactions} interactions measured; {attempted} operations attempted, {failed} failed"
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<40} {value:>14.3} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(Report {
        json: format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        ),
        consistent,
    })
}

/// On a WAL-logged database: stop it, recover its directory, and compare the
/// recovered state digest with the live one. Consumes the stack.
fn recovery_check(stack: Stack) -> Result<Vec<String>, String> {
    let Stack {
        app,
        txcache,
        timed,
        db,
        dir,
        ..
    } = stack;
    drop((app, txcache, timed));
    let Some(dir) = dir else {
        return Ok(Vec::new());
    };
    let live = db.state_digest();
    let config = *db.config();
    let db = std::sync::Arc::try_unwrap(db).map_err(|_| "database still shared at shutdown")?;
    drop(db);
    let recovered = mvdb::Database::recover(&dir.path, config, txtypes::SimClock::new())
        .map_err(|e| format!("recover: {e}"))?;
    let digest = recovered.state_digest();
    drop(recovered);
    println!("recovery: live digest {live:016x}, recovered digest {digest:016x}");
    Ok(if digest == live {
        Vec::new()
    } else {
        vec!["recovered state digest differs from the live one".to_string()]
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The highest percentile that still has at least ten samples beyond it.
fn deepest_percentile(n: usize) -> &'static str {
    match n {
        n if n >= 100_000 => "p99.99",
        n if n >= 10_000 => "p99.9",
        n if n >= 1_000 => "p99",
        n if n >= 100 => "p90",
        _ => "p50",
    }
}

/// Reported CPU count and the count a pure spin actually gets: the same
/// fixed work on one thread and on every reported CPU at once.
fn cpu_probe() -> (usize, f64) {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spin = || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    };
    let t = Instant::now();
    spin();
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..n {
            s.spawn(spin);
        }
    });
    let all = t.elapsed().as_secs_f64();
    (n, n as f64 * one / all)
}
