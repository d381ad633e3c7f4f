//! The repo's benchmark: real in-process daemons on loopback, driven
//! through the product's own client runtime, timed by wall clock, every
//! byte verified, every metric printed by name with its unit.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//! run.sh [--seed N] [--seconds S] [--smoke]              the whole set, every metric
//! run.sh --repeat N                                      N sets → medians, quartiles, spreads
//! run.sh --validate                                      BENCHMARK.json says what the binary emits
//! run.sh --print-contract | --glossary                   BENCHMARK.json / README tables from the same source
//! ```
//!
//! See README.md beside this crate for the glossary.

mod cluster;
mod e2e;
mod metrics;
mod probes;
mod stats;
mod sysres;
mod trace;
mod workloads;

use std::io;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sorrento_json::Json;

use e2e::{E2e, Phase, RunPlan, Tally};
use metrics::{END_TO_END, PER_LAYER};
use probes::Values;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: probes::CountingAlloc = probes::CountingAlloc;

/// Seconds one run measures unless told otherwise; `run_seconds` of
/// `BENCHMARK.json`.
const RUN_SECONDS: u64 = 10;
/// The one command, as `BENCHMARK.json` records it.
const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    validate: Option<PathBuf>,
    print_contract: bool,
    glossary: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: None,
        validate: None,
        print_contract: false,
        glossary: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&flag, it.next())?),
            "--seed" => a.seed = value(&flag, it.next())?,
            "--seconds" => a.seconds = value(&flag, it.next())?,
            "--trace" => a.trace = value::<u8>(&flag, it.next())? != 0,
            "--repeat" => a.repeat = Some(value(&flag, it.next())?),
            "--smoke" => a.smoke = true,
            "--print-contract" => a.print_contract = true,
            "--glossary" => a.glossary = true,
            "--validate" => {
                let path = it
                    .next_if(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| "BENCHMARK.json".into());
                a.validate = Some(path.into());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.seconds <= 0.0 || !a.seconds.is_finite() {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// `BENCHMARK.json`, generated from the tables the binary emits from.
fn contract() -> Json {
    let strings = |v: &[&str]| {
        let mut arr = Json::arr();
        v.iter().for_each(|s| arr.push(*s));
        arr
    };
    let mut workloads = Json::arr();
    for w in &WORKLOADS {
        workloads.push(Json::obj().with("name", w.name).with("why", w.why));
    }
    let mut end_to_end = Json::arr();
    for m in END_TO_END {
        end_to_end.push(
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("bound", m.bound.expect("end-to-end metrics carry a bound")),
        );
    }
    let mut per_layer = Json::arr();
    for m in PER_LAYER {
        per_layer.push(
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str()),
        );
    }
    Json::obj()
        .with("command", strings(&COMMAND))
        .with("paths", strings(&["benchmark"]))
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

/// Does the file at `path` say exactly what the binary emits?
fn validate(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let file = Json::parse(&text).map_err(|e| format!("{} is not JSON: {e:?}", path.display()))?;
    let want = contract();
    for (key, wanted) in want.as_obj().expect("the contract is an object") {
        let found = file
            .get(key)
            .ok_or_else(|| format!("key `{key}` is missing"))?;
        if let (Some(w), Some(f)) = (wanted.as_arr(), found.as_arr()) {
            for (i, (w, f)) in w.iter().zip(f).enumerate() {
                if w != f {
                    return Err(format!(
                        "{key}[{i}] is {} but the binary emits {}",
                        f.encode(),
                        w.encode()
                    ));
                }
            }
            if w.len() != f.len() {
                return Err(format!(
                    "{key} has {} entries but the binary emits {}",
                    f.len(),
                    w.len()
                ));
            }
        } else if wanted != found {
            return Err(format!(
                "{key} is {} but the binary emits {}",
                found.encode(),
                wanted.encode()
            ));
        }
    }
    if file.as_obj().map_or(0, <[_]>::len) != want.as_obj().map_or(0, <[_]>::len) {
        return Err("the file has keys the contract does not".into());
    }
    for w in &WORKLOADS {
        if w.why.chars().count() > 200 || w.why.contains('\n') {
            return Err(format!(
                "workload {}: `why` must be one line of at most 200 characters",
                w.name
            ));
        }
    }
    Ok(())
}

/// The metric tables as markdown, for README.md.
fn glossary() {
    println!("| end-to-end metric | unit | better | bound |\n|---|---|---|---|");
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        println!(
            "| `{}` | {} | {} | {:.0}% |",
            m.name,
            m.unit,
            m.better.as_str(),
            bound * 100.0
        );
    }
    println!("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|");
    for m in PER_LAYER {
        println!(
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

fn p(ascending: &[f64], q: f64) -> f64 {
    stats::percentile(ascending, q)
}

/// The best a run's cluster instances did. Interference and an unlucky
/// thread placement only ever slow an instance down, so the best of
/// three repeats better than their median (README, "Load shape").
fn best_of(instances: &[Phase], f: impl Fn(&Phase) -> f64) -> f64 {
    instances.iter().map(f).fold(0.0, f64::max)
}

/// The end-to-end metrics of one run.
fn end_to_end_values(e: &E2e) -> Values {
    vec![
        ("write_ops_per_s", best_of(&e.write, Phase::ops_per_s)),
        ("read_ops_per_s", best_of(&e.read, Phase::ops_per_s)),
        ("space_amp", e.space_amp),
        ("setup_s", stats::median(&e.setup_s)),
    ]
}

/// The per-layer metrics that come from a (deep) end-to-end run.
/// Latency percentiles pool the samples of every instance.
fn run_layer_values(w: &Workload, e: &E2e) -> Values {
    let (write, read) = (Phase::pooled(&e.write), Phase::pooled(&e.read));
    let both: Vec<stats::ClientPhase> =
        write.clients.iter().chain(&read.clients).copied().collect();
    let mesh = e.mesh_counters.unwrap_or_default();
    let commits = write.latencies_of("close");
    let heads = read.latencies_of(w.read_head_op());
    let cpu_ms_per_op = (write.cpu_s + read.cpu_s) * 1e3 / (write.ops() + read.ops()).max(1) as f64;
    vec![
        ("ctl.gap_us_per_op", stats::gap_us_per_op(&both)),
        ("ctl.discovery_s", stats::median(&e.discovery_s)),
        ("mesh.send_failures", mesh[0] as f64),
        ("mesh.dropped_inbox_full", mesh[1] as f64),
        ("mesh.epollout_waits", mesh[2] as f64),
        ("daemon.msgs_per_op", e.msgs_per_op.unwrap_or(0.0)),
        ("daemon.disk_write_amp", e.disk_write_amp.unwrap_or(0.0)),
        (
            "daemon.kill_lost_files",
            e.kill_lost_files.unwrap_or(0) as f64,
        ),
        ("proc.cpu_ms_per_op", cpu_ms_per_op),
        ("proc.rss_peak_mb", e.rss_peak_mb),
        ("e2e.create_p50_us", p(&write.latencies_of("create"), 0.50)),
        ("e2e.commit_p50_us", p(&commits, 0.50)),
        ("e2e.commit_p95_us", p(&commits, 0.95)),
        ("e2e.read_p50_us", p(&heads, 0.50)),
        ("e2e.read_p95_us", p(&heads, 0.95)),
        ("e2e.write_mb_s", best_of(&e.write, Phase::mb_per_s)),
        ("e2e.read_mb_s", best_of(&e.read, Phase::mb_per_s)),
        ("e2e.restart_s", e.restart_s.unwrap_or(0.0)),
        (
            "e2e.fail_share",
            e.tally.failed as f64 / e.tally.attempted.max(1) as f64,
        ),
    ]
}

/// Wall microseconds one client spends per op of a phase, gaps included.
fn wall_us_per_op(phase: &[Phase]) -> f64 {
    let clients = phase.iter().flat_map(|p| &p.clients);
    let (ops, ns) = clients.fold((0u64, 0u64), |(o, n), c| (o + c.completed, n + c.span_ns));
    ns as f64 / 1e3 / ops.max(1) as f64
}

/// What one invocation reports.
struct Report {
    tally: Tally,
    values: Values,
    /// Sample counts behind the latency metrics, for the human reader.
    notes: Vec<String>,
}

fn sample_notes(w: &Workload, e: &E2e) -> Vec<String> {
    let (write, read) = (Phase::pooled(&e.write), Phase::pooled(&e.read));
    let note = |name: &str, n: usize| {
        let tail = match stats::supported_tail(n) {
            Some(q) => format!(
                "highest percentile with 10 samples beyond it: p{}",
                q * 100.0
            ),
            None => "fewer than 100 samples: only the median is supported".to_string(),
        };
        format!("{name}: n={n}; {tail}")
    };
    let spans = |phases: &[Phase]| {
        phases
            .iter()
            .map(|p| format!("{:.2}", p.span_s()))
            .collect::<Vec<_>>()
            .join("+")
    };
    vec![
        note("commit (close of a write session)", write.latencies_of("close").len()),
        note(&format!("read head op ({})", w.read_head_op()), read.latencies_of(w.read_head_op()).len()),
        format!(
            "{} measured cluster instances (rates are the best of them, setup_s the median of {} set-ups); phase W {} s, {} ops; phase R {} s, {} ops",
            e.write.len(),
            e.setup_s.len(),
            spans(&e.write),
            write.ops(),
            spans(&e.read),
            read.ops()
        ),
    ]
}

/// `--trace 0`: the timed run, tracing off.
fn timed_run(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> io::Result<Report> {
    let e = e2e::run(
        w,
        seed,
        RunPlan {
            seconds,
            deep: false,
            smoke,
        },
    )?;
    Ok(Report {
        tally: e.tally,
        values: end_to_end_values(&e),
        notes: sample_notes(w, &e),
    })
}

/// `--trace 1`: probes, a scraped end-to-end run and the traced replay.
/// Also returns that run's end-to-end metrics (its phases ran with
/// tracing off like any other), which the full set prints beside them.
fn traced_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    probes: &Values,
) -> io::Result<(Values, Report)> {
    let mut values = probes.clone();
    let e = e2e::run(
        w,
        seed,
        RunPlan {
            seconds,
            deep: true,
            smoke,
        },
    )?;
    values.extend(run_layer_values(w, &e));
    let traced = trace::replay(w, seed, true)?;
    // The smoke set has no time for a second replay; it reports no
    // tracing overhead.
    let untraced = if smoke {
        None
    } else {
        Some(trace::replay(w, seed, false)?)
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("trace.json");
    trace::write_spans(&out, w.name, &traced.spans)?;
    let agg = trace::aggregate(&traced, untraced.as_ref());
    let cpu = agg
        .iter()
        .find(|(k, _)| *k == "trace.cpu_us_per_op")
        .map_or(0.0, |(_, v)| *v);
    values.extend(agg);
    // The replay's mix of phase W and phase R ops is not the timed run's
    // (which sizes each phase by time), so weigh the run's wall time per
    // op by the replay's mix before comparing.
    let wall = traced.write_share * wall_us_per_op(&e.write)
        + (1.0 - traced.write_share) * wall_us_per_op(&e.read);
    values.push(("trace.wait_share", 1.0 - cpu / wall.max(cpu)));
    let replays = std::iter::once(&traced).chain(&untraced);
    let tally = replays.fold(e.tally, |t, r| Tally {
        attempted: t.attempted + r.attempted,
        failed: t.failed + r.failed,
    });
    // Emit in the contract's order, whatever order the parts came in.
    let ordered = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                values
                    .iter()
                    .find(|(k, _)| *k == m.name)
                    .map_or(0.0, |(_, v)| *v),
            )
        })
        .collect();
    Ok((
        end_to_end_values(&e),
        Report {
            tally,
            values: ordered,
            notes: sample_notes(w, &e),
        },
    ))
}

fn print_values(values: &Values) {
    for (name, v) in values {
        println!("  {name:<36} {v:>16.4} {}", metrics::unit_of(name));
    }
}

fn metrics_json(values: &Values) -> Json {
    let mut m = Json::obj();
    for (name, v) in values {
        m.set(
            name,
            Json::obj()
                .with("value", *v)
                .with("unit", metrics::unit_of(name)),
        );
    }
    m
}

/// Most times one driver-style run is started over after a crash.
const MAX_RESTARTS: u32 = 2;
/// A run is started over only this soon after it began: the last attempt
/// then starts within a minute and, at the 15–50 s a run takes, ends well
/// inside the 180 s the driver allows.
const RESTART_WITHIN: Duration = Duration::from_secs(60);

/// Everything one driver-style run measures.
fn measure(a: &Args, w: &Workload) -> io::Result<Report> {
    if a.trace {
        let scale = if a.smoke { 1 } else { 2 };
        Ok(traced_run(w, a.seed, a.seconds, a.smoke, &probes::run_all(scale)?)?.1)
    } else {
        timed_run(w, a.seed, a.seconds, a.smoke)
    }
}

/// Run `attempt`, starting it over when it crashes — panics or returns an
/// error — at most `MAX_RESTARTS` times and only within `within` of the
/// first start. Returns what the attempt that got through returned and
/// how many crashed before it; every crash is printed.
fn restarting<T>(
    what: &str,
    within: Duration,
    mut attempt: impl FnMut() -> io::Result<T>,
) -> io::Result<(T, u32)> {
    let t0 = Instant::now();
    let mut restarts = 0;
    loop {
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(&mut attempt)).unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("no message");
                Err(io::Error::other(format!("panic: {msg}")))
            });
        match outcome {
            Ok(out) => return Ok((out, restarts)),
            Err(e) if restarts < MAX_RESTARTS && t0.elapsed() < within => {
                restarts += 1;
                eprintln!(
                    "sorrento-benchmark: {what}: crashed after {:.1} s ({e}); starting over ({restarts}/{MAX_RESTARTS})",
                    t0.elapsed().as_secs_f64()
                );
            }
            Err(e) => return Err(e),
        }
    }
}

/// One driver-style run; the last line of stdout is the result object.
///
/// A run that crashes — a panic anywhere in the process, a cluster that
/// never came up or never finished a script — has measured nothing, so it
/// is started over and nothing of it is kept; the crash is printed and
/// counted in `run.restarts`. An op that fails or reads back wrong bytes
/// is a result, not a crash, and is never retried. The daemons, client
/// threads and temp dirs of a crashed attempt are stopped, joined and
/// removed by their `Drop`s as it unwinds.
fn one_run(a: &Args, w: &Workload) -> io::Result<bool> {
    let what = format!("{} seed {}", w.name, a.seed);
    let (mut report, restarts) = restarting(&what, RESTART_WITHIN, || measure(a, w))?;
    if let Some((_, v)) = report.values.iter_mut().find(|(k, _)| *k == "run.restarts") {
        *v = f64::from(restarts);
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    print_values(&report.values);
    report.notes.iter().for_each(|n| println!("  # {n}"));
    let correct = report.tally.failed == 0;
    let line = Json::obj()
        .with("correct", correct)
        .with("attempted", report.tally.attempted)
        .with("failed", report.tally.failed)
        .with("metrics", metrics_json(&report.values));
    println!("{}", line.encode());
    Ok(correct)
}

/// The whole set: probes once, then per workload one scraped run and its
/// traced replay; every metric printed; one JSON summary last, which
/// makes no claim.
fn full_set(a: &Args) -> io::Result<bool> {
    let seconds = if a.smoke { 1.0 } else { a.seconds };
    let probe_values = probes::run_all(if a.smoke { 1 } else { 2 })?;
    let mut summary = Json::obj();
    let mut tally = Tally::default();
    for w in &WORKLOADS {
        println!("== {} — {}", w.name, w.why);
        let (end_to_end, traced) = traced_run(w, a.seed, seconds, a.smoke, &probe_values)?;
        println!(" end to end (timed phases, tracing off):");
        print_values(&end_to_end);
        traced.notes.iter().for_each(|n| println!("  # {n}"));
        println!(" per layer (probes, scrapes around the same run, traced replay):");
        print_values(&traced.values);
        tally.attempted += traced.tally.attempted;
        tally.failed += traced.tally.failed;
        summary.set(
            w.name,
            Json::obj()
                .with("end_to_end", metrics_json(&end_to_end))
                .with("per_layer", metrics_json(&traced.values)),
        );
    }
    let correct = tally.failed == 0;
    let doc = Json::obj()
        .with("correct", correct)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("seed", a.seed)
        .with("seconds", seconds)
        .with(
            "threads",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .with("workloads", summary)
        .with("claim", Json::Null);
    println!("{}", doc.encode());
    Ok(correct)
}

/// `--repeat N`: N sets of timed runs in alternating workload order;
/// per (workload, metric) the median, quartiles and spread, flagged when
/// the spread exceeds the metric's bound.
fn repeat(a: &Args, n: usize) -> io::Result<bool> {
    let mut samples: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut failed = 0;
    for rep in 0..n {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if rep % 2 == 1 {
            order.reverse();
        }
        for wi in order {
            let w = &WORKLOADS[wi];
            let report = timed_run(w, a.seed + rep as u64, a.seconds, a.smoke)?;
            failed += report.tally.failed;
            for (slot, (_, v)) in samples[wi].iter_mut().zip(&report.values) {
                slot.push(*v);
            }
            eprintln!("set {}/{n}: {} done", rep + 1, w.name);
        }
    }
    println!(
        "{:<10} {:<16} {:>3} {:>14} {:>14} {:>14} {:>7} {:>6}",
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound"
    );
    let mut unstable = 0;
    for (w, per_metric) in WORKLOADS.iter().zip(&samples) {
        for (m, values) in END_TO_END.iter().zip(per_metric) {
            let [q1, _, q3] = stats::quartiles(values).unwrap_or([values[0]; 3]);
            let spread = stats::spread(values).unwrap_or(0.0);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // The set-up spread is reported but, as in the contract, not judged.
            let flag = if spread > bound && m.name != "setup_s" {
                unstable += 1;
                "  UNSTABLE: spread exceeds the bound"
            } else if spread > bound / 3.0 && m.name != "setup_s" {
                "  (above a third of the bound)"
            } else {
                ""
            };
            println!(
                "{:<10} {:<16} {:>3} {q1:>14.3} {:>14.3} {q3:>14.3} {:>6.1}% {:>5.0}%{flag}",
                w.name,
                m.name,
                values.len(),
                stats::median(values),
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    println!("{unstable} unstable (workload, metric) pairs; {failed} failed ops");
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sorrento-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print!("{}", contract().encode_pretty());
        return ExitCode::SUCCESS;
    }
    if args.glossary {
        glossary();
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.validate {
        return match validate(path) {
            Ok(()) => {
                println!(
                    "{} matches the binary: {} workloads, {} end-to-end and {} per-layer metrics",
                    path.display(),
                    WORKLOADS.len(),
                    END_TO_END.len(),
                    PER_LAYER.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("sorrento-benchmark: {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match (&args.workload, args.repeat) {
        (Some(name), _) => match Workload::by_name(name) {
            Some(w) => one_run(&args, w),
            None => {
                eprintln!("sorrento-benchmark: no workload `{name}`");
                return ExitCode::from(2);
            }
        },
        (None, Some(n)) if n > 0 => repeat(&args, n),
        (None, _) => full_set(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("sorrento-benchmark: verification failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sorrento-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_crashed_attempt_is_started_over_and_counted() {
        let mut calls = 0;
        let out = restarting("test", Duration::from_secs(60), || {
            calls += 1;
            match calls {
                1 => panic!("boom"),
                2 => Err(io::Error::other("cluster never came up")),
                _ => Ok(calls),
            }
        });
        assert_eq!(out.unwrap(), (3, 2));
    }

    #[test]
    fn restarts_are_bounded_in_number_and_in_time() {
        let mut calls = 0;
        let always = restarting("test", Duration::from_secs(60), || -> io::Result<()> {
            calls += 1;
            panic!("boom {calls}")
        });
        assert_eq!(calls, 1 + MAX_RESTARTS);
        assert!(always.unwrap_err().to_string().contains("boom 3"));
        let mut calls = 0;
        let late = restarting("test", Duration::ZERO, || -> io::Result<()> {
            calls += 1;
            Err(io::Error::other("late"))
        });
        assert!(late.is_err());
        assert_eq!(calls, 1);
    }
}
