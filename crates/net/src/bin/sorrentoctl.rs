//! Command-line client for a live Sorrento cluster.
//!
//! ```text
//! sorrentoctl --config <cluster.json> create <path> [--ec k,m]
//! sorrentoctl --config <cluster.json> write  <path> <local-file>
//! sorrentoctl --config <cluster.json> read   <path> [offset [len]]
//! sorrentoctl --config <cluster.json> stat   <path>
//! sorrentoctl --config <cluster.json> ls     <path>
//! sorrentoctl --config <cluster.json> rm     <path>
//! sorrentoctl --config <cluster.json> mkdir  <path>
//! sorrentoctl --config <cluster.json> mv     <src> <dst>
//! sorrentoctl --config <cluster.json> stats  <node-id>
//! sorrentoctl --config <cluster.json> members <node-id>
//! sorrentoctl --config <cluster.json> top
//! sorrentoctl --config <cluster.json> trace  <span>
//! sorrentoctl --config <cluster.json> chaos  <node-id> off
//! sorrentoctl --config <cluster.json> chaos  <node-id> <seed> <drop‰> [dup‰ [delay‰ <delay-µs>]]
//! ```
//!
//! Every file command compiles an [`FsScript`] program and runs it
//! through the same `SorrentoClient` state machine the simulator uses,
//! over TCP, and prints the trace span of each op it issues so the
//! causal chain can be pulled back out with `trace`. `read` with no
//! explicit length stats the file first and reads to EOF. `stats`
//! fetches a daemon's metrics registry as JSON; `top` polls every node
//! and renders a cluster-wide table from the versioned snapshots.
//! `members` asks one provider for its membership view — under gossip
//! (`"membership": "swim"`) the SWIM table with per-member state
//! (alive/suspect) and incarnation, under heartbeats the classic
//! liveness view — and renders it as a table.
//! `trace <span>` asks every node's flight recorder for that span's
//! events and renders the merged causal chain on the wall-clock
//! timeline. `chaos` installs (or, with `off`, clears) deterministic
//! fault-injection rules on one daemon's mesh — the game-day tool; see
//! RUNBOOK.md. Rules shape the frames that daemon *sends*.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use sorrento::api::FsScript;
use sorrento::client::ClientOp;
use sorrento::FileOptions;
use sorrento_json::Json;
use sorrento_net::chaos::ChaosConfig;
use sorrento_net::config::CtlConfig;
use sorrento_net::ctl::{self, OpRecord, ScriptOutcome};
use sorrento_net::daemon::STATS_SCHEMA_V;
use sorrento_net::flight::FLIGHT_SCHEMA_V;
use sorrento_sim::{NodeId, SpanId};

/// Wall-clock budget for one command, discovery included.
const DEADLINE: Duration = Duration::from_secs(30);
/// Per-node budget when fanning out (`top`, `trace`): a dead node
/// should cost seconds, not the whole command deadline.
const PER_NODE: Duration = Duration::from_secs(5);
/// Declared maximum size for `--ec` files (striping requires the max
/// up front; 256 MB ⇒ shard widths stay sane for CLI-scale files).
const EC_MAX_SIZE: u64 = 256 << 20;
const USAGE: &str = "usage: sorrentoctl --config <cluster.json> \
    <create|write|read|stat|ls|rm|mkdir|mv|stats|members|top|trace|chaos> [args]\n\
    create <path> [--ec k,m]   erasure-coded instead of replicated\n\
    members <node-id>          one provider's membership view";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sorrentoctl: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args = std::env::args().skip(1);
    let mut config_path: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        if a == "--config" || a == "-c" {
            config_path = Some(args.next().ok_or("--config needs a value")?);
        } else {
            rest.push(a);
        }
    }
    let config_path = config_path.ok_or(USAGE)?;
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("cannot read {config_path}: {e}"))?;
    let cfg = CtlConfig::parse(&text).map_err(|e| format!("{config_path}: {e}"))?;

    let (cmd, cmd_args) = rest.split_first().ok_or(USAGE)?;
    match (cmd.as_str(), cmd_args) {
        ("create", [path]) => {
            let mut fs = FsScript::new();
            let h = fs.create(path).map_err(|e| e.to_string())?;
            fs.close(h).map_err(|e| e.to_string())?;
            report(run_fs(&cfg, fs)?)
        }
        ("create", [path, flag, spec]) if flag == "--ec" => {
            let (k, m) = spec
                .split_once(',')
                .and_then(|(k, m)| Some((k.trim().parse().ok()?, m.trim().parse().ok()?)))
                .filter(|&(k, m): &(u8, u8)| k >= 1 && m >= 1 && k as usize + (m as usize) <= 255)
                .ok_or("--ec takes k,m (e.g. --ec 4,2)")?;
            let mut fs = FsScript::new();
            let h = fs
                .create_with(path, FileOptions::erasure_coded(k, m, EC_MAX_SIZE))
                .map_err(|e| e.to_string())?;
            fs.close(h).map_err(|e| e.to_string())?;
            let code = report(run_fs(&cfg, fs)?)?;
            if code == ExitCode::SUCCESS {
                eprintln!("created {path} with EC({k},{m})");
            }
            Ok(code)
        }
        ("write", [path, local]) => {
            let data =
                std::fs::read(local).map_err(|e| format!("cannot read {local}: {e}"))?;
            let n = data.len();
            // Create-or-open: a pre-created file keeps its options (a
            // `create --ec` file must not be recreated as replicated).
            let mut probe = FsScript::new();
            probe.stat(path).map_err(|e| e.to_string())?;
            let exists = run_fs(&cfg, probe)?.stats.failed_ops == 0;
            let mut fs = FsScript::new();
            let h = if exists { fs.open(path, true) } else { fs.create(path) }
                .map_err(|e| e.to_string())?;
            fs.write(h, 0, data).map_err(|e| e.to_string())?;
            fs.close(h).map_err(|e| e.to_string())?;
            let code = report(run_fs(&cfg, fs)?)?;
            if code == ExitCode::SUCCESS {
                eprintln!("wrote {n} bytes to {path}");
            }
            Ok(code)
        }
        ("read", [path, tail @ ..]) if tail.len() <= 2 => {
            let offset: u64 = match tail.first() {
                Some(s) => s.parse().map_err(|_| "offset must be a number")?,
                None => 0,
            };
            let len: u64 = match tail.get(1) {
                Some(s) => s.parse().map_err(|_| "len must be a number")?,
                None => {
                    // No explicit length: stat first, read to EOF.
                    let mut fs = FsScript::new();
                    fs.stat(path).map_err(|e| e.to_string())?;
                    let out = run_fs(&cfg, fs)?;
                    if out.stats.failed_ops > 0 {
                        return report(out);
                    }
                    let size = out.records.first().map_or(0, |r| r.bytes);
                    size.saturating_sub(offset)
                }
            };
            let mut fs = FsScript::new();
            let h = fs.open(path, false).map_err(|e| e.to_string())?;
            if len > 0 {
                fs.read(h, offset, len).map_err(|e| e.to_string())?;
            }
            fs.close(h).map_err(|e| e.to_string())?;
            let out = run_fs(&cfg, fs)?;
            if out.stats.failed_ops == 0 {
                if let Some(data) = out.records.iter().find_map(|r| {
                    (r.kind == "read").then(|| r.data.clone()).flatten()
                }) {
                    std::io::stdout()
                        .write_all(&data)
                        .map_err(|e| e.to_string())?;
                }
            }
            report(out)
        }
        ("stat", [path]) => {
            let mut fs = FsScript::new();
            fs.stat(path).map_err(|e| e.to_string())?;
            let out = run_fs(&cfg, fs)?;
            if out.stats.failed_ops == 0 {
                println!("{path}: {} bytes", out.records.first().map_or(0, |r| r.bytes));
            }
            report(out)
        }
        ("ls", [path]) => {
            let mut fs = FsScript::new();
            fs.list(path).map_err(|e| e.to_string())?;
            let out = run_fs(&cfg, fs)?;
            if out.stats.failed_ops == 0 {
                if let Some(Some(blob)) = out.records.first().map(|r| r.data.clone()) {
                    println!("{}", String::from_utf8_lossy(&blob));
                }
            }
            report(out)
        }
        ("rm", [path]) => {
            let mut fs = FsScript::new();
            fs.unlink(path).map_err(|e| e.to_string())?;
            report(run_fs(&cfg, fs)?)
        }
        ("mkdir", [path]) => {
            let mut fs = FsScript::new();
            fs.mkdir(path).map_err(|e| e.to_string())?;
            report(run_fs(&cfg, fs)?)
        }
        ("mv", [src, dst]) => {
            let mut fs = FsScript::new();
            fs.rename(src, dst).map_err(|e| e.to_string())?;
            report(run_fs(&cfg, fs)?)
        }
        ("stats", [node]) => {
            let id: usize = node.parse().map_err(|_| "stats takes a node id")?;
            let json = ctl::fetch_stats(&cfg, NodeId::from_index(id), DEADLINE)
                .map_err(|e| e.to_string())?;
            check_snapshot_version(&json, id);
            println!("{json}");
            Ok(ExitCode::SUCCESS)
        }
        ("members", [node]) => {
            let id: usize = node.parse().map_err(|_| "members takes a node id")?;
            let json = ctl::fetch_members(&cfg, NodeId::from_index(id), DEADLINE)
                .map_err(|e| e.to_string())?;
            cmd_members(&json, id)
        }
        ("top", []) => cmd_top(&cfg),
        ("trace", [span]) => cmd_trace(&cfg, parse_span(span)?),
        ("chaos", [node, rule @ ..]) if !rule.is_empty() => {
            let id: usize = node.parse().map_err(|_| "chaos takes a node id first")?;
            let chaos = if rule == ["off"] {
                ChaosConfig::default() // all-zero rules clear injection
            } else {
                let num = |i: usize, what: &str| -> Result<u64, String> {
                    match rule.get(i) {
                        None => Ok(0),
                        Some(s) => s.parse().map_err(|_| format!("{what} must be a number")),
                    }
                };
                ChaosConfig {
                    seed: num(0, "seed")?,
                    drop_permille: num(1, "drop permille")? as u32,
                    dup_permille: num(2, "dup permille")? as u32,
                    delay_permille: num(3, "delay permille")? as u32,
                    delay: Duration::from_micros(num(4, "delay microseconds")?),
                    partition: Vec::new(),
                }
            };
            ctl::set_chaos(&cfg, NodeId::from_index(id), &chaos, DEADLINE)
                .map_err(|e| e.to_string())?;
            if chaos.is_active() {
                eprintln!(
                    "chaos on n{id}: seed {} drop {}‰ dup {}‰ delay {}‰×{:?}",
                    chaos.seed, chaos.drop_permille, chaos.dup_permille,
                    chaos.delay_permille, chaos.delay
                );
            } else {
                eprintln!("chaos off on n{id}");
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    }
}

fn run_fs(cfg: &CtlConfig, fs: FsScript) -> Result<ScriptOutcome, String> {
    let ops = fs.into_ops();
    // Writes need enough providers discovered to place `replication`
    // replicas; metadata-only programs can start as soon as one
    // provider is known (the namespace server answers those).
    let writes = ops.iter().any(|op| {
        matches!(
            op,
            ClientOp::Create { .. }
                | ClientOp::CreateWith { .. }
                | ClientOp::Write { .. }
                | ClientOp::Append { .. }
                | ClientOp::AtomicAppend { .. }
        )
    });
    let min_providers = if writes { cfg.replication as usize } else { 1 };
    ctl::run_script(cfg, ops, min_providers, DEADLINE).map_err(|e| e.to_string())
}

fn report(out: ScriptOutcome) -> Result<ExitCode, String> {
    for OpRecord { kind, error, span, .. } in &out.records {
        if *span != 0 {
            eprintln!("{kind}: span {span:#x}");
        }
        if let Some(e) = error {
            eprintln!("sorrentoctl: {kind} failed: {e:?}");
        }
    }
    Ok(if out.stats.failed_ops == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn parse_span(s: &str) -> Result<SpanId, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => SpanId::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad span {s:?}: expected decimal or 0x-hex"))
}

/// Warn when a stats snapshot's schema version is missing or newer than
/// this binary understands; the raw JSON is still printed either way.
fn check_snapshot_version(json: &str, node: usize) {
    let v = Json::parse(json)
        .ok()
        .and_then(|j| j.get("v").and_then(Json::as_u64));
    match v {
        Some(v) if v == STATS_SCHEMA_V => {}
        Some(v) => eprintln!(
            "sorrentoctl: n{node} snapshot is v{v}, this binary understands v{STATS_SCHEMA_V} — fields may be missing or renamed"
        ),
        None => eprintln!("sorrentoctl: n{node} snapshot has no version field (pre-v1 daemon?)"),
    }
}

/// Render one provider's membership view (`sorrentoctl members`).
/// Exits non-zero when any member is suspect or dead, so game-day
/// scripts can poll for "suspicion formed" / "cluster healthy again".
fn cmd_members(json: &str, node: usize) -> Result<ExitCode, String> {
    let Ok(view) = Json::parse(json) else {
        return Err(format!("n{node} sent an unparseable members reply"));
    };
    let str_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("?").to_owned();
    println!(
        "=== n{node} membership (mode {}, {} live) ===",
        str_of(&view, "mode"),
        view.get("live").and_then(Json::as_u64).unwrap_or(0),
    );
    println!("{:<6} {:<8} {:>5} {:>6} {:>10} {:>10}", "NODE", "STATE", "INC", "LOAD", "AVAIL", "CAP");
    let mut unhealthy = false;
    for m in view.get("members").and_then(Json::as_arr).unwrap_or(&[]) {
        let state = str_of(m, "state");
        unhealthy |= state != "alive";
        let num = |k: &str| {
            m.get(k)
                .and_then(Json::as_u64)
                .map_or_else(|| "-".to_owned(), |v| v.to_string())
        };
        println!(
            "{:<6} {:<8} {:>5} {:>6} {:>10} {:>10}",
            format!("n{}", m.get("node").and_then(Json::as_u64).unwrap_or(0)),
            state,
            num("incarnation"),
            m.get("load")
                .and_then(Json::as_f64)
                .map_or_else(|| "-".to_owned(), |l| format!("{l:.2}")),
            num("available"),
            num("capacity"),
        );
    }
    Ok(if unhealthy { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Poll every node's versioned stats snapshot and render one table row
/// per node. Unreachable nodes get a row, not an error: the whole point
/// of `top` is seeing which nodes are sick.
fn cmd_top(cfg: &CtlConfig) -> Result<ExitCode, String> {
    println!(
        "{:<6} {:<10} {:<6} {:>8} {:>8} {:>8} {:>6} {:>6} {:>16} SLOWEST",
        "NODE", "ROLE", "SHARD", "UP(s)", "EVENTS", "DROPPED", "CONNS", "QMAX", "CHAOS(d/D/~)"
    );
    let mut unhealthy = false;
    for peer in &cfg.peers {
        let idx = peer.id.index();
        let json = match ctl::fetch_stats(cfg, peer.id, PER_NODE) {
            Ok(j) => j,
            Err(_) => {
                println!("{:<6} {:<10} (unreachable)", format!("n{idx}"), "-");
                unhealthy = true;
                continue;
            }
        };
        let Ok(snap) = Json::parse(&json) else {
            println!("{:<6} {:<10} (unparseable snapshot)", format!("n{idx}"), "-");
            unhealthy = true;
            continue;
        };
        match snap.get("v").and_then(Json::as_u64) {
            Some(v) if v == STATS_SCHEMA_V => {}
            v => {
                println!(
                    "{:<6} {:<10} (snapshot {} — this binary understands v{STATS_SCHEMA_V})",
                    format!("n{idx}"),
                    "-",
                    v.map_or("unversioned".into(), |v| format!("v{v}"))
                );
                unhealthy = true;
                continue;
            }
        }
        let str_of = |k: &str| snap.get(k).and_then(Json::as_str).unwrap_or("?").to_owned();
        let gauge = |k: &str| {
            snap.get("gauges")
                .and_then(|g| g.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64
        };
        let flight = |k: &str| {
            snap.get("flight")
                .and_then(|f| f.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let slowest = snap
            .get("slow_ops")
            .and_then(Json::as_arr)
            .and_then(<[Json]>::first)
            .map_or_else(
                || "-".to_owned(),
                |op| {
                    format!(
                        "{}µs {} span {:#x}",
                        op.get("dur_us").and_then(Json::as_u64).unwrap_or(0),
                        op.get("kind").and_then(Json::as_str).unwrap_or("?"),
                        op.get("span").and_then(Json::as_u64).unwrap_or(0),
                    )
                },
            );
        // Namespace/standby snapshots carry their shard index;
        // providers have none.
        let shard = snap
            .get("shard")
            .and_then(Json::as_u64)
            .map_or_else(|| "-".to_owned(), |k| format!("ns{k}"));
        println!(
            "{:<6} {:<10} {:<6} {:>8} {:>8} {:>8} {:>6} {:>6} {:>16} {}",
            format!("n{idx}"),
            str_of("role"),
            shard,
            snap.get("uptime_ms").and_then(Json::as_u64).unwrap_or(0) / 1000,
            flight("len"),
            flight("dropped"),
            gauge("net_conns"),
            gauge("net_queue_depth_max"),
            format!(
                "{}/{}/{}",
                gauge("net_chaos_dropped"),
                gauge("net_chaos_duplicated"),
                gauge("net_chaos_delayed")
            ),
            slowest,
        );
    }
    Ok(if unhealthy { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Pull one span's events out of every node's flight recorder and
/// render the merged causal chain on the shared wall-clock timeline.
fn cmd_trace(cfg: &CtlConfig, span: SpanId) -> Result<ExitCode, String> {
    // (unix_ns, node index, role, event text) per event, cluster-wide.
    let mut events: Vec<(u64, usize, String, String)> = Vec::new();
    for peer in &cfg.peers {
        let idx = peer.id.index();
        let json = match ctl::fetch_trace(cfg, peer.id, span, PER_NODE) {
            Ok(j) => j,
            Err(_) => {
                eprintln!("sorrentoctl: n{idx} unreachable, trace is partial");
                continue;
            }
        };
        let Ok(dump) = Json::parse(&json) else {
            eprintln!("sorrentoctl: n{idx} sent an unparseable trace reply");
            continue;
        };
        match dump.get("v").and_then(Json::as_u64) {
            Some(v) if v == FLIGHT_SCHEMA_V => {}
            v => {
                eprintln!(
                    "sorrentoctl: n{idx} flight dump is {:?}, this binary understands v{FLIGHT_SCHEMA_V}; skipping",
                    v
                );
                continue;
            }
        }
        let role = dump.get("role").and_then(Json::as_str).unwrap_or("?").to_owned();
        if dump.get("dropped").and_then(Json::as_u64).unwrap_or(0) > 0 {
            eprintln!("sorrentoctl: n{idx} flight ring wrapped; oldest events are gone");
        }
        for ev in dump.get("events").and_then(Json::as_arr).unwrap_or(&[]) {
            events.push((
                ev.get("unix_ns").and_then(Json::as_u64).unwrap_or(0),
                idx,
                role.clone(),
                ev.get("text").and_then(Json::as_str).unwrap_or("?").to_owned(),
            ));
        }
    }
    events.sort();
    println!("=== trace for span {span:#x} ===");
    if events.is_empty() {
        println!("(no events — span unknown, or already evicted from every ring)");
        return Ok(ExitCode::FAILURE);
    }
    let t0 = events[0].0;
    for (at, idx, role, text) in &events {
        let rel = at.saturating_sub(t0);
        println!(
            "  +{}.{:06}s  {:<14} {text}",
            rel / 1_000_000_000,
            (rel % 1_000_000_000) / 1_000,
            format!("n{idx}/{role}"),
        );
    }
    Ok(ExitCode::SUCCESS)
}
