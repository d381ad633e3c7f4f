//! The observability plane, end to end against a real loopback
//! cluster: a write lands under 5% frame loss, and `fetch_trace` (the
//! library form of `sorrentoctl trace <span>`) pulls the op's causal
//! chain back out of every node's flight recorder — client send, the
//! namespace commit, and the provider-side write events, in wall-clock
//! order. A second test proves the flight recorder reaches disk on both
//! clean and crash-style exits.

use std::time::Duration;

use sorrento::api::FsScript;
use sorrento::types::FileOptions;
use sorrento_json::Json;
use sorrento_net::chaos::ChaosConfig;
use sorrento_net::config::CtlConfig;
use sorrento_net::ctl;
use sorrento_net::testkit::{payload, run_until, LoopbackCluster};
use sorrento_sim::NodeId;
use sorrento_tests::check_flight_dump;

const DEADLINE: Duration = Duration::from_secs(60);

/// One merged-chain event: (wall-clock ns, node index, event text).
type ChainEvent = (u64, usize, String);

/// Pull `span`'s events out of `node`'s flight recorder over the wire,
/// schema-check the reply, and return them as chain events.
fn trace_node(cfg: &CtlConfig, node: usize, span: u64) -> Vec<ChainEvent> {
    let json = ctl::fetch_trace(cfg, NodeId::from_index(node), span, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("trace from n{node}: {e}"));
    check_flight_dump(&json).unwrap_or_else(|e| panic!("n{node} trace reply: {e}"));
    let dump = Json::parse(&json).unwrap();
    dump.get("events")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|ev| {
            (
                ev.get("unix_ns").and_then(Json::as_u64).unwrap(),
                node,
                ev.get("text").and_then(Json::as_str).unwrap().to_owned(),
            )
        })
        .collect()
}

#[test]
fn trace_renders_cross_node_causal_chain_under_chaos() {
    let providers = 3;
    let cluster = LoopbackCluster::builder(providers).boot().expect("boot loopback cluster");
    // The resilient client of the chaos drills: same-request resends and
    // a whole-op deadline so nothing can hang.
    let mut cfg = cluster.ctl();
    cfg.replication = 2;
    cfg.rpc_resends = 2;
    cfg.op_deadline_ms = Some(20_000);

    // 5% frame loss on every frame every daemon sends; the client rides
    // it out with same-request resends and reply dedup.
    for i in cluster.nodes() {
        let chaos = ChaosConfig {
            seed: 0xC0FFEE ^ i as u64,
            drop_permille: 50,
            ..ChaosConfig::default()
        };
        cluster.chaos(i, &chaos).expect("install chaos rules");
    }

    // Write until an attempt converges cleanly — a fresh path per
    // attempt so a half-dead earlier try can't poison the next.
    let data = payload(96 * 1024);
    let eager = FileOptions { replication: 2, eager_commit: true, ..FileOptions::default() };
    let mut attempt = 0u32;
    let write = |fs: &mut FsScript| {
        attempt += 1;
        let h = fs.create_with(format!("/obs-{attempt}"), eager).unwrap();
        fs.write(h, 0, data.clone()).unwrap();
        fs.close(h).unwrap();
    };
    let out = run_until(&cfg, providers, DEADLINE, "write under chaos", write, |out| {
        out.stats.failed_ops == 0
    })
    .unwrap();

    // Every issued op carries a span the CLI prints; the close op's
    // span covers the whole commit (Figure 6 steps 6–12).
    let write_span = out.records.iter().find(|r| r.kind == "write").expect("write record").span;
    let close_span = out.records.iter().find(|r| r.kind == "close").expect("close record").span;
    assert_ne!(write_span, 0, "write op got no span");
    assert_ne!(close_span, 0, "close op got no span");

    // The ctl session's own flight events are the client half of the
    // chain; `ScriptOutcome::epoch_unix_ns` puts them on the shared
    // wall-clock timeline.
    let client_chain = |span: u64| -> Vec<ChainEvent> {
        out.events
            .iter()
            .filter(|rec| rec.ev.span() == Some(span))
            .map(|rec| (out.epoch_unix_ns + rec.at.nanos(), 1000, rec.ev.to_string()))
            .collect()
    };

    // --- the write span: client send → provider shadow writes ---
    let mut chain: Vec<ChainEvent> = client_chain(write_span);
    for node in 0..=providers {
        chain.extend(trace_node(&cfg, node, write_span));
    }
    chain.sort();
    let client_send = chain
        .iter()
        .find(|(_, node, text)| *node == 1000 && text.starts_with("msg.send"))
        .expect("write chain has a client send");
    let shadow_writes: Vec<&ChainEvent> = chain
        .iter()
        .filter(|(_, node, text)| (1..=providers).contains(node) && text.starts_with("seg.create"))
        .collect();
    assert!(!shadow_writes.is_empty(), "write chain has no provider shadow create: {chain:?}");
    for w in &shadow_writes {
        assert!(client_send.0 <= w.0, "client send after provider write: {chain:?}");
    }

    // --- the close span: client send → ns commit → ≥r provider events ---
    let mut chain: Vec<ChainEvent> = client_chain(close_span);
    for node in 0..=providers {
        chain.extend(trace_node(&cfg, node, close_span));
    }
    chain.sort();
    let t_client_send = chain
        .iter()
        .find(|(_, node, text)| *node == 1000 && text.starts_with("msg.send"))
        .expect("close chain has a client send")
        .0;
    let t_ns_commit = chain
        .iter()
        .find(|(_, node, text)| *node == 0 && text.contains("commit_begin"))
        .expect("close chain has the namespace commit")
        .0;
    let provider_writes: Vec<&ChainEvent> = chain
        .iter()
        .filter(|(_, node, text)| {
            (1..=providers).contains(node)
                && (text.starts_with("2pc.") || text.starts_with("seg.commit"))
        })
        .collect();
    assert!(
        provider_writes.len() >= 2,
        "close chain has {} provider write events, wanted >= replication (2): {chain:?}",
        provider_writes.len()
    );
    // Causal order on the merged timeline: the client issued the commit
    // before the namespace saw it, and before any provider applied it.
    assert!(t_client_send <= t_ns_commit, "ns commit precedes client send: {chain:?}");
    for w in &provider_writes {
        assert!(t_client_send <= w.0, "provider write precedes client send: {chain:?}");
    }

    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn flight_dump_survives_clean_and_crash_exits() {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-flight");
    let _ = std::fs::remove_dir_all(&base);
    let mut cluster =
        LoopbackCluster::builder(2).data_root(&base).boot().expect("boot loopback cluster");
    let mut cfg = cluster.ctl();
    cfg.replication = 2;

    let mut fs = FsScript::new();
    let h = fs.create("/box").unwrap();
    fs.write(h, 0, payload(4096)).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 2, DEADLINE).expect("write script");
    assert_eq!(out.stats.failed_ops, 0, "write failed: {:?}", out.stats.last_error);

    // Provider 2 dies abruptly (crash stand-in), provider 1 stops
    // cleanly. Both must leave a parseable black box.
    cluster.kill(2).expect("abrupt kill");
    cluster.stop(1).expect("clean shutdown");
    for p in cluster.providers() {
        let dir = cluster.data_dir(p).expect("providers persist");
        let dump = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("flight_"))
            .unwrap_or_else(|| panic!("no flight_*.json in {}", dir.display()));
        let text = std::fs::read_to_string(dump.path()).unwrap();
        check_flight_dump(&text).unwrap_or_else(|e| panic!("p{p} dump: {e}"));
        let j = Json::parse(&text).unwrap();
        assert_eq!(j.get("node").and_then(Json::as_u64), Some(p as u64));
        assert_eq!(j.get("role").and_then(Json::as_str), Some("provider"));
        let events = j.get("events").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty(), "p{p} black box is empty");
        // A provider that served a write must have seen protocol
        // traffic, not just its own heartbeats.
        assert!(
            events.iter().any(|ev| {
                ev.get("kind").and_then(Json::as_str).is_some_and(|k| k.starts_with("msg."))
            }),
            "p{p} dump has no message events"
        );
    }

    cluster.shutdown().expect("clean shutdown");
}
