//! Raw-mesh data-path regression gates: large frames across the three
//! topologies the daemons exercise (one-way, reply over the inbound
//! connection, fan-in), plus serial and windowed RPC round trips. Each
//! runs at a fixed small size (3 × 8 MiB, a few thousand RPCs) and fails
//! loudly, with queue stats, on a hang or a lost reply. Throughput is the
//! `stream*` workloads' and `storm.rs`'s to measure, not this file's.

use std::collections::HashMap;
use std::net::TcpListener;
use std::time::Duration;

use sorrento::proto::Msg;
use sorrento::store::{SegMeta, WritePayload};
use sorrento::types::SegId;
use sorrento_net::tcp::{Mesh, MeshConfig};
use sorrento_sim::NodeId;

const BULK: usize = 8 << 20;

fn mesh(i: u64) -> Mesh {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    Mesh::start(NodeId::from_index(i as usize), l, HashMap::new(), MeshConfig::default()).unwrap()
}

fn bulk_write(req: u64, seg: u128, payload: &bytes::Bytes) -> Msg {
    Msg::DirectWrite {
        req,
        seg: SegId(seg),
        offset: 0,
        payload: WritePayload::Real(payload.clone()),
        meta: SegMeta::default(),
    }
}

/// Wait for `n` bulk writes at `at`; `what` names the direction.
fn expect_bulk(at: &Mesh, n: u64, what: &str) {
    for got in 0..n {
        match at.recv_timeout(Duration::from_secs(30)) {
            Some((_, Msg::DirectWrite { payload, .. })) => assert_eq!(payload.len(), BULK as u64),
            other => panic!("{what}: got {got} of {n}, then {other:?}; stats {:?}", at.stats()),
        }
    }
}

#[test]
fn bulk_one_way() {
    let mut a = mesh(900);
    let mut b = mesh(901);
    b.add_peer(NodeId::from_index(900), a.listen_addr());
    let payload = bytes::Bytes::from(vec![0xabu8; BULK]);
    for req in 0..3 {
        b.send(NodeId::from_index(900), &bulk_write(req, 1, &payload));
    }
    expect_bulk(&a, 3, "one-way");
    // Reply direction: a answers over the inbound connection.
    for req in 0..3 {
        a.send(NodeId::from_index(901), &bulk_write(req, 2, &payload));
    }
    expect_bulk(&b, 3, "reply direction");
}

#[test]
fn bulk_fan_in() {
    let sink = mesh(910);
    let mut senders: Vec<Mesh> = (0..3).map(|i| mesh(911 + i)).collect();
    let payload = bytes::Bytes::from(vec![0xcdu8; BULK]);
    for (i, s) in senders.iter_mut().enumerate() {
        s.add_peer(NodeId::from_index(910), sink.listen_addr());
        s.send(NodeId::from_index(910), &bulk_write(i as u64, 3, &payload));
    }
    expect_bulk(&sink, 3, "fan-in");
}

#[test]
fn rpc_ping_pong() {
    let n: u64 = 2000;
    let server = mesh(920);
    let mut client = mesh(921);
    client.add_peer(NodeId::from_index(920), server.listen_addr());

    let echo = std::thread::spawn(move || {
        let mut server = server;
        let mut served = 0u64;
        while served < n {
            if let Some((from, Msg::StatsQuery { req })) =
                server.recv_timeout(Duration::from_secs(10))
            {
                server.send(from, &Msg::StatsR { req, json: String::new() });
                served += 1;
            } else {
                panic!("echo side starved at {served}");
            }
        }
        server.shutdown();
    });

    // One warmup round-trip to get the connection up.
    client.send(NodeId::from_index(920), &Msg::StatsQuery { req: u64::MAX });
    // (the echo thread counts it; ask for n+1 total below)
    let _ = client.recv_timeout(Duration::from_secs(10)).expect("warmup rtt");

    for req in 0..n - 1 {
        client.send(NodeId::from_index(920), &Msg::StatsQuery { req });
        let got = client.recv_timeout(Duration::from_secs(10));
        assert!(matches!(got, Some((_, Msg::StatsR { .. }))), "rtt {req} timed out");
    }
    echo.join().unwrap();
}

#[test]
fn rpc_windowed() {
    let n: u64 = 4000;
    let window: u64 = 4;
    let server = mesh(930);
    let mut client = mesh(931);
    client.add_peer(NodeId::from_index(930), server.listen_addr());

    let echo = std::thread::spawn(move || {
        let mut server = server;
        let mut served = 0u64;
        while served < n {
            if let Some((from, Msg::StatsQuery { req })) =
                server.recv_timeout(Duration::from_secs(5))
            {
                server.send(from, &Msg::StatsR { req, json: String::new() });
                served += 1;
            } else {
                eprintln!("echo side starved at {served}, stats {:?}", server.stats());
                return;
            }
        }
        server.shutdown();
    });

    let mut sent = 0u64;
    let mut done = 0u64;
    let mut outstanding: Vec<u64> = Vec::new();
    while sent < window.min(n) {
        client.send(NodeId::from_index(930), &Msg::StatsQuery { req: sent });
        outstanding.push(sent);
        sent += 1;
    }
    while done < n {
        let got = client.recv_timeout(Duration::from_secs(6));
        match got {
            Some((_, Msg::StatsR { req, .. })) => outstanding.retain(|&r| r != req),
            _ => panic!(
                "windowed rtt timed out at {done}: missing reqs {outstanding:?}, client stats {:?}",
                client.stats()
            ),
        }
        done += 1;
        if sent < n {
            client.send(NodeId::from_index(930), &Msg::StatsQuery { req: sent });
            outstanding.push(sent);
            sent += 1;
        }
    }
    echo.join().unwrap();
}
