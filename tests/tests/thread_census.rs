//! Thread census for the mesh: a node is its own loop thread plus one
//! mesh-owned thread, the dialer (`sorrento-dial-<idx>`), however many
//! peers and sockets it has. The mesh's poller runs on whatever thread
//! calls it, so there is no event-loop thread (`sorrento-net-<idx>`) at
//! all, and this test counts those too: one would double the census. A
//! thread-per-connection design — a reader per inbound connection, a
//! sender per outbound peer — is what it would catch hardest: at 8
//! peers + 64 raw sockets it would count dozens of threads instead of
//! one.
//!
//! The census reads `/proc/self/task/*/comm`, so it is Linux-only (the
//! whole runtime is; the shims use raw epoll syscalls). Thread names
//! are truncated to 15 bytes by the kernel — node indices here are
//! chosen so every truncated name is still unambiguous.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sorrento::proto::Msg;
use sorrento_net::tcp::{Mesh, MeshConfig};
use sorrento_sim::NodeId;

/// Count live threads whose name belongs to `me`'s mesh: its dialer,
/// and any event-loop thread (of which there must be none).
fn mesh_threads_of(me: NodeId) -> usize {
    let prefixes =
        [format!("sorrento-net-{}", me.index()), format!("sorrento-dial-{}", me.index())];
    let prefixes: Vec<&str> = prefixes.iter().map(|p| &p[..p.len().min(15)]).collect();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .filter(|comm| prefixes.contains(&comm.trim_end()))
        .count()
}

/// Count every mesh-owned thread in the process, any node.
fn all_mesh_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .filter(|c| c.starts_with("sorrento-net-") || c.starts_with("sorrento-dial"))
        .count()
}

/// Poll until `actual()` reaches `expected` — threads name themselves
/// shortly after spawn, and shutdown joins are near-instant but not
/// atomic with the census read.
fn expect(expected: usize, what: &str, actual: impl Fn() -> usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = actual();
        if n == expected {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: census {n}, expected {expected}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn mesh(i: usize) -> Mesh {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    Mesh::start(NodeId::from_index(i), l, HashMap::new(), MeshConfig).unwrap()
}

/// One hub, 8 dialed-in peers, 64 raw accepted sockets: the hub's mesh
/// owns exactly one thread throughout, and it is joined on shutdown.
#[test]
fn mesh_threads_are_o1_in_connections() {
    let hub_id = NodeId::from_index(5);
    let mut hub = mesh(5);
    expect(1, "fresh mesh must own exactly 1 thread", || mesh_threads_of(hub_id));

    // 8 peers dial in and prove their connections live by delivering a
    // frame each; a peer's dial finishes and its frame is written while
    // it is polled. Peer indices 10..18 truncate to distinct names and
    // never collide with the hub's.
    let mut peers: Vec<Mesh> = (10..18).map(mesh).collect();
    for (i, p) in peers.iter_mut().enumerate() {
        p.add_peer(hub_id, hub.listen_addr());
        p.send(hub_id, &Msg::StatsQuery { req: i as u64 });
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = 0;
    while got < peers.len() {
        assert!(Instant::now() < deadline, "hub starved at {got}/8");
        for p in peers.iter_mut() {
            assert!(p.try_recv().is_none(), "a peer got a message");
        }
        match hub.recv_timeout(Duration::from_millis(1)) {
            Some((_, Msg::StatsQuery { .. })) => got += 1,
            None => {}
            other => panic!("hub got {other:?} at {got}/8"),
        }
    }

    // A crowd of raw sockets — accepted and registered by the hub's
    // poller, never speaking the protocol — must not spawn anything
    // either. (Under a reader-thread-per-connection design this alone
    // would add 64 threads.)
    let raw: Vec<TcpStream> =
        (0..64).map(|_| TcpStream::connect(hub.listen_addr()).unwrap()).collect();
    // Let the hub accept them all, then census.
    while hub.stats().conns < 8 + 64 {
        assert!(Instant::now() < deadline, "hub accepted {:?}", hub.stats());
        assert!(hub.recv_timeout(Duration::from_millis(1)).is_none(), "a raw socket spoke");
    }
    expect(1, "hub thread count grew with connections", || mesh_threads_of(hub_id));
    // Process-wide: hub + 8 peers, one thread each.
    expect(9, "process-wide mesh thread count", all_mesh_threads);

    drop(raw);
    drop(peers);
    drop(hub);
    expect(0, "mesh threads leaked past shutdown", all_mesh_threads);
}
