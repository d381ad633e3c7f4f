//! Thread census for the mesh: a node is one thread, its own loop, and
//! the mesh owns none, however many peers and sockets it has. The
//! mesh's poller runs on whatever thread calls it and its dials are
//! nonblocking connects in that same poller, so there is no event-loop
//! thread (`sorrento-net-<idx>`) and no dialer (`sorrento-dial-<idx>`);
//! the census counts both names, and every thread of the process as
//! well, named or not. A thread-per-connection design — a reader per
//! inbound connection, a sender per outbound peer — is what it would
//! catch hardest: at 8 peers + 64 raw sockets it would count dozens of
//! threads instead of none.
//!
//! The census reads `/proc/self/task`, so it is Linux-only (the whole
//! runtime is; the shims use raw epoll syscalls). This binary holds one
//! test, so no other test's thread can come or go while it counts.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sorrento::proto::Msg;
use sorrento_net::tcp::{Mesh, MeshConfig};
use sorrento_sim::NodeId;

/// The names of every live thread in the process.
fn thread_names() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .flatten()
        .map(|t| std::fs::read_to_string(t.path().join("comm")).unwrap_or_default())
        .collect()
}

/// Count live threads named for any node's mesh.
fn mesh_threads() -> usize {
    thread_names()
        .iter()
        .filter(|c| c.starts_with("sorrento-net-") || c.starts_with("sorrento-dial"))
        .count()
}

fn mesh(i: usize) -> Mesh {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    Mesh::start(NodeId::from_index(i), l, HashMap::new(), MeshConfig).unwrap()
}

/// One hub, 8 dialed-in peers, 64 raw accepted sockets: no mesh owns a
/// thread at any point, and the process has exactly as many threads
/// with all of them running as before the first mesh started.
#[test]
fn mesh_threads_are_o1_in_connections() {
    let before = thread_names().len();
    let hub_id = NodeId::from_index(5);
    let mut hub = mesh(5);
    assert_eq!(mesh_threads(), 0, "a fresh mesh owns a thread");

    // 8 peers dial in and prove their connections live by delivering a
    // frame each; a peer's dial finishes and its frame is written while
    // it is polled.
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
    assert_eq!(mesh_threads(), 0, "a mesh thread came with the connections");
    assert_eq!(thread_names().len(), before, "threads with 9 meshes up: {:?}", thread_names());

    drop(raw);
    drop(peers);
    drop(hub);
    assert_eq!(mesh_threads(), 0, "a mesh thread outlived shutdown");
    assert_eq!(thread_names().len(), before, "threads after shutdown: {:?}", thread_names());
}
