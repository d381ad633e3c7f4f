//! A timer frame from the network does nothing (north-star aim 3: no
//! bytes from the network may drive a daemon).
//!
//! `Tick`s are a node's own alarms. While the codec still had a table
//! for them, twenty `Tick::Heartbeat` frames from a stranger each started
//! one more self-re-arming heartbeat chain on the provider that decoded
//! them (`hb.send` +168 in 4 s against its neighbour's +7). The frames
//! are built by hand, so this test does not depend on what `encode_msg`
//! makes of a timer today.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sorrento_net::frame::{encode_hello, MAGIC, VERSION};
use sorrento_net::testkit::{LoopbackCluster, Snapshot};
use sorrento_sim::NodeId;

/// A node id no config lists.
const STRANGER: usize = 777;

/// `Msg::Tick(Tick::Heartbeat)` as the last encoder that had a `Tick`
/// table wrote it: `Msg` tag 0, then `Tick` tag 0.
fn heartbeat_tick_frame() -> Vec<u8> {
    let payload = [0u8, 0];
    let mut frame = MAGIC.to_vec();
    frame.extend_from_slice(&[VERSION, 1]); // kind 1: a `Msg` frame
    frame.extend_from_slice(&(STRANGER as u32).to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&sorrento_kvdb::crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn heartbeats_sent(snap: &Snapshot, i: usize) -> u64 {
    let read = |n: &sorrento_json::Json| n.get("labeled")?.get("event")?.get("hb.send")?.as_u64();
    snap.node(i).and_then(read).unwrap_or(0)
}

#[test]
fn injected_timer_frames_start_no_timer_chain() {
    let cluster = LoopbackCluster::builder(2).boot().expect("boot 1 + 2");
    let before = cluster.snapshot().expect("scrape before");

    let mut sock = TcpStream::connect(cluster.addr(1)).expect("connect to provider 1");
    sock.write_all(&encode_hello(NodeId::from_index(STRANGER), "nowhere")).expect("hello");
    // The daemon hangs up on the first of these; the rest may not fit.
    let _ = sock.write_all(&heartbeat_tick_frame().repeat(20));
    std::thread::sleep(Duration::from_secs(4));

    let after = cluster.snapshot().expect("scrape after");
    let grew = |i| heartbeats_sent(&after, i) - heartbeats_sent(&before, i);
    let (one, two) = (grew(1), grew(2));
    assert!(two > 0, "provider 2 sent no heartbeat in 4 s");
    assert!(one.abs_diff(two) <= 2, "hb.send: provider 1 +{one}, provider 2 +{two}");
    assert!(after.gauge(1, "net_decode_errors") >= Some(1.0), "the refusal is not counted");
    // A poisoned stream is dropped: EOF, or a reset for the unread frames.
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match sock.read(&mut [0u8; 64]) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("the connection is still open: {other:?}"),
    }
    cluster.shutdown().expect("clean shutdown");
}
