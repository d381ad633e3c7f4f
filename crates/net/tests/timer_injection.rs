//! Bytes from the network that must do nothing, and be counted as what
//! they are (north-star aim 3: no bytes from the network may drive a
//! daemon).
//!
//! *A timer frame.* `Tick`s are a node's own alarms. While the codec still
//! had a table for them, twenty `Tick::Heartbeat` frames from a stranger
//! each started one more self-re-arming heartbeat chain on the provider
//! that decoded them (`hb.send` +168 in 4 s against its neighbour's +7).
//! The frames are built by hand, so this test does not depend on what
//! `encode_msg` makes of a timer today.
//!
//! *A frame damaged in flight.* `net_decode_errors` counts every reason a
//! stream was dropped — a port scanner's bytes, a newer peer's tag, the
//! timer above. Only a failed payload checksum says that a peer's own
//! bytes arrived changed, and `net_checksum_errors` is how an operator
//! tells that from the rest.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sorrento::proto::Msg;
use sorrento::store::WritePayload;
use sorrento_net::frame::{encode_hello, encode_msg, HEADER_LEN, MAGIC, VERSION};
use sorrento_net::testkit::{payload, LoopbackCluster, Snapshot};
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
    assert_hung_up(sock);
    cluster.shutdown().expect("clean shutdown");
}

/// A poisoned stream is dropped: EOF, or a reset for the unread bytes.
fn assert_hung_up(mut sock: TcpStream) {
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match sock.read(&mut [0u8; 64]) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("the connection is still open: {other:?}"),
    }
}

#[test]
fn a_flipped_payload_bit_is_a_checksum_error_and_stores_nothing() {
    let cluster = LoopbackCluster::builder(2).boot().expect("boot 1 + 2");
    let wait = |what: &str, done: &dyn Fn(&Snapshot) -> bool| {
        cluster.wait(what, Duration::from_secs(10), done).expect("seen on a running cluster")
    };
    // The gauge is refreshed on the heartbeat tick.
    let stored = |s: &Snapshot| s.gauge(1, "n1.stored_bytes");
    let before = wait("provider 1's first tick", &|s| stored(s).is_some());

    // One pipelined-write chunk, encoded correctly, then damaged the way
    // a bad NIC or cable would: after the sender computed the CRC.
    let sender = NodeId::from_index(STRANGER);
    let chunk = WritePayload::Real(payload(256 << 10).into());
    let write = Msg::WriteShadow { req: 1, shadow: 1, offset: 0, payload: chunk, truncate: false };
    let mut frame = encode_msg(sender, &write);
    frame[HEADER_LEN + (100 << 10)] ^= 0x04;
    let mut sock = TcpStream::connect(cluster.addr(1)).expect("connect to provider 1");
    sock.write_all(&encode_hello(sender, "nowhere")).expect("hello");
    sock.write_all(&frame).expect("the daemon reads a whole frame before it judges it");

    let refused = wait("the refusal", &|s| s.gauge(1, "net_decode_errors") >= Some(1.0));
    assert_eq!(refused.gauge(1, "net_checksum_errors"), Some(1.0));
    assert_eq!(refused.gauge(1, "net_decode_errors"), Some(1.0));
    assert_eq!(refused.gauge(2, "net_checksum_errors"), Some(0.0));
    assert_eq!(refused.gauge(2, "net_decode_errors"), Some(0.0));
    assert_hung_up(sock);
    let ticked = |s: &Snapshot| heartbeats_sent(s, 1) > heartbeats_sent(&refused, 1);
    assert_eq!(stored(&wait("a tick after the refusal", &ticked)), stored(&before));
    cluster.shutdown().expect("clean shutdown");
}
