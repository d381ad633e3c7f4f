//! Network model: per-node full-duplex NIC with finite bandwidth plus a
//! fixed switch/propagation latency.
//!
//! The clusters in the paper connect every node through Fast Ethernet
//! (100 Mbit/s ≈ 12.5 MB/s) to non-blocking switches, and the paper notes
//! that "none of the experiments would saturate the switches". The
//! bottleneck is therefore always an endpoint NIC, which is exactly what
//! this model captures: a message of size `s` occupies the sender's TX
//! queue for `s / bandwidth`, travels for `latency`, and occupies the
//! receiver's RX queue for `s / bandwidth`. N senders targeting one
//! receiver share the receiver NIC, producing the aggregate-bandwidth
//! plateaus of Figure 11.

use crate::time::{Dur, SimTime};

/// Static NIC parameters for one node.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Link bandwidth in bytes per second (each direction).
    pub bandwidth: f64,
    /// One-way latency (propagation + switching + protocol stack).
    pub latency: Dur,
}

impl NetConfig {
    /// Fast Ethernet as deployed in the paper's clusters: 100 Mbit/s with
    /// ~150 µs one-way latency (measured LAN RTTs of that era were
    /// 200–400 µs).
    pub fn fast_ethernet() -> NetConfig {
        NetConfig {
            bandwidth: 12.5e6,
            latency: Dur::micros(150),
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::fast_ethernet()
    }
}

/// Dynamic NIC state for one node: when each direction becomes free.
#[derive(Debug, Clone)]
pub struct Nic {
    pub(crate) config: NetConfig,
    tx_free: SimTime,
    rx_free: SimTime,
    /// Total bytes sent/received, for reporting.
    pub tx_bytes: u64,
    pub rx_bytes: u64,
}

impl Nic {
    pub(crate) fn new(config: NetConfig) -> Nic {
        Nic {
            config,
            tx_free: SimTime::ZERO,
            rx_free: SimTime::ZERO,
            tx_bytes: 0,
            rx_bytes: 0,
        }
    }

    /// Occupy the TX queue for a message of `size` handed off at `now`;
    /// returns the instant the last byte leaves the NIC.
    pub(crate) fn transmit(&mut self, now: SimTime, size: u64) -> SimTime {
        let start = self.tx_free.max(now);
        let end = start + Dur::for_bytes(size, self.config.bandwidth);
        self.tx_free = end;
        self.tx_bytes += size;
        end
    }

    /// Occupy the RX queue for a message handed to the network at `at`
    /// whose last byte could arrive at `earliest` (sender TX end +
    /// latency); returns the delivery instant.
    ///
    /// The receiver's work is anchored at `at`, **not** at `earliest`: a
    /// message from a backlogged sender must not reserve this NIC while
    /// the sender is still draining (real networks interleave other
    /// senders' packets into that gap).
    pub(crate) fn receive(&mut self, at: SimTime, earliest: SimTime, size: u64) -> SimTime {
        self.rx_free = self.rx_free.max(at) + Dur::for_bytes(size, self.config.bandwidth);
        self.rx_bytes += size;
        earliest.max(self.rx_free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> Nic {
        Nic::new(NetConfig {
            bandwidth: 1e6, // 1 MB/s for round numbers
            latency: Dur::millis(1),
        })
    }

    #[test]
    fn single_flow_runs_at_line_rate() {
        let mut tx = nic();
        let mut rx = nic();
        let lat = Dur::millis(1);
        // Two back-to-back 1 MB messages: second delivery exactly 1 s after
        // the first — line-rate 1 MB/s.
        let t0 = SimTime::ZERO;
        let e1 = tx.transmit(t0, 1_000_000);
        let d1 = rx.receive(t0, e1 + lat, 1_000_000);
        let e2 = tx.transmit(t0, 1_000_000);
        let d2 = rx.receive(t0, e2 + lat, 1_000_000);
        assert_eq!(d1, t0 + Dur::secs(1) + lat);
        assert_eq!(d2 - d1, Dur::secs(1));
    }

    #[test]
    fn receiver_nic_is_shared_by_concurrent_senders() {
        let mut tx_a = nic();
        let mut tx_b = nic();
        let mut rx = nic();
        let lat = Dur::millis(1);
        // Both senders transmit 1 MB starting at t=0. Their TX queues drain
        // in parallel, but the receiver serializes: aggregate ingress is
        // still 1 MB/s.
        let t0 = SimTime::ZERO;
        let ea = tx_a.transmit(t0, 1_000_000);
        let eb = tx_b.transmit(t0, 1_000_000);
        let da = rx.receive(t0, ea + lat, 1_000_000);
        let db = rx.receive(t0, eb + lat, 1_000_000);
        assert_eq!(da, t0 + Dur::secs(1) + lat);
        assert_eq!(db, t0 + Dur::secs(2)); // receiver-serialized
    }

    #[test]
    fn idle_receiver_adds_no_delay() {
        let mut tx = nic();
        let mut rx = nic();
        let lat = Dur::millis(1);
        let t0 = SimTime::ZERO + Dur::secs(10);
        let e = tx.transmit(t0, 500_000);
        let d = rx.receive(t0, e + lat, 500_000);
        // Pipelined with the sender: delivery = tx end + latency.
        assert_eq!(d, e + lat);
    }

    #[test]
    fn backlogged_sender_does_not_reserve_receiver() {
        // Sender A's NIC is busy for 8 s; its small message to R arrives
        // late — but R's NIC must stay available: a prompt message from B
        // right after is NOT queued behind A's sender-side delay.
        let mut tx_a = nic();
        let mut tx_b = nic();
        let mut rx = nic();
        let lat = Dur::millis(1);
        tx_a.transmit(SimTime::ZERO, 8_000_000); // 8 s backlog
        let ea = tx_a.transmit(SimTime::ZERO, 200);
        let da = rx.receive(SimTime::ZERO, ea + lat, 200);
        assert!(da >= SimTime::ZERO + Dur::secs(8));
        let eb = tx_b.transmit(SimTime::ZERO + Dur::millis(10), 200);
        let db = rx.receive(SimTime::ZERO + Dur::millis(10), eb + lat, 200);
        // B's delivery is prompt despite A's pending slow message.
        assert!(db < SimTime::ZERO + Dur::millis(20), "db = {db:?}");
    }

    #[test]
    fn byte_counters_accumulate() {
        let mut tx = nic();
        tx.transmit(SimTime::ZERO, 100);
        tx.transmit(SimTime::ZERO, 200);
        assert_eq!(tx.tx_bytes, 300);
    }
}
