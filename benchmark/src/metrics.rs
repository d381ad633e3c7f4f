//! Every metric the benchmark emits: name, unit, direction, regression
//! bound, and — for a layer's metric — which end-to-end metric on which
//! workload it should move. `BENCHMARK.json` must say the same;
//! `--validate` checks that it does.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's contract.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change is rejected.
    pub bound: Option<f64>,
    /// Per-layer only: the end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports every one, and
/// every later change is gated on each (workload, metric) pair.
pub const END_TO_END: &[Metric] = &[
    e2e("write_ops_per_s", "1/s", Higher, 0.25),
    e2e("read_ops_per_s", "1/s", Higher, 0.25),
    e2e("space_amp", "x", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One number per layer (module), none gated. The `e2e.*` block holds the
/// user-visible figures that only some workloads have or that do not
/// repeat within a tenth from run to run.
pub const PER_LAYER: &[Metric] = &[
    // ctl (net/ctl.rs) — from the ClientStats of the timed phases.
    layer("ctl.gap_us_per_op", "us", Lower, "write_ops_per_s, read_ops_per_s on smallfile/metadata/durable (the dominant term today); nothing on stream*"),
    layer("ctl.discovery_s", "s", Lower, "setup_s on every workload"),
    // frame (net/frame.rs, pool.rs) — probe.
    layer("frame.encode_small_ns", "ns", Lower, "e2e.read_p50_us, read_ops_per_s on metadata"),
    layer("frame.decode_small_ns", "ns", Lower, "e2e.read_p50_us, read_ops_per_s on metadata"),
    layer("frame.encode_bulk_mb_s", "MB/s", Higher, "write_ops_per_s, read_ops_per_s on stream* (serial with the e2e rate, so first-order)"),
    layer("frame.decode_bulk_mb_s", "MB/s", Higher, "write_ops_per_s, read_ops_per_s on stream*"),
    layer("frame.encode_allocs", "count", Lower, "write_ops_per_s on stream*"),
    layer("frame.decode_allocs", "count", Lower, "read_ops_per_s on stream*"),
    layer("frame.image_encode_mb_s", "MB/s", Higher, "e2e.commit_p95_us on durable"),
    // mesh (net/tcp.rs) — probe; counters scraped from the run's daemons.
    layer("mesh.rtt_p50_us", "us", Lower, "e2e.commit_p50_us, e2e.read_p50_us on smallfile/metadata (once per stat/create, several times per commit)"),
    layer("mesh.rtt_p95_us", "us", Lower, "e2e.commit_p95_us, e2e.read_p95_us on smallfile/metadata"),
    layer("mesh.bulk_mb_s", "MB/s", Higher, "write_ops_per_s, read_ops_per_s on stream*"),
    layer("mesh.send_failures", "count", Lower, "e2e.fail_share on every workload"),
    layer("mesh.dropped_inbox_full", "count", Lower, "e2e.fail_share on every workload"),
    layer("mesh.epollout_waits", "count", Lower, "write_ops_per_s on stream*"),
    // daemon (net/daemon.rs) — probe against a live provider + scrape.
    layer("daemon.echo_p50_us", "us", Lower, "e2e.commit_p50_us, e2e.read_p50_us on smallfile/metadata"),
    layer("daemon.echo_p95_us", "us", Lower, "e2e.commit_p95_us on smallfile"),
    layer("daemon.loop_overhead_us", "us", Lower, "small-op latencies and, under 2 clients, write_ops_per_s/read_ops_per_s on smallfile/metadata"),
    layer("daemon.stats_query_us", "us", Lower, "nothing end to end: the cost of observing"),
    layer("daemon.msgs_per_op", "count", Lower, "write_ops_per_s, read_ops_per_s on smallfile/metadata"),
    layer("daemon.disk_write_amp", "x", Lower, "space_amp on durable, once writes are durable before the ack"),
    layer("daemon.kill_lost_files", "count", Lower, "e2e.fail_share on durable, once writes are durable before the ack"),
    // namespace, provider, client (core/*.rs) — traced run.
    layer("namespace.handle.ns_create_us", "us", Lower, "e2e.create_p50_us, write_ops_per_s on metadata/smallfile"),
    layer("namespace.handle.ns_lookup_us", "us", Lower, "e2e.read_p50_us, read_ops_per_s on metadata"),
    layer("namespace.handle.commit_begin_us", "us", Lower, "e2e.commit_p50_us on smallfile"),
    layer("namespace.handle.commit_end_us", "us", Lower, "e2e.commit_p50_us on smallfile"),
    layer("namespace.handle.ns_list_us", "us", Lower, "read_ops_per_s on metadata"),
    layer("namespace.handle.ns_mkdir_us", "us", Lower, "read_ops_per_s on metadata"),
    layer("namespace.handle.ns_rename_us", "us", Lower, "read_ops_per_s on metadata"),
    layer("provider.handle.create_shadow_us", "us", Lower, "e2e.commit_p50_us on smallfile"),
    layer("provider.handle.write_shadow_us", "us", Lower, "write_ops_per_s on stream*"),
    layer("provider.handle.prepare_us", "us", Lower, "e2e.commit_p50_us on smallfile"),
    layer("provider.handle.commit_us", "us", Lower, "e2e.commit_p50_us on smallfile"),
    layer("provider.handle.read_seg_us", "us", Lower, "e2e.read_p50_us, read_ops_per_s on stream*"),
    layer("provider.handle.loc_query_us", "us", Lower, "e2e.read_p50_us on smallfile"),
    layer("provider.handle.loc_upsert_us", "us", Lower, "e2e.commit_p50_us on smallfile"),
    layer("provider.handle.heartbeat_us", "us", Lower, "nothing directly: background load on every provider"),
    layer("provider.handle.tick_us", "us", Lower, "nothing directly: background load on every provider"),
    layer("namespace.self_us_per_op", "us", Lower, "read_ops_per_s on metadata"),
    layer("provider.self_us_per_op", "us", Lower, "write_ops_per_s, read_ops_per_s on stream*"),
    layer("client.self_us_per_op", "us", Lower, "proc.cpu_ms_per_op and every rate, on every workload"),
    layer("frame.self_us_per_op", "us", Lower, "write_ops_per_s, read_ops_per_s on stream*"),
    layer("client.msgs_per_op", "count", Lower, "e2e.commit_p50_us on smallfile (RTTs per commit)"),
    layer("client.bytes_per_op", "B", Lower, "write_ops_per_s on stream_r3/stream_ec (fan-out bytes)"),
    // store (core/store) — probe.
    layer("store.write_mb_s", "MB/s", Higher, "write_ops_per_s on stream*"),
    layer("store.read_mb_s", "MB/s", Higher, "read_ops_per_s on stream*"),
    layer("store.export_mb_s", "MB/s", Higher, "e2e.commit_p95_us, write_ops_per_s on durable"),
    layer("store.list_segments_us", "us", Lower, "e2e.commit_p95_us, write_ops_per_s on durable (each sweep walks every segment)"),
    // kvdb — probe.
    layer("kvdb.file_put_p50_us", "us", Lower, "write_ops_per_s on durable only"),
    layer("kvdb.file_put_p95_us", "us", Lower, "e2e.commit_p95_us on durable only"),
    layer("kvdb.file_put_mb_s", "MB/s", Higher, "write_ops_per_s on durable only"),
    layer("kvdb.wal_bytes_per_user_byte", "x", Lower, "space_amp on durable"),
    layer("kvdb.checkpoint_ms", "ms", Lower, "e2e.commit_p95_us on durable"),
    layer("kvdb.recover_ms", "ms", Lower, "e2e.restart_s on durable"),
    layer("kvdb.mem_put_ns", "ns", Lower, "write_ops_per_s on metadata"),
    layer("kvdb.mem_get_ns", "ns", Lower, "read_ops_per_s on metadata"),
    // ec — probe.
    layer("ec.encode_mb_s", "MB/s", Higher, "write_ops_per_s on stream_ec only"),
    layer("ec.reconstruct_mb_s", "MB/s", Higher, "nothing today: no workload reads degraded"),
    // process — getrusage.
    layer("proc.cpu_ms_per_op", "ms", Lower, "catches a latency win bought with spinning, on every workload; too noisy on small ops (15%) to gate"),
    layer("proc.rss_peak_mb", "MB", Lower, "nothing end to end: memory is its own cost"),
    layer("run.restarts", "count", Lower, "nothing end to end: times this run crashed (a panic, a cluster that never came up) and was started over; 0 unless the product is flaky"),
    // traced run.
    layer("trace.cpu_us_per_op", "us", Lower, "the ceiling on what layer code changes can save per op"),
    layer("trace.wait_share", "share", Lower, "the share of an op's wall time no layer's code accounts for: queues, sockets, loop sleeps, scheduler"),
    layer("trace.overhead_pct", "%", Lower, "nothing: the cost of tracing itself"),
    // user-visible, but not on every workload or not repeatable enough to gate.
    layer("e2e.create_p50_us", "us", Lower, "user-visible; run-to-run spread 10-20%"),
    layer("e2e.commit_p50_us", "us", Lower, "user-visible; bimodal under 2 clients, run-to-run spread 10-30%"),
    layer("e2e.commit_p95_us", "us", Lower, "user-visible tail; 3-25 samples per run on stream*"),
    layer("e2e.read_p50_us", "us", Lower, "user-visible: open (smallfile, durable), stat (metadata), read (stream*); run-to-run spread 8-45%"),
    layer("e2e.read_p95_us", "us", Lower, "user-visible tail of the same op; 3-25 samples per run on stream*"),
    layer("e2e.write_mb_s", "MB/s", Higher, "user-visible; 0 on metadata"),
    layer("e2e.read_mb_s", "MB/s", Higher, "user-visible; 0 on metadata"),
    layer("e2e.restart_s", "s", Lower, "user-visible; durable only"),
    layer("e2e.fail_share", "share", Lower, "user-visible; 0 on a correct run, so not a gated metric"),
];

/// The unit of a metric, by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.iter().all(|m| !m.moves.is_empty()));
    }
}
