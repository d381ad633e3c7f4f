//! One timed end-to-end run of one workload: boot real daemons, drive
//! them through `ctl::run_script`, verify every op, time everything by
//! wall clock.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sorrento::client::{ClientOp, ClientStats};
use sorrento_net::ctl::{self, CtlError, OpRecord, ScriptOutcome};

use crate::cluster::{ClientOpts, Cluster};
use crate::stats::{self, ClientPhase};
use crate::sysres;
use crate::workloads::{
    read_back_script, ClientGen, Content, Expect, FileRef, PhaseKind, Script, Workload,
};

/// How often a provider's persistence sweep runs (`PERSIST_EVERY` in
/// `daemon.rs`, which is private); the durable workload quiesces three
/// sweeps before it kills.
const PERSIST_EVERY: Duration = Duration::from_millis(200);
/// Measured clusters per run. Each is set up from nothing, runs its share
/// of both phases and is torn down; a run reports the best of them.
/// A cluster instance — where its threads land, how its two clients'
/// loops interleave — shifts every number it produces for as long as it
/// lives, so several short instances repeat far better than one long one.
const INSTANCES: usize = 3;
/// No script of a healthy run comes near this.
const SCRIPT_DEADLINE: Duration = Duration::from_secs(120);

/// How much of a run to do.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Seconds of measured phases (W + R).
    pub seconds: f64,
    /// Also scrape the daemons, count disk bytes and run the
    /// no-quiesce kill drill (the `--trace 1` extras).
    pub deep: bool,
    /// One instance, no warm-up, phases fixed at the probe size: for
    /// `--smoke`.
    pub smoke: bool,
}

/// Ops attempted and ops failed or mis-verified, over every script of a
/// run (set-up and probes included).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Ops handed to the client runtime.
    pub attempted: u64,
    /// Ops that failed, returned wrong bytes/sizes/counts, or never ran.
    pub failed: u64,
}

/// One measured phase, all clients.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Per client: completed ops, span, Σ latency.
    pub clients: Vec<ClientPhase>,
    /// `(op kind, latency µs)` of every completed op, all clients.
    pub latencies: Vec<(&'static str, f64)>,
    /// User bytes moved.
    pub user_bytes: u64,
    /// Process CPU seconds (clients, daemons and meshes alike) spent
    /// while the phase's scripts ran.
    pub cpu_s: f64,
}

impl Phase {
    /// The instances' phases as one: every client, every latency sample.
    pub fn pooled(instances: &[Phase]) -> Phase {
        let mut all = Phase::default();
        for p in instances {
            all.clients.extend(&p.clients);
            all.latencies.extend(&p.latencies);
            all.user_bytes += p.user_bytes;
            all.cpu_s += p.cpu_s;
        }
        all
    }

    /// Client ops per wall second.
    pub fn ops_per_s(&self) -> f64 {
        stats::ops_per_s(&self.clients)
    }

    /// User MiB per wall second (sum of the clients' own rates).
    pub fn mb_per_s(&self) -> f64 {
        let ops: u64 = self.clients.iter().map(|c| c.completed).sum();
        if ops == 0 {
            return 0.0;
        }
        // Every op of a phase belongs to a same-sized session, so bytes
        // split across clients as their ops do.
        self.ops_per_s() * (self.user_bytes as f64 / ops as f64) / (1u64 << 20) as f64
    }

    /// Ascending latencies (µs) of one op kind.
    pub fn latencies_of(&self, kind: &str) -> Vec<f64> {
        stats::sorted(
            &self
                .latencies
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, us)| *us)
                .collect::<Vec<_>>(),
        )
    }

    /// Longest client span in seconds.
    pub fn span_s(&self) -> f64 {
        self.clients.iter().map(|c| c.span_ns).max().unwrap_or(0) as f64 / 1e9
    }

    /// Completed ops, all clients.
    pub fn ops(&self) -> u64 {
        self.clients.iter().map(|c| c.completed).sum()
    }
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    /// Boot + discovery + first completed op, once per instance.
    pub setup_s: Vec<f64>,
    /// Phase W, per instance.
    pub write: Vec<Phase>,
    /// Phase R, per instance.
    pub read: Vec<Phase>,
    /// `run_script` wall time not inside `started_at..finished_at`, per
    /// script: what joining the mesh and discovering providers costs.
    pub discovery_s: Vec<f64>,
    /// Ops attempted / failed over the whole run.
    pub tally: Tally,
    /// Peak resident set, MiB.
    pub rss_peak_mb: f64,
    /// Durable: reboot of every provider → every acked file re-verified.
    pub restart_s: Option<f64>,
    /// Σ provider `stored_bytes` gauges (bytes under the data dirs for
    /// the durable workload) ÷ user bytes written, on the last instance.
    pub space_amp: f64,
    /// Deep only — daemon-side message receptions per client op.
    pub msgs_per_op: Option<f64>,
    /// Deep only — `[send_failures, dropped_inbox_full, epollout_waits]`
    /// summed over the daemons' meshes.
    pub mesh_counters: Option<[u64; 3]>,
    /// Deep + durable — block-layer bytes written ÷ user bytes.
    pub disk_write_amp: Option<f64>,
    /// Deep + durable — acked files unreadable after a kill with no
    /// quiesce.
    pub kill_lost_files: Option<u64>,
}

struct Runner<'a> {
    w: &'a Workload,
    seed: u64,
    cluster: Cluster,
    /// Where this instance's providers persist (durable workload only).
    data_root: Option<PathBuf>,
    content: Content,
    gens: Vec<ClientGen>,
    tally: Tally,
    discovery_s: Vec<f64>,
    /// Distinguishes the RNG streams of successive scripts of a client.
    scripts_run: u64,
}

/// A temp directory under the benchmark's target dir, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// `<target dir>/bench-tmp/<pid>-<tag>`.
    pub fn new(tag: &str) -> io::Result<TempDir> {
        let exe = std::env::current_exe()?;
        // <target>/release/<binary> → <target>
        let target = exe
            .parent()
            .and_then(Path::parent)
            .unwrap_or(Path::new("."));
        let dir = target
            .join("bench-tmp")
            .join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Why the record of one op does not meet its expectation, if it does
/// not.
fn judge(record: Option<&OpRecord>, expect: &Expect) -> Option<String> {
    let Some(r) = record else {
        return Some("never ran".to_string());
    };
    if let Some(e) = &r.error {
        return Some(format!("{e:?}"));
    }
    match expect {
        Expect::Ok => None,
        Expect::Data(want) => match &r.data {
            Some(got) if got == want => None,
            Some(got) => Some(format!(
                "read {} bytes that differ from the seeded {}",
                got.len(),
                want.len()
            )),
            None => Some("read returned no bytes".to_string()),
        },
        Expect::Size(n) => (r.bytes != *n).then(|| format!("stat size {} != {n}", r.bytes)),
        Expect::Count(n) => (r.bytes != *n).then(|| format!("list count {} != {n}", r.bytes)),
    }
}

/// Judge one script's records against its expectations; failures are
/// printed with the op's span id.
fn verify(w: &Workload, client: usize, script: &Script, out: &ScriptOutcome) -> u64 {
    let mut failed = 0;
    for (i, expect) in script.expect.iter().enumerate() {
        if let Some(why) = judge(out.records.get(i), expect) {
            failed += 1;
            if failed <= 10 {
                let (kind, span) = out
                    .records
                    .get(i)
                    .map_or((script.ops[i].kind(), 0), |r| (r.kind, r.span));
                eprintln!(
                    "FAIL {} client {client} op {i} {kind} span {span:#x}: {why}",
                    w.name
                );
            }
        }
    }
    failed
}

fn client_opts(w: &Workload) -> ClientOpts {
    ClientOpts {
        replication: w.replication(),
        pipelined: w.pipelined(),
    }
}

fn client_phase(stats: &ClientStats) -> ClientPhase {
    let span_ns = match (stats.started_at, stats.finished_at) {
        (Some(a), Some(b)) => b.nanos().saturating_sub(a.nanos()),
        _ => 0,
    };
    ClientPhase {
        completed: stats.completed_ops,
        span_ns,
        latency_sum_ns: stats.latencies.iter().map(|(_, d)| d.as_nanos()).sum(),
    }
}

impl Runner<'_> {
    /// Run one script per client concurrently: a closed loop per client,
    /// each in its own `ctl::run_script` session. Returns, per client,
    /// the call's wall seconds and its outcome.
    fn launch(&mut self, scripts: &[Script]) -> Vec<(f64, Result<ScriptOutcome, CtlError>)> {
        self.scripts_run += 1;
        std::thread::scope(|s| {
            let handles: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(c, script)| {
                    // A fresh client seed per session: two sessions with
                    // one seed would mint colliding segment ids.
                    let seed = self.seed ^ (self.scripts_run << 8 | c as u64);
                    let cfg = self.cluster.ctl_config(c, seed, client_opts(self.w));
                    let ops = script.ops.clone();
                    let providers = self.w.providers;
                    s.spawn(move || {
                        let t0 = Instant::now();
                        let out = ctl::run_script(&cfg, ops, providers, SCRIPT_DEADLINE);
                        (t0.elapsed().as_secs_f64(), out)
                    })
                })
                .collect();
            handles
                .into_iter()
                // A client's panic is passed on with its own message.
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }

    /// Launch the scripts, verify every record, and fold the clients'
    /// statistics into one [`Phase`].
    fn run_scripts(&mut self, scripts: Vec<Script>) -> io::Result<Phase> {
        let mut phase = Phase::default();
        let mut error = None;
        let cpu0 = sysres::cpu_seconds();
        let outcomes = self.launch(&scripts);
        phase.cpu_s = sysres::cpu_seconds() - cpu0;
        for (c, ((wall_s, out), script)) in outcomes.into_iter().zip(&scripts).enumerate() {
            self.tally.attempted += script.len() as u64;
            match out {
                Ok(out) => {
                    self.tally.failed += verify(self.w, c, script, &out);
                    let cp = client_phase(&out.stats);
                    self.discovery_s.push(wall_s - cp.span_ns as f64 / 1e9);
                    phase.clients.push(cp);
                    phase.latencies.extend(
                        out.stats
                            .latencies
                            .iter()
                            .map(|(k, d)| (*k, d.as_nanos() as f64 / 1e3)),
                    );
                    phase.user_bytes += script.user_bytes;
                }
                Err(e) => {
                    self.tally.failed += script.len() as u64;
                    eprintln!("FAIL {} client {c}: {e}", self.w.name);
                    error = Some(other(e));
                }
            }
        }
        match error {
            Some(e) => Err(e),
            None => Ok(phase),
        }
    }

    /// Run `sessions` sessions per client; `make` builds one client's
    /// script.
    fn phase(
        &mut self,
        sessions: usize,
        make: impl Fn(&mut ClientGen, &Content, usize) -> Script,
    ) -> io::Result<Phase> {
        let scripts = self
            .gens
            .iter_mut()
            .map(|g| make(g, &self.content, sessions))
            .collect();
        self.run_scripts(scripts)
    }

    /// How many sessions per client fill `target_s` at the rate a short
    /// probe of the phase runs at right now.
    fn probe(
        &mut self,
        kind: PhaseKind,
        target_s: f64,
        make: impl Fn(&mut ClientGen, &Content, usize) -> Script,
    ) -> io::Result<usize> {
        let n = self.w.probe_sessions(kind);
        let probe = self.phase(n, make)?;
        Ok(stats::sized_count(
            n,
            probe.span_s(),
            target_s,
            n,
            self.w.max_sessions(kind),
        ))
    }

    /// Read every committed file back in full, outside any timed phase;
    /// what stays unreadable for `patience` counts as failed ops.
    fn recheck_every_file(&mut self, patience: Duration) -> io::Result<()> {
        let lost = self.reverify_all(patience, true)?;
        let files: u64 = self.gens.iter().map(|g| g.files.len() as u64).sum();
        self.tally.attempted += 3 * files;
        self.tally.failed += 3 * lost;
        Ok(())
    }

    /// The durable workload's ending (three persistence sweeps have
    /// passed): crash every provider, reboot on the same directories and
    /// re-read every acked file. Everything acked before the quiesce must
    /// come back; what does not is a failed op.
    fn crash_drill(
        &mut self,
        io0: u64,
        user_written: u64,
        deep: bool,
        gap_drill: bool,
        e2e: &mut E2e,
    ) -> io::Result<()> {
        if deep {
            e2e.disk_write_amp = Some(
                sysres::disk_write_bytes().saturating_sub(io0) as f64 / user_written.max(1) as f64,
            );
        }
        self.cluster.kill_providers()?;
        let t0 = Instant::now();
        self.cluster.reboot_providers()?;
        self.recheck_every_file(Duration::from_secs(30))?;
        e2e.restart_s = Some(t0.elapsed().as_secs_f64());
        if deep && gap_drill {
            // The durability gap: write, do NOT wait for a sweep, crash.
            // Informational: a lost file is counted here, not as a failed
            // op, because the product does not promise it yet.
            let known: Vec<usize> = self.gens.iter().map(|g| g.files.len()).collect();
            let scripts = self
                .gens
                .iter_mut()
                .map(|g| g.write_script(&self.content, 32))
                .collect();
            self.run_scripts(scripts)?;
            self.cluster.kill_providers()?;
            self.cluster.reboot_providers()?;
            for (g, n) in self.gens.iter_mut().zip(known) {
                g.files.drain(..n);
            }
            e2e.kill_lost_files = Some(self.reverify_all(Duration::from_secs(3), false)?);
        }
        Ok(())
    }

    /// Read every file every client committed, retrying the ones that
    /// fail until `patience` runs out (rebooted providers need a moment
    /// to re-announce what they hold). Returns how many stayed
    /// unreadable, and names them when `report` is set.
    fn reverify_all(&mut self, patience: Duration, report: bool) -> io::Result<u64> {
        let deadline = Instant::now() + patience;
        let mut todo: Vec<Vec<FileRef>> = self.gens.iter().map(|g| g.files.clone()).collect();
        loop {
            let scripts: Vec<Script> = todo
                .iter()
                .map(|f| read_back_script(&self.content, f, usize::MAX))
                .collect();
            // A failed read of a retry pass is not final, so the records
            // are judged here and not through the tally.
            let outs = self.launch(&scripts);
            let mut still: Vec<Vec<FileRef>> = Vec::new();
            for (((_, out), script), files) in outs.into_iter().zip(&scripts).zip(&todo) {
                let mut bad = Vec::new();
                for (i, f) in files.iter().enumerate() {
                    // Session i is ops 3i..3i+3.
                    let ok = out.as_ref().is_ok_and(|o| {
                        (3 * i..3 * i + 3)
                            .all(|j| judge(o.records.get(j), &script.expect[j]).is_none())
                    });
                    if !ok {
                        bad.push(f.clone());
                    }
                }
                still.push(bad);
            }
            let left: u64 = still.iter().map(|f| f.len() as u64).sum();
            if left == 0 || Instant::now() > deadline {
                for (c, files) in still.iter().enumerate().filter(|_| report) {
                    for f in files.iter().take(5) {
                        eprintln!(
                            "FAIL {} client {c}: {} unreadable after reboot",
                            self.w.name, f.path
                        );
                    }
                }
                return Ok(left);
            }
            todo = still;
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

impl<'a> Runner<'a> {
    /// Boot cluster instance `i` of a run and time it up to its first
    /// completed op: the `setup_s` sample this instance contributes.
    fn boot(
        w: &'a Workload,
        seed: u64,
        i: usize,
        tmp: Option<&TempDir>,
        e2e: &mut E2e,
    ) -> io::Result<Runner<'a>> {
        let data_root = tmp.map(|t| t.path().join(format!("instance{i}")));
        let t0 = Instant::now();
        let cluster = Cluster::boot(w.providers, data_root.as_deref())?;
        let first_op = vec![ClientOp::Stat { path: "/".into() }];
        let out = ctl::run_script(
            &cluster.ctl_config(0, seed, client_opts(w)),
            first_op,
            w.providers,
            SCRIPT_DEADLINE,
        );
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
        // Every instance gets its own names and contents.
        let seed = seed.wrapping_add(i as u64 * 0x5851_F42D_4C95_7F2D);
        Ok(Runner {
            w,
            seed,
            cluster,
            data_root,
            content: Content::new(seed, w.file_len().max(64)),
            gens: (0..w.clients).map(|c| ClientGen::new(w, c, seed)).collect(),
            tally: Tally {
                attempted: 1,
                failed: out.map_err(other)?.stats.failed_ops,
            },
            discovery_s: Vec::new(),
            scripts_run: 0,
        })
    }

    /// Fold this instance's counts into the run's and stop its daemons.
    fn finish(self, e2e: &mut E2e) -> io::Result<()> {
        e2e.tally.attempted += self.tally.attempted;
        e2e.tally.failed += self.tally.failed;
        e2e.discovery_s.extend(self.discovery_s);
        self.cluster.stop()
    }
}

/// Run workload `w` once.
pub fn run(w: &Workload, seed: u64, plan: RunPlan) -> io::Result<E2e> {
    let mut e2e = E2e::default();
    let tmp = if w.durable {
        Some(TempDir::new(w.name)?)
    } else {
        None
    };
    let write = |g: &mut ClientGen, content: &Content, n: usize| g.write_script(content, n);
    let read = |g: &mut ClientGen, content: &Content, n: usize| g.read_script(content, n);

    // A warm-up instance sizes both phases and is thrown away: it leaves
    // the process's heap faulted in, so the measured instances all start
    // from the same state a long-running deployment is in.
    let instances = if plan.smoke { 1 } else { INSTANCES };
    let (n_write, n_read) = if plan.smoke {
        (
            w.probe_sessions(PhaseKind::Write),
            w.probe_sessions(PhaseKind::Read),
        )
    } else {
        let mut r = Runner::boot(w, seed, 0, tmp.as_ref(), &mut e2e)?;
        let n_write = r.probe(
            PhaseKind::Write,
            plan.seconds * w.write_share / instances as f64,
            write,
        )?;
        let n_read = r.probe(
            PhaseKind::Read,
            plan.seconds * (1.0 - w.write_share) / instances as f64,
            read,
        )?;
        r.finish(&mut e2e)?;
        (n_write, n_read)
    };

    for i in 1..=instances {
        let mut r = Runner::boot(w, seed, i, tmp.as_ref(), &mut e2e)?;
        let last = i == instances;
        let deep = plan.deep && last;
        let io0 = sysres::disk_write_bytes();
        let recv0 = if deep {
            r.cluster.snapshot()?.labeled_total("event", "msg.recv")
        } else {
            0
        };
        e2e.write.push(r.phase(n_write, write)?);
        e2e.read.push(r.phase(n_read, read)?);
        if w.read_len() < w.file_len() {
            // Phase R read only the head of each file: verify the rest.
            r.recheck_every_file(Duration::from_secs(5))?;
        }

        let user_written = e2e.write[i - 1].user_bytes;
        if deep {
            let ops = e2e.write[i - 1].ops() + e2e.read[i - 1].ops();
            let snap = r.cluster.snapshot()?;
            let recv = snap
                .labeled_total("event", "msg.recv")
                .saturating_sub(recv0);
            e2e.msgs_per_op = Some(recv as f64 / ops.max(1) as f64);
            e2e.mesh_counters = Some(snap.mesh_counters());
        }
        if last {
            e2e.space_amp = match &r.data_root {
                // Let three persistence sweeps land before looking.
                Some(root) => {
                    std::thread::sleep(3 * PERSIST_EVERY);
                    sysres::dir_bytes(root)
                }
                None => r.cluster.stored_bytes()?,
            } as f64
                / user_written.max(1) as f64;
            if w.durable {
                r.crash_drill(io0, user_written, deep, !plan.smoke, &mut e2e)?;
            }
        }
        r.finish(&mut e2e)?;
    }
    e2e.rss_peak_mb = sysres::rss_peak_mb();
    Ok(e2e)
}
