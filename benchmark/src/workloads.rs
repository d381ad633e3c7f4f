//! The six workloads: what each one is, the seeded op scripts it runs,
//! and what every op of a script must return.
//!
//! Every workload has a write phase W and a read phase R, run as
//! separate scripts so a `close` that commits is never pooled with a
//! `close` that only drops a read handle. The program under test sees
//! nothing but the generated [`ClientOp`]s.

use bytes::Bytes;
use sorrento::client::ClientOp;
use sorrento::store::WritePayload;
use sorrento::types::FileOptions;

/// Paper §4.1 small-file session size.
pub const SMALL_FILE: usize = 12 * 1024;
/// Paper §4 large-file size.
pub const LARGE_FILE: usize = 32 << 20;
/// Files a populate pass puts into one directory before starting the
/// next.
const FILES_PER_DIR: u64 = 16;

/// What shape of sessions a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// W: create → write 12 KiB → close. R: open → read → close.
    SmallFile,
    /// W: populate (mkdir, create → write a few bytes → close).
    /// R: stat / list / mkdir / rename mix.
    Metadata,
    /// W: create → write 32 MiB → close. R: open → read → close.
    Stream,
}

/// Which of a workload's two phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Phase W.
    Write,
    /// Phase R.
    Read,
}

/// How a workload's files are made redundant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// One copy.
    None,
    /// Three replicas, pushed synchronously at `close` (`eager_commit`).
    Replicated3,
    /// Reed-Solomon (4, 2).
    Erasure42,
}

/// One workload of the benchmark. Names are final: issues cite them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    /// Session shape.
    pub shape: Shape,
    /// Storage providers booted beside the one namespace server.
    pub providers: usize,
    /// Closed-loop clients; never above the reference host's 2 cores.
    pub clients: usize,
    /// File redundancy.
    pub redundancy: Redundancy,
    /// Providers persist to a `data_dir`, and the run ends with a
    /// kill / reboot / re-verify of every file.
    pub durable: bool,
    /// Share of the measured seconds given to phase W; R gets the rest.
    pub write_share: f64,
}

/// The set, in the order a full run executes it.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "smallfile",
        why: "12 KiB create-write-close then open-read-close sessions, r=1, 2 clients: RTTs, ctl/daemon loops, namespace handlers and the 2PC at close; bulk-byte work must not move it",
        shape: Shape::SmallFile,
        providers: 3,
        clients: 2,
        redundancy: Redundancy::None,
        durable: false,
        write_share: 0.5,
    },
    Workload {
        name: "metadata",
        why: "populate dirs of tiny files, then a seeded 75/10/10/5 stat/list/mkdir/rename mix, 2 clients: namespace, kvdb and small frames with providers idle; bypasses every data-path change",
        shape: Shape::Metadata,
        providers: 3,
        clients: 2,
        redundancy: Redundancy::None,
        durable: false,
        write_share: 0.3,
    },
    Workload {
        name: "stream",
        why: "32 MiB files at r=1 over the pipelined path (256 KiB chunks, window 4), 1 client: frame CRC/encode/decode, mesh bulk writes, store copies; loop-gap and namespace work must not move it",
        shape: Shape::Stream,
        providers: 3,
        clients: 1,
        redundancy: Redundancy::None,
        durable: false,
        write_share: 0.5,
    },
    Workload {
        name: "stream_r3",
        why: "as stream with replication 3 and eager_commit: a synchronous fan-out to every replica at close; phase R times 256 KiB reads (owner choice among 3 replicas), whole files are re-read untimed",
        shape: Shape::Stream,
        providers: 3,
        clients: 1,
        redundancy: Redundancy::Replicated3,
        durable: false,
        write_share: 0.65,
    },
    Workload {
        name: "stream_ec",
        why: "32 MiB files erasure-coded (4,2) over 6 providers, 1 client: the only workload with Reed-Solomon encode and the k+m fan-out on the path",
        shape: Shape::Stream,
        providers: 6,
        clients: 1,
        redundancy: Redundancy::Erasure42,
        durable: false,
        write_share: 0.5,
    },
    Workload {
        name: "durable",
        why: "the smallfile scripts with a data_dir on every provider, then kill, reboot and re-read of every acked file: durable minus smallfile is the cost of persistence",
        shape: Shape::SmallFile,
        providers: 3,
        clients: 2,
        redundancy: Redundancy::None,
        durable: true,
        write_share: 0.5,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Replication degree the clients ask for.
    pub fn replication(&self) -> u32 {
        match self.redundancy {
            Redundancy::Replicated3 => 3,
            _ => 1,
        }
    }

    /// Whether the clients use the chunked, windowed write path.
    pub fn pipelined(&self) -> bool {
        self.shape == Shape::Stream
    }

    /// Provider bytes stored per user byte when nothing is wasted.
    pub fn ideal_space_amp(&self) -> f64 {
        match self.redundancy {
            Redundancy::None => 1.0,
            Redundancy::Replicated3 => 3.0,
            Redundancy::Erasure42 => 1.5,
        }
    }

    /// Bytes of one file of this workload (0 for metadata's tiny files,
    /// which are sized per file).
    pub fn file_len(&self) -> usize {
        match self.shape {
            Shape::SmallFile => SMALL_FILE,
            Shape::Metadata => 0,
            Shape::Stream => LARGE_FILE,
        }
    }

    /// The op of phase R a reader waits for, whose median latency is the
    /// `read_p50_us` metric: `open` brings a small file's attached bytes
    /// with the index segment, a stream's bytes come with `read`, and the
    /// metadata mix is three-quarters `stat`.
    pub fn read_head_op(&self) -> &'static str {
        match self.shape {
            Shape::SmallFile => "open",
            Shape::Metadata => "stat",
            Shape::Stream => "read",
        }
    }

    /// Bytes one read session of phase R reads. Whole files — except at
    /// r=3, where phase R times short reads (the owner choice among three
    /// replicas, with the bytes negligible) and every file is read back in
    /// full afterwards, verified but untimed. One eager `close` per
    /// 1.5 s leaves a cluster a single file, and how fast that file
    /// streams back (190 or 275 ms) is decided by where placement put its
    /// eleven segments: no statistic of three clusters repeats.
    pub fn read_len(&self) -> usize {
        match (self.shape, self.redundancy) {
            (Shape::Stream, Redundancy::Replicated3) => 256 * 1024,
            _ => self.file_len(),
        }
    }

    fn session_bytes(&self, phase: PhaseKind) -> usize {
        match phase {
            PhaseKind::Write => self.file_len(),
            PhaseKind::Read => self.read_len(),
        }
    }

    /// Sessions per client in a sizing probe, and the fewest a phase may
    /// have. Two bulk sessions amortise the first one's cold start; an
    /// eager r=3 `close` waits out an RPC timeout, so one write is all a
    /// probe can afford.
    pub fn probe_sessions(&self, phase: PhaseKind) -> usize {
        let bulk = self.session_bytes(phase) >= 1 << 20;
        match (bulk, phase, self.redundancy) {
            (false, ..) => 8,
            (true, PhaseKind::Write, Redundancy::Replicated3) => 1,
            (true, ..) => 2,
        }
    }

    /// Most sessions one client may script in one phase: keeps provider
    /// memory (1.5 GiB) plus the read-back buffers the verifier holds
    /// (1.5 GiB) under 3 GiB however fast the system gets.
    pub fn max_sessions(&self, phase: PhaseKind) -> usize {
        let resident = match phase {
            PhaseKind::Write => self.file_len() as f64 * self.ideal_space_amp(),
            PhaseKind::Read => self.read_len() as f64,
        };
        (((1536u64 << 20) as f64 / resident.max(1.0)) as usize).min(100_000)
    }

    fn create_op(&self, path: String) -> ClientOp {
        match self.redundancy {
            Redundancy::None => ClientOp::Create { path },
            Redundancy::Replicated3 => ClientOp::CreateWith {
                path,
                options: FileOptions {
                    replication: 3,
                    eager_commit: true,
                    ..FileOptions::default()
                },
            },
            Redundancy::Erasure42 => ClientOp::CreateWith {
                path,
                options: FileOptions::erasure_coded(4, 2, LARGE_FILE as u64),
            },
        }
    }
}

/// SplitMix64: the benchmark's only randomness, so one `--seed` always
/// yields the same names, contents and op order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (client, phase).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Seeded file contents without a buffer per file: one pseudo-random
/// pool, and each file is a window into it at a seeded offset, so two
/// files differ and a misdirected read cannot verify.
pub struct Content {
    pool: Bytes,
}

const CONTENT_WINDOW: usize = 64 * 1024;

impl Content {
    /// A pool able to serve files of up to `max_len` bytes.
    pub fn new(seed: u64, max_len: usize) -> Content {
        let mut rng = Rng::new(seed, 0xC0_47E47);
        let mut pool = Vec::with_capacity(max_len + CONTENT_WINDOW + 8);
        while pool.len() < max_len + CONTENT_WINDOW {
            pool.extend_from_slice(&rng.next().to_le_bytes());
        }
        Content { pool: pool.into() }
    }

    /// The `len` bytes of file `id` (a zero-copy view).
    pub fn of(&self, id: u64, len: usize) -> Bytes {
        let off = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % CONTENT_WINDOW;
        self.pool.slice(off..off + len)
    }
}

/// What a successful op must have returned.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Only success.
    Ok,
    /// A read: exactly these bytes.
    Data(Bytes),
    /// A stat: this file size.
    Size(u64),
    /// A list: this many names.
    Count(u64),
}

/// An op program plus, op for op, what each must return.
#[derive(Default)]
pub struct Script {
    /// The ops handed to `ctl::run_script`.
    pub ops: Vec<ClientOp>,
    /// `expect[i]` judges the record of `ops[i]`.
    pub expect: Vec<Expect>,
    /// User bytes the script writes or reads.
    pub user_bytes: u64,
}

impl Script {
    fn push(&mut self, op: ClientOp, expect: Expect) {
        self.ops.push(op);
        self.expect.push(expect);
    }

    /// Ops in the script.
    pub fn len(&self) -> usize {
        self.ops.len()
    }
}

/// A file some script has committed.
#[derive(Debug, Clone)]
pub struct FileRef {
    /// Absolute path.
    pub path: String,
    /// Content id (see [`Content::of`]).
    pub id: u64,
    /// Length in bytes.
    pub len: usize,
}

/// One client's generator state: its RNG and what it has created so far
/// (the model later ops are checked against). Clients work in disjoint
/// subtrees, so each model is exact whatever the interleaving.
pub struct ClientGen {
    workload: Workload,
    client: usize,
    seed: u64,
    rng: Rng,
    next_id: u64,
    /// Every file committed so far, in creation order.
    pub files: Vec<FileRef>,
    /// Metadata only: every directory made so far and how many files it
    /// holds (a rename keeps a file in its directory).
    dirs: Vec<(String, u64)>,
}

impl ClientGen {
    /// Generator for client `client` of `workload` under `seed`.
    pub fn new(workload: &Workload, client: usize, seed: u64) -> ClientGen {
        ClientGen {
            workload: *workload,
            client,
            seed,
            rng: Rng::new(seed, 1 + client as u64),
            next_id: 0,
            files: Vec::new(),
            dirs: Vec::new(),
        }
    }

    /// A name no other seed, client or earlier call produces.
    fn fresh_name(&mut self, prefix: &str) -> (String, u64) {
        let id = self.next_id;
        self.next_id += 1;
        let tag = Rng::new(self.seed, (self.client as u64) << 32 | id).next() >> 16;
        (format!("{prefix}{tag:012x}"), id)
    }

    /// Phase W: `sessions` write sessions.
    pub fn write_script(&mut self, content: &Content, sessions: usize) -> Script {
        let mut s = Script::default();
        for _ in 0..sessions {
            match self.workload.shape {
                Shape::SmallFile | Shape::Stream => {
                    let (name, id) = self.fresh_name(&format!("/c{}-", self.client));
                    self.push_write_session(&mut s, content, name, id, self.workload.file_len());
                }
                Shape::Metadata => {
                    let need_dir = self
                        .dirs
                        .last()
                        .is_none_or(|(_, files)| *files >= FILES_PER_DIR);
                    if need_dir {
                        self.push_mkdir(&mut s);
                    }
                    let dir = self.dirs.len() - 1;
                    let (leaf, id) = self.fresh_name("f");
                    let path = format!("{}/{leaf}", self.dirs[dir].0);
                    // 1..=64 bytes in rotation, not at random: user bytes
                    // per file — the denominator of `space_amp` — must not
                    // depend on the seed.
                    let len = 1 + (id % 64) as usize;
                    self.dirs[dir].1 += 1;
                    self.push_write_session(&mut s, content, path, id, len);
                }
            }
        }
        s
    }

    fn push_mkdir(&mut self, s: &mut Script) {
        if self.dirs.is_empty() {
            // The client's own subtree root, once.
            s.push(
                ClientOp::Mkdir {
                    path: format!("/m{}", self.client),
                },
                Expect::Ok,
            );
        }
        let (leaf, _) = self.fresh_name("d");
        let path = format!("/m{}/{leaf}", self.client);
        s.push(ClientOp::Mkdir { path: path.clone() }, Expect::Ok);
        self.dirs.push((path, 0));
    }

    fn push_write_session(
        &mut self,
        s: &mut Script,
        content: &Content,
        path: String,
        id: u64,
        len: usize,
    ) {
        s.push(self.workload.create_op(path.clone()), Expect::Ok);
        s.push(
            ClientOp::Write {
                offset: 0,
                payload: WritePayload::Real(content.of(id, len)),
            },
            Expect::Ok,
        );
        s.push(ClientOp::Close, Expect::Ok);
        s.user_bytes += len as u64;
        self.files.push(FileRef { path, id, len });
    }

    /// Phase R: `sessions` read sessions (file workloads) or mix ops
    /// (metadata) over what phase W committed.
    pub fn read_script(&mut self, content: &Content, sessions: usize) -> Script {
        match self.workload.shape {
            Shape::SmallFile | Shape::Stream => {
                let files: Vec<FileRef> = (0..sessions)
                    .map(|_| self.files[self.rng.below(self.files.len())].clone())
                    .collect();
                read_back_script(content, &files, self.workload.read_len())
            }
            Shape::Metadata => self.mix_script(sessions),
        }
    }

    /// 75% stat / 10% list / 10% mkdir / 5% rename (files only).
    fn mix_script(&mut self, ops: usize) -> Script {
        let mut s = Script::default();
        for _ in 0..ops {
            match self.rng.below(100) {
                0..=74 => {
                    let f = &self.files[self.rng.below(self.files.len())];
                    s.push(
                        ClientOp::Stat {
                            path: f.path.clone(),
                        },
                        Expect::Size(f.len as u64),
                    );
                }
                75..=84 => {
                    let (path, files) = &self.dirs[self.rng.below(self.dirs.len())];
                    s.push(ClientOp::List { path: path.clone() }, Expect::Count(*files));
                }
                85..=94 => self.push_mkdir(&mut s),
                _ => {
                    let i = self.rng.below(self.files.len());
                    let old = self.files[i].path.clone();
                    let parent = old.rsplit_once('/').map_or("", |(p, _)| p).to_string();
                    let (leaf, _) = self.fresh_name("r");
                    let new = format!("{parent}/{leaf}");
                    s.push(
                        ClientOp::Rename {
                            src: old,
                            dst: new.clone(),
                        },
                        Expect::Ok,
                    );
                    self.files[i].path = new;
                }
            }
        }
        s
    }
}

/// open → read → close for each of `files`, reading (and expecting the
/// seeded content of) at most the first `read_len` bytes of each.
pub fn read_back_script(content: &Content, files: &[FileRef], read_len: usize) -> Script {
    let mut s = Script::default();
    for f in files {
        let len = f.len.min(read_len);
        s.push(
            ClientOp::Open {
                path: f.path.clone(),
                write: false,
            },
            Expect::Ok,
        );
        s.push(
            ClientOp::Read {
                offset: 0,
                len: len as u64,
            },
            Expect::Data(content.of(f.id, len)),
        );
        s.push(ClientOp::Close, Expect::Ok);
        s.user_bytes += len as u64;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &Script) -> Vec<&'static str> {
        s.ops.iter().map(|o| o.kind()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_script() {
        let w = Workload::by_name("metadata").unwrap();
        let content = Content::new(7, 64);
        let run = |seed| {
            let mut g = ClientGen::new(w, 1, seed);
            let a = g.write_script(&content, 40);
            let b = g.read_script(&content, 200);
            format!("{:?}{:?}", a.ops, b.ops)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn small_file_sessions_are_three_ops_and_read_back_what_was_written() {
        let w = Workload::by_name("smallfile").unwrap();
        let content = Content::new(3, SMALL_FILE);
        let mut g = ClientGen::new(w, 0, 3);
        let wr = g.write_script(&content, 5);
        assert_eq!(kinds(&wr)[..3], ["create", "write", "close"]);
        assert_eq!(wr.len(), 15);
        assert_eq!(wr.user_bytes, 5 * SMALL_FILE as u64);
        let rd = g.read_script(&content, 9);
        assert_eq!(kinds(&rd)[..3], ["open", "read", "close"]);
        for (op, ex) in rd.ops.iter().zip(&rd.expect) {
            if let (ClientOp::Read { len, .. }, Expect::Data(d)) = (op, ex) {
                assert_eq!(*len as usize, d.len());
                assert!(g.files.iter().any(|f| content.of(f.id, f.len) == *d));
            }
        }
    }

    #[test]
    fn two_files_differ_and_two_clients_never_share_a_name() {
        let content = Content::new(1, SMALL_FILE);
        assert_ne!(content.of(1, SMALL_FILE), content.of(2, SMALL_FILE));
        let w = Workload::by_name("smallfile").unwrap();
        let mut a = ClientGen::new(w, 0, 1);
        let mut b = ClientGen::new(w, 1, 1);
        a.write_script(&content, 50);
        b.write_script(&content, 50);
        assert!(a
            .files
            .iter()
            .all(|f| b.files.iter().all(|g| g.path != f.path)));
    }

    #[test]
    fn the_metadata_mix_tracks_renames_and_list_counts() {
        let w = Workload::by_name("metadata").unwrap();
        let content = Content::new(5, 64);
        let mut g = ClientGen::new(w, 0, 5);
        let wr = g.write_script(&content, 40);
        // 40 files at 16 per dir: the subtree root plus 3 dirs.
        assert_eq!(kinds(&wr).iter().filter(|k| **k == "mkdir").count(), 4);
        let mix = g.read_script(&content, 2000);
        let share = |k: &str| kinds(&mix).iter().filter(|x| **x == k).count() as f64 / 2000.0;
        assert!((share("stat") - 0.75).abs() < 0.05, "{}", share("stat"));
        assert!((share("rename") - 0.05).abs() < 0.02);
        // Replay the script against a plain model: every stat names a
        // path that exists at that point, every list count is right.
        let mut live: std::collections::HashSet<String> = wr
            .ops
            .iter()
            .filter_map(|o| match o {
                ClientOp::Create { path } => Some(path.clone()),
                _ => None,
            })
            .collect();
        for (op, ex) in mix.ops.iter().zip(&mix.expect) {
            match (op, ex) {
                (ClientOp::Stat { path }, Expect::Size(_)) => assert!(live.contains(path)),
                (ClientOp::Rename { src, dst }, _) => {
                    assert!(live.remove(src));
                    assert!(live.insert(dst.clone()));
                }
                (ClientOp::List { path }, Expect::Count(n)) => {
                    let prefix = format!("{path}/");
                    assert_eq!(
                        live.iter().filter(|p| p.starts_with(&prefix)).count() as u64,
                        *n
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn bulk_phases_stay_under_the_memory_cap_and_probes_fit_them() {
        for w in &WORKLOADS {
            for phase in [PhaseKind::Write, PhaseKind::Read] {
                let (probe, max) = (w.probe_sessions(phase), w.max_sessions(phase));
                assert!(probe >= 1 && max >= 8 * probe, "{} {phase:?}", w.name);
            }
            let stored =
                w.max_sessions(PhaseKind::Write) as f64 * w.file_len() as f64 * w.ideal_space_amp();
            let held = w.max_sessions(PhaseKind::Read) as f64 * w.read_len() as f64;
            assert!(stored.max(held) <= (1536u64 << 20) as f64, "{}", w.name);
        }
        let r3 = Workload::by_name("stream_r3").unwrap();
        assert_eq!(r3.probe_sessions(PhaseKind::Write), 1);
        assert_eq!(r3.probe_sessions(PhaseKind::Read), 8);
        assert!(r3.read_len() < r3.file_len());
    }
}
