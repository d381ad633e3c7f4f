//! Namespace sharding: the deterministic path → shard partition
//! function and the shard map that names each shard's servers.
//!
//! The partition key is the **parent directory** of a path, so every
//! entry of one directory — and therefore `ls`, create-in-dir, and the
//! §3.5 optimistic commit check — lands on a single shard. Cross-shard
//! work only arises for the *directory entries themselves*: the entry
//! for directory `p` lives with its siblings on `shard_of_dir(parent(p))`,
//! while `p`'s children live on `shard_of_dir(p)`; a small two-shard
//! handshake (see `namespace.rs`) keeps a directory *stub* on the
//! children's shard so parent-existence checks stay local.
//!
//! The hash is **rendezvous (highest-random-weight)**: every directory
//! scores each shard index and routes to the argmax. Growing the shard
//! count from `n` to `n+1` therefore only moves the directories whose
//! new shard wins the score — an expected `1/(n+1)` of the keyspace —
//! instead of the `n/(n+1)` a modulo partition would reshuffle. The
//! property test below measures the movement ratio and pins it.
//!
//! Everything here is pure arithmetic on the path string: clients,
//! namespace servers and the control plane all compute identical
//! routes with no coordination, exactly like the consistent-hashing
//! home-host ring of §3.4.

use sorrento_sim::NodeId;

use crate::ring::hrw;

/// The directory whose shard owns `path`'s namespace entry: the parent
/// directory, or `"/"` for the root itself (the root entry is
/// pre-created on every shard, so its nominal owner never matters).
pub fn owner_dir(path: &str) -> &str {
    if path == "/" {
        return "/";
    }
    match path.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

/// FNV-1a over the directory string — a stable, platform-independent
/// base hash for the rendezvous scores.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rendezvous-hash a directory onto one of `nshards` shards (each
/// shard's salt is its index).
pub fn shard_of_dir(dir: &str, nshards: u32) -> u32 {
    hrw(fnv1a(dir), (0..nshards).map(|k| (u64::from(k), k))).unwrap_or(0)
}

/// The shard owning `path`'s namespace entry: the shard of its parent
/// directory.
pub fn shard_of_path(path: &str, nshards: u32) -> u32 {
    shard_of_dir(owner_dir(path), nshards)
}

/// One shard's servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// The shard's primary namespace server.
    pub primary: NodeId,
    /// Its hot standby, if one is deployed.
    pub standby: Option<NodeId>,
}

/// The volume's namespace shard map: shard index → servers. Shard
/// count 1 with no standby is the unsharded classic deployment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NsShardMap {
    shards: Vec<ShardInfo>,
}

impl NsShardMap {
    /// A map with the given primaries and no standbys.
    pub fn new(primaries: Vec<NodeId>) -> NsShardMap {
        NsShardMap {
            shards: primaries.into_iter().map(|p| ShardInfo { primary: p, standby: None }).collect(),
        }
    }

    /// A map built from explicit per-shard rows.
    pub fn from_rows(rows: Vec<ShardInfo>) -> NsShardMap {
        NsShardMap { shards: rows }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no shards are configured.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Attach a standby to shard `k`.
    pub fn set_standby(&mut self, k: usize, standby: NodeId) {
        self.shards[k].standby = Some(standby);
    }

    /// Replace shard `k`'s primary (a promoted standby installs itself).
    pub fn set_primary(&mut self, k: usize, primary: NodeId) {
        self.shards[k].primary = primary;
        if self.shards[k].standby == Some(primary) {
            self.shards[k].standby = None;
        }
    }

    /// The row for shard `k`.
    pub fn get(&self, k: usize) -> Option<&ShardInfo> {
        self.shards.get(k)
    }

    /// Iterate over `(shard index, row)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &ShardInfo)> {
        self.shards.iter().enumerate().map(|(i, s)| (i as u32, s))
    }

    /// The shard index owning `path`'s entry.
    pub fn shard_for(&self, path: &str) -> u32 {
        shard_of_path(path, self.shards.len() as u32)
    }

    /// The primary serving `path`.
    pub fn primary_for(&self, path: &str) -> Option<NodeId> {
        self.shards.get(self.shard_for(path) as usize).map(|s| s.primary)
    }

    /// All primaries, in shard order.
    pub fn primaries(&self) -> Vec<NodeId> {
        self.shards.iter().map(|s| s.primary).collect()
    }

    /// True when `id` serves any shard (primary or standby).
    pub fn contains(&self, id: NodeId) -> bool {
        self.shards.iter().any(|s| s.primary == id || s.standby == Some(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn owner_dir_is_the_parent() {
        assert_eq!(owner_dir("/"), "/");
        assert_eq!(owner_dir("/a"), "/");
        assert_eq!(owner_dir("/a/b"), "/a");
        assert_eq!(owner_dir("/a/b/c.dat"), "/a/b");
    }

    #[test]
    fn one_shard_routes_everything_to_zero() {
        for p in ["/", "/a", "/deep/ly/nested/file"] {
            assert_eq!(shard_of_path(p, 1), 0);
            assert_eq!(shard_of_path(p, 0), 0);
        }
    }

    #[test]
    fn spread_is_roughly_uniform() {
        // 4 shards over 4096 directories: no shard may be starved or
        // hoard the keyspace (loose 2x bounds around the mean).
        let mut counts = [0u32; 4];
        for i in 0..4096 {
            counts[shard_of_dir(&format!("/dir{i}"), 4) as usize] += 1;
        }
        for &c in &counts {
            assert!((512..=2048).contains(&c), "skewed spread: {counts:?}");
        }
    }

    /// 50,000 directory routes, folded into one digest computed by the
    /// commit that still had a private `mix` and argmax loop here, before
    /// the partition shared `ring::hrw`.
    #[test]
    fn directory_routes_are_pinned() {
        let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for nshards in [2u32, 3, 4, 8, 16] {
            for i in 0..10_000 {
                h = fold(h, u64::from(shard_of_dir(&format!("/dir{i}/sub{}", i % 7), nshards)));
            }
        }
        assert_eq!(h, 0x0700_9a64_3ae1_7734, "a directory changed shard");
    }

    #[test]
    fn map_routes_to_rows() {
        let mut map = NsShardMap::new(vec![NodeId::from_index(0), NodeId::from_index(1)]);
        map.set_standby(0, NodeId::from_index(9));
        assert_eq!(map.len(), 2);
        let k = map.shard_for("/a/b") as usize;
        assert_eq!(map.primary_for("/a/b"), Some(map.get(k).unwrap().primary));
        assert!(map.contains(NodeId::from_index(9)));
        assert!(!map.contains(NodeId::from_index(7)));
    }

    fn arb_path() -> impl Strategy<Value = String> {
        // 1–4 components drawn from a small alphabet: exercises
        // root-level entries, nesting, and sibling collisions.
        prop::collection::vec(0u32..32, 1usize..=4).prop_map(|cs| {
            let parts: Vec<String> = cs.iter().map(|c| format!("c{c}")).collect();
            format!("/{}", parts.join("/"))
        })
    }

    proptest! {
        /// Satellite: every path routes to exactly one in-range shard,
        /// deterministically.
        #[test]
        fn routes_to_exactly_one_shard(path in arb_path(), n in 1u32..=16) {
            let s = shard_of_path(&path, n);
            prop_assert!(s < n);
            prop_assert_eq!(s, shard_of_path(&path, n));
        }

        /// Satellite: all entries of one directory colocate — a file's
        /// shard equals its sibling's and equals the shard that holds
        /// the directory's child-set.
        #[test]
        fn parent_directory_colocation(path in arb_path(), n in 1u32..=16) {
            let dir = owner_dir(&path).to_string();
            let sibling = format!("{}/sibling", if dir == "/" { "" } else { dir.as_str() });
            prop_assert_eq!(shard_of_path(&path, n), shard_of_path(&sibling, n));
            prop_assert_eq!(shard_of_path(&path, n), shard_of_dir(&dir, n));
        }

        /// Satellite: the map is stable under shard-count growth.
        /// Rendezvous hashing moves an expected 1/(n+1) of directories
        /// when a shard is added; assert the measured movement ratio
        /// stays under 2/(n+1) — far below the (n)/(n+1) a modulo
        /// partition would reshuffle.
        #[test]
        fn growth_moves_a_bounded_fraction(seed in any::<u64>(), n in 1u32..=8) {
            let dirs: Vec<String> = (0..2048).map(|i| format!("/d{}", i ^ seed)).collect();
            let moved = dirs
                .iter()
                .filter(|d| shard_of_dir(d, n) != shard_of_dir(d, n + 1))
                .count();
            let ratio = moved as f64 / dirs.len() as f64;
            prop_assert!(
                ratio <= 2.0 / f64::from(n + 1),
                "movement ratio {ratio:.3} exceeds 2/(n+1) at n={n}"
            );
            // Every key that moved, moved onto the new shard: growth
            // never shuffles keys between the old shards.
            for d in &dirs {
                let (old, new) = (shard_of_dir(d, n), shard_of_dir(d, n + 1));
                prop_assert!(old == new || new == n);
            }
        }
    }
}
