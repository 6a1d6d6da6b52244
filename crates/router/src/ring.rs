//! Consistent hashing: a vnode ring over shard addresses.
//!
//! The router's unit of placement is the **schedule key** — the exact
//! [`drift_core::schedule::ScheduleKey`] a job's execution will look up
//! ([`drift_serve::worker::schedule_key_for`]). Hashing that key onto a
//! ring of virtual nodes gives the two properties the front tier needs:
//!
//! * **disjoint locality** — every distinct schedule key maps to
//!   exactly one shard, so per-shard cache key sets never overlap and
//!   each backend's LRU holds only its own slice of the keyspace;
//! * **minimal movement** — adding or removing a shard remaps only the
//!   ring arcs adjacent to its vnodes, about `1/N` of the keyspace,
//!   instead of reshuffling everything the way `hash % N` would.
//!
//! Hashes are FNV-1a, written out by hand so placement is stable across
//! builds and processes (the std `DefaultHasher` is explicitly
//! randomised and version-dependent).

use drift_accel::systolic::ArrayGeometry;
use drift_core::schedule::ScheduleKey;
use drift_serve::job::{JobKind, JobSpec};
use drift_serve::worker::schedule_key_for;
use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hasher, usable both directly and as a
/// [`std::hash::Hasher`] (so `#[derive(Hash)]` types like
/// `ScheduleKey` can feed it).
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl FnvHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher::new()
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// A 64-bit avalanche finalizer (the splitmix64 mixer). FNV-1a alone
/// avalanches poorly into the high bits on short inputs, and ring
/// placement orders by the full 64-bit value — without this, vnode
/// points cluster and the ring's arcs (hence shard load) skew badly.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Finalized FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::new();
    h.write(bytes);
    mix64(h.finish())
}

/// The 64-bit routing key for `spec` on `fabric`.
///
/// Jobs that schedule (Schedule, Simulate) hash their exact
/// [`ScheduleKey`], so two jobs agree on a routing key exactly when
/// they would share a cache entry.
/// Select jobs have no schedule; they hash their own parameters, which
/// at least keeps repeats of one selection sweep on one shard. Jobs
/// with invalid shapes (execution will answer a job-level error) fall
/// back to hashing the raw shape fields — any deterministic placement
/// is fine for work that never touches the cache.
pub fn route_key(spec: &JobSpec, fabric: ArrayGeometry) -> u64 {
    route_hash(spec, schedule_key_for(spec, fabric).as_ref())
}

/// [`route_key`] with `spec`'s schedule key already derived, for
/// callers that also need the key itself.
pub(crate) fn route_hash(spec: &JobSpec, key: Option<&ScheduleKey>) -> u64 {
    let mut h = FnvHasher::new();
    if let Some(key) = key {
        h.write_u8(1);
        key.hash(&mut h);
        return mix64(h.finish());
    }
    match &spec.kind {
        JobKind::Select {
            tokens,
            hidden,
            delta,
            profile,
        } => {
            h.write_u8(2);
            h.write_usize(*tokens);
            h.write_usize(*hidden);
            h.write_u64(delta.to_bits());
            h.write(profile.as_bytes());
        }
        JobKind::Schedule { m, k, n, fa, fw } | JobKind::Simulate { m, k, n, fa, fw } => {
            h.write_u8(3);
            h.write_usize(*m);
            h.write_usize(*k);
            h.write_usize(*n);
            h.write_u64(fa.to_bits());
            h.write_u64(fw.to_bits());
        }
    }
    mix64(h.finish())
}

/// A consistent-hash ring: each shard owns `vnodes` points on the
/// 64-bit circle, and a key belongs to the shard owning the first point
/// clockwise from the key's hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    shards: Vec<String>,
    vnodes: usize,
    /// `(point, shard index)` sorted by point.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds the ring. `vnodes` is clamped to at least 1; shard order
    /// is preserved (indices into [`HashRing::shards`] are the router's
    /// stable shard handles between reshards).
    pub fn new(shards: &[String], vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards.len() * vnodes);
        for (index, addr) in shards.iter().enumerate() {
            for v in 0..vnodes {
                points.push((fnv1a(format!("{addr}#{v}").as_bytes()), index));
            }
        }
        points.sort_unstable();
        HashRing {
            shards: shards.to_vec(),
            vnodes,
            points,
        }
    }

    /// The shard addresses, index-aligned with routing results.
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The index of the shard owning `key` (health ignored), or `None`
    /// for an empty ring.
    pub fn primary(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let at = self.points.partition_point(|&(p, _)| p < key) % self.points.len();
        Some(self.points[at].1)
    }

    /// All distinct shard indices in preference order for `key`: the
    /// owner first, then each further shard in the order its first
    /// vnode appears walking clockwise. Failover tries these in order,
    /// so every key has a deterministic successor chain.
    pub fn owners(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.shards.len());
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|&(p, _)| p < key);
        for step in 0..self.points.len() {
            let shard = self.points[(start + step) % self.points.len()].1;
            if !order.contains(&shard) {
                order.push(shard);
                if order.len() == self.shards.len() {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7077")).collect()
    }

    #[test]
    fn ring_is_deterministic_and_covers_every_shard() {
        let ring = HashRing::new(&addrs(4), 64);
        let again = HashRing::new(&addrs(4), 64);
        assert_eq!(ring, again);
        let mut hit = [false; 4];
        for key in 0..10_000u64 {
            hit[ring.primary(fnv1a(&key.to_le_bytes())).unwrap()] = true;
        }
        assert_eq!(hit, [true; 4]);
    }

    #[test]
    fn keys_spread_roughly_evenly() {
        let ring = HashRing::new(&addrs(4), 64);
        let mut counts = [0usize; 4];
        let keys = 40_000u64;
        for key in 0..keys {
            counts[ring.primary(fnv1a(&key.to_le_bytes())).unwrap()] += 1;
        }
        // With 64 vnodes per shard the arc-length variance is modest;
        // every shard should land within 2x of the fair share.
        for &c in &counts {
            assert!(c > keys as usize / 8, "imbalanced ring: {counts:?}");
            assert!(c < keys as usize / 2, "imbalanced ring: {counts:?}");
        }
    }

    #[test]
    fn adding_a_shard_moves_about_one_nth_of_the_keyspace() {
        let before = HashRing::new(&addrs(4), 64);
        let after = HashRing::new(&addrs(5), 64);
        let keys = 20_000u64;
        let moved = (0..keys)
            .filter(|key| {
                let k = fnv1a(&key.to_le_bytes());
                let old = &before.shards()[before.primary(k).unwrap()];
                let new = &after.shards()[after.primary(k).unwrap()];
                old != new
            })
            .count();
        let fraction = moved as f64 / keys as f64;
        // Ideal is 1/5; consistent hashing should stay well under the
        // ~4/5 a modulo rehash would move.
        assert!(
            (0.05..0.45).contains(&fraction),
            "moved fraction {fraction:.3} out of range"
        );
        // Keys that moved all moved TO the new shard, never between
        // surviving shards.
        for key in 0..keys {
            let k = fnv1a(&key.to_le_bytes());
            let old = &before.shards()[before.primary(k).unwrap()];
            let new = &after.shards()[after.primary(k).unwrap()];
            if old != new {
                assert_eq!(new, &after.shards()[4]);
            }
        }
    }

    #[test]
    fn owners_lists_every_shard_once_starting_with_the_primary() {
        let ring = HashRing::new(&addrs(4), 16);
        for key in 0..500u64 {
            let k = fnv1a(&key.to_le_bytes());
            let owners = ring.owners(k);
            assert_eq!(owners.len(), 4);
            assert_eq!(owners[0], ring.primary(k).unwrap());
            let mut sorted = owners.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn route_key_matches_the_schedule_cache_equivalence() {
        use drift_core::arch::paper_fabric;
        let fabric = paper_fabric();
        // Same schedule-cache entry (fa truncates to the same prefix
        // count), same routing key — and ids never matter.
        let a = JobSpec {
            id: 1,
            seed: 9,
            kind: JobKind::Schedule {
                m: 64,
                k: 128,
                n: 64,
                fa: 0.250,
                fw: 0.5,
            },
        };
        let b = JobSpec {
            id: 2,
            seed: 3,
            kind: JobKind::Schedule {
                m: 64,
                k: 128,
                n: 64,
                fa: 0.251,
                fw: 0.5,
            },
        };
        assert_eq!(route_key(&a, fabric), route_key(&b, fabric));
        let c = JobSpec {
            id: 1,
            seed: 9,
            kind: JobKind::Schedule {
                m: 64,
                k: 128,
                n: 64,
                fa: 0.5,
                fw: 0.5,
            },
        };
        assert_ne!(route_key(&a, fabric), route_key(&c, fabric));
        // Invalid shapes still route deterministically.
        let bad = JobSpec {
            id: 0,
            seed: 0,
            kind: JobKind::Simulate {
                m: 0,
                k: 16,
                n: 16,
                fa: 0.5,
                fw: 0.5,
            },
        };
        assert_eq!(route_key(&bad, fabric), route_key(&bad, fabric));
    }
}
