//! The set-associative cache model.

use mee_types::{LineAddr, ModelError};

use crate::policy::{Policy, ReplacementPolicy};
use crate::stats::CacheStats;

/// Geometry of a set-associative cache.
///
/// ```
/// use mee_cache::CacheConfig;
///
/// # fn main() -> Result<(), mee_types::ModelError> {
/// let mee = CacheConfig::from_capacity(64 * 1024, 8, 64)?;
/// assert_eq!((mee.sets, mee.ways), (128, 8));
/// assert_eq!(mee.capacity_bytes(), 64 * 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Number of ways per set.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_size: usize,
}

impl CacheConfig {
    /// Builds a config from total capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if the capacity is not evenly
    /// divisible into power-of-two sets of `ways` lines, or any parameter
    /// is zero.
    pub fn from_capacity(
        capacity_bytes: usize,
        ways: usize,
        line_size: usize,
    ) -> Result<Self, ModelError> {
        let fail = |reason: String| Err(ModelError::InvalidConfig { reason });
        if ways == 0 || line_size == 0 || capacity_bytes == 0 {
            return fail("cache parameters must be non-zero".into());
        }
        if !line_size.is_power_of_two() {
            return fail(format!("line size {line_size} is not a power of two"));
        }
        let lines = capacity_bytes / line_size;
        if lines * line_size != capacity_bytes {
            return fail(format!(
                "capacity {capacity_bytes} is not a multiple of line size {line_size}"
            ));
        }
        let sets = lines / ways;
        if sets * ways != lines {
            return fail(format!("{lines} lines do not divide into {ways} ways"));
        }
        if !sets.is_power_of_two() {
            return fail(format!("set count {sets} is not a power of two"));
        }
        Ok(CacheConfig {
            sets,
            ways,
            line_size,
        })
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_size
    }
}

/// Outcome of one [`SetAssocCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was already resident.
    pub hit: bool,
    /// The line evicted to make room, when the fill displaced one.
    pub evicted: Option<LineAddr>,
    /// The set the line maps to.
    pub set: usize,
}

/// A physically indexed, physically tagged set-associative cache.
///
/// Stores tags only — the simulator models *where data is*, not the data
/// itself (the functional memory contents live in `mee-mem`/`mee-tree`).
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// `tags[set * cfg.ways + way]`: the resident line encoded as
    /// `raw + 1`, or [`EMPTY`] (`0`) for an empty way. A flat array of
    /// plain words keeps the way scan — the single hottest loop in the
    /// simulator — branchless and vectorizable, and a fresh cache is one
    /// zeroed allocation.
    tags: Vec<u64>,
    policy: Policy,
    stats: CacheStats,
    /// Resident-line count, so empty-cache invalidation sweeps are O(1).
    resident: usize,
    /// Scratch "allowed ways" mask reused across calls.
    allowed: Vec<bool>,
    /// `sets - 1` when the set count is a power of two (the standard
    /// geometry), so [`Self::set_of`] is an AND instead of a hardware
    /// divide — it runs several times per simulated memory op. `None`
    /// falls back to the modulo for exotic hand-built geometries.
    set_mask: Option<u64>,
}

/// Tag encoding of "no line".
const EMPTY: u64 = 0;

/// Encodes a line for tag storage (`raw + 1`, so zero means empty).
#[inline]
fn encode(line: LineAddr) -> u64 {
    line.raw() + 1
}

/// Decodes a non-[`EMPTY`] tag back to its line.
#[inline]
fn decode(tag: u64) -> LineAddr {
    debug_assert_ne!(tag, EMPTY);
    LineAddr::new(tag - 1)
}

impl std::fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("cfg", &self.cfg)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry and policy.
    ///
    /// Accepts a concrete policy by value or a [`Policy`]; either way the
    /// policy callbacks are statically dispatched.
    pub fn new(cfg: CacheConfig, policy: impl Into<Policy>) -> Self {
        let mut policy = policy.into();
        policy.attach(cfg.sets, cfg.ways);
        SetAssocCache {
            tags: vec![EMPTY; cfg.sets * cfg.ways],
            allowed: vec![true; cfg.ways],
            set_mask: cfg
                .sets
                .is_power_of_two()
                .then(|| cfg.sets as u64 - 1),
            cfg,
            policy,
            stats: CacheStats::new(),
            resident: 0,
        }
    }

    /// Returns the cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Returns the set index `line` maps to.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> usize {
        match self.set_mask {
            Some(mask) => (line.raw() & mask) as usize,
            None => line.set_index(self.cfg.sets),
        }
    }

    /// Accesses `line`: on a miss the line is filled, possibly evicting a
    /// victim chosen by the replacement policy.
    ///
    /// Equivalent to [`Self::access_in_ways`] with an all-`true` mask, but
    /// allocation-free: this is the path every simulated memory op takes.
    pub fn access(&mut self, line: LineAddr) -> AccessResult {
        let set = self.set_of(line);
        let base = set * self.cfg.ways;
        let tag = encode(line);
        let ways = &self.tags[base..base + self.cfg.ways];

        // One pass finds the hit way and, failing that, the first empty
        // way — the separate empty scan would re-walk the same tags.
        let mut empty = None;
        let mut hit = None;
        for (w, &t) in ways.iter().enumerate() {
            if t == tag {
                hit = Some(w);
                break;
            }
            if t == EMPTY && empty.is_none() {
                empty = Some(w);
            }
        }
        if let Some(way) = hit {
            self.policy.on_hit(set, way);
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                evicted: None,
                set,
            };
        }

        self.stats.misses += 1;
        let (way, evicted) = match empty {
            Some(w) => {
                self.resident += 1;
                (w, None)
            }
            None => {
                // No empty way means every way is occupied, so the victim
                // mask is all-true — take the policy's mask-free path.
                let w = self.policy.victim_all(set, self.cfg.ways);
                self.stats.evictions += 1;
                (w, Some(decode(self.tags[base + w])))
            }
        };
        self.tags[base + way] = tag;
        self.policy.on_fill(set, way);
        AccessResult {
            hit: false,
            evicted,
            set,
        }
    }

    /// Accesses `line`, but restricts fills (and victim selection) to the
    /// ways marked `true` in `way_mask` — the primitive behind way
    /// partitioning (§5.5 mitigation experiments).
    ///
    /// A *hit* in a disallowed way still counts as a hit: partitioning
    /// controls insertion, not lookup.
    ///
    /// # Panics
    ///
    /// Panics if `way_mask.len() != ways` or no way is allowed.
    pub fn access_in_ways(&mut self, line: LineAddr, way_mask: &[bool]) -> AccessResult {
        assert_eq!(way_mask.len(), self.cfg.ways, "way mask length mismatch");
        assert!(way_mask.iter().any(|&b| b), "way mask allows no ways");
        let set = self.set_of(line);
        let base = set * self.cfg.ways;
        let tag = encode(line);

        // Hit path.
        if let Some(way) = self.find_way(set, line) {
            self.policy.on_hit(set, way);
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                evicted: None,
                set,
            };
        }

        // Miss path: prefer an empty allowed way.
        self.stats.misses += 1;
        let empty =
            (0..self.cfg.ways).find(|&w| way_mask[w] && self.tags[base + w] == EMPTY);
        let (way, evicted) = match empty {
            Some(w) => (w, None),
            None => {
                self.allowed.copy_from_slice(way_mask);
                // Only occupied ways can be victims; merge with the mask.
                for w in 0..self.cfg.ways {
                    self.allowed[w] &= self.tags[base + w] != EMPTY;
                }
                if !self.allowed.iter().any(|&b| b) {
                    // All allowed ways are empty? Impossible here (handled
                    // above), but all *occupied* ways may be disallowed:
                    // evict within the mask regardless.
                    self.allowed.copy_from_slice(way_mask);
                }
                let allowed = std::mem::take(&mut self.allowed);
                let w = self.policy.victim(set, &allowed);
                self.allowed = allowed;
                let old = self.tags[base + w];
                self.tags[base + w] = EMPTY;
                if old != EMPTY {
                    self.stats.evictions += 1;
                    self.resident -= 1;
                }
                (w, (old != EMPTY).then(|| decode(old)))
            }
        };
        if self.tags[base + way] == EMPTY {
            self.resident += 1;
        }
        self.tags[base + way] = tag;
        self.policy.on_fill(set, way);
        AccessResult {
            hit: false,
            evicted,
            set,
        }
    }

    /// Non-destructive residence check (no policy or stats update).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_way(self.set_of(line), line).is_some()
    }

    /// Invalidates `line` if resident; returns whether it was.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        if self.resident == 0 {
            // Nothing cached (idle cores' private caches during a clflush
            // broadcast): skip the way scan entirely.
            return false;
        }
        let set = self.set_of(line);
        if let Some(way) = self.find_way(set, line) {
            self.tags[set * self.cfg.ways + way] = EMPTY;
            self.resident -= 1;
            self.policy.on_invalidate(set, way);
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Empties the whole cache, keeping statistics.
    pub fn invalidate_all(&mut self) {
        self.tags.fill(EMPTY);
        self.resident = 0;
        // Re-attach to reset policy metadata.
        self.policy.attach(self.cfg.sets, self.cfg.ways);
    }

    /// Invalidates every resident line of one set (a co-runner thrashing
    /// exactly that set); returns how many lines were dropped.
    ///
    /// # Panics
    ///
    /// Panics if `set >= sets`.
    pub fn invalidate_set(&mut self, set: usize) -> usize {
        assert!(set < self.cfg.sets, "set {set} out of range");
        let base = set * self.cfg.ways;
        let mut dropped = 0;
        for way in 0..self.cfg.ways {
            if self.tags[base + way] != EMPTY {
                self.tags[base + way] = EMPTY;
                self.policy.on_invalidate(set, way);
                self.stats.invalidations += 1;
                dropped += 1;
            }
        }
        self.resident -= dropped;
        dropped
    }

    /// Invalidates a contiguous run of `count` lines starting at `first` —
    /// the back-invalidation broadcast of a page-granular event (EPC
    /// eviction, migration) coalesced into one pass over the flat tag
    /// array instead of `count` separate calls. Per-line effects (policy
    /// `on_invalidate` calls, statistics) are identical, in identical
    /// ascending-line order, to calling [`Self::invalidate`] once per
    /// line; only the host cost changes. Returns how many lines were
    /// dropped.
    #[must_use = "the dropped-line count distinguishes a no-op broadcast from real work"]
    pub fn invalidate_range(&mut self, first: LineAddr, count: u64) -> usize {
        if self.resident == 0 {
            // Nothing cached (idle cores' private caches during a page
            // broadcast): skip the whole pass.
            return 0;
        }
        let sets = self.cfg.sets;
        let ways = self.cfg.ways;
        let first_set = self.set_of(first);
        if (count as usize) <= sets && first_set + count as usize <= sets {
            // The run maps to `count` consecutive distinct sets (always
            // true for a page-aligned 64-line run once `sets >= 64`, i.e.
            // every on-chip cache of the default machine): one linear
            // pass over the contiguous tag window, at most one match per
            // set, stopping early once the cache drains.
            let mut dropped = 0;
            for i in 0..count as usize {
                let set = first_set + i;
                let tag = encode(LineAddr::new(first.raw() + i as u64));
                let base = set * ways;
                if let Some(way) = self.tags[base..base + ways].iter().position(|&t| t == tag) {
                    self.tags[base + way] = EMPTY;
                    self.resident -= 1;
                    self.policy.on_invalidate(set, way);
                    self.stats.invalidations += 1;
                    dropped += 1;
                    if self.resident == 0 {
                        break;
                    }
                }
            }
            dropped
        } else {
            // A run longer than the set count (or crossing the set-index
            // wrap) can alias several lines into one set: fall back to
            // per-line invalidation, which handles aliasing exactly.
            (0..count)
                .filter(|&i| self.invalidate(LineAddr::new(first.raw() + i)))
                .count()
        }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.resident
    }

    /// Number of resident lines in one set.
    ///
    /// # Panics
    ///
    /// Panics if `set >= sets`.
    pub fn set_occupancy(&self, set: usize) -> usize {
        assert!(set < self.cfg.sets, "set {set} out of range");
        let base = set * self.cfg.ways;
        self.tags[base..base + self.cfg.ways]
            .iter()
            .filter(|&&t| t != EMPTY)
            .count()
    }

    /// Iterates over all resident lines.
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.tags
            .iter()
            .filter(|&&t| t != EMPTY)
            .map(|&t| decode(t))
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    #[inline]
    fn find_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        let base = set * self.cfg.ways;
        let tag = encode(line);
        self.tags[base..base + self.cfg.ways]
            .iter()
            .position(|&t| t == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{TreePlru, TrueLru};
    use mee_rng::prop::{check, pick, vec_of, PropConfig};

    fn small_lru() -> SetAssocCache {
        let cfg = CacheConfig::from_capacity(4 * 64, 2, 64).unwrap(); // 2 sets x 2 ways
        SetAssocCache::new(cfg, TrueLru::new())
    }

    #[test]
    fn config_from_capacity() {
        let cfg = CacheConfig::from_capacity(64 * 1024, 8, 64).unwrap();
        assert_eq!(cfg.sets, 128);
        assert_eq!(cfg.capacity_bytes(), 64 * 1024);
    }

    #[test]
    fn config_rejects_bad_shapes() {
        assert!(CacheConfig::from_capacity(0, 8, 64).is_err());
        assert!(CacheConfig::from_capacity(64 * 1024, 0, 64).is_err());
        assert!(CacheConfig::from_capacity(64 * 1024, 8, 0).is_err());
        assert!(CacheConfig::from_capacity(64 * 1024, 8, 96).is_err());
        assert!(CacheConfig::from_capacity(100, 1, 64).is_err());
        // 3 sets: not a power of two.
        assert!(CacheConfig::from_capacity(3 * 2 * 64, 2, 64).is_err());
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_lru();
        let line = LineAddr::new(0);
        let first = c.access(line);
        assert!(!first.hit);
        assert_eq!(first.evicted, None);
        assert!(c.access(line).hit);
        assert!(c.contains(line));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflict_eviction_in_lru_order() {
        let mut c = small_lru(); // 2 sets
        // Lines 0, 2, 4 all map to set 0.
        let l0 = LineAddr::new(0);
        let l2 = LineAddr::new(2);
        let l4 = LineAddr::new(4);
        c.access(l0);
        c.access(l2);
        let r = c.access(l4);
        assert_eq!(r.evicted, Some(l0));
        assert!(!c.contains(l0));
        assert!(c.contains(l2));
        assert!(c.contains(l4));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_set_empties_only_that_set() {
        let mut c = small_lru();
        c.access(LineAddr::new(0)); // set 0
        c.access(LineAddr::new(2)); // set 0
        c.access(LineAddr::new(1)); // set 1
        assert_eq!(c.invalidate_set(0), 2);
        assert_eq!(c.set_occupancy(0), 0);
        assert_eq!(c.set_occupancy(1), 1);
        assert!(c.contains(LineAddr::new(1)));
        assert_eq!(c.stats().invalidations, 2);
        // Idempotent on an already-empty set.
        assert_eq!(c.invalidate_set(0), 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small_lru();
        c.access(LineAddr::new(0)); // set 0
        c.access(LineAddr::new(1)); // set 1
        c.access(LineAddr::new(2)); // set 0
        c.access(LineAddr::new(3)); // set 1
        assert_eq!(c.occupancy(), 4);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.set_occupancy(0), 2);
        assert_eq!(c.set_occupancy(1), 2);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_lru();
        let line = LineAddr::new(6);
        c.access(line);
        assert!(c.invalidate(line));
        assert!(!c.contains(line));
        assert!(!c.invalidate(line));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = small_lru();
        for i in 0..4 {
            c.access(LineAddr::new(i));
        }
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.resident_lines().count(), 0);
    }

    #[test]
    fn contains_does_not_perturb_state() {
        let mut c = small_lru();
        let l0 = LineAddr::new(0);
        let l2 = LineAddr::new(2);
        c.access(l0);
        c.access(l2);
        let before = c.stats();
        // Probing l0 must NOT refresh it in LRU order.
        assert!(c.contains(l0));
        assert_eq!(c.stats(), before);
        let r = c.access(LineAddr::new(4));
        assert_eq!(r.evicted, Some(l0), "contains() perturbed LRU state");
    }

    /// Pinned spec-harness counterexample (invariant
    /// `invalidated-way-preferred`, exact op trace): invalidating a line
    /// must update the PLRU tree so the freed way is the preferred victim.
    /// With the pre-fix no-op `TreePlru::on_invalidate`, the masked fill
    /// below evicted D (the stale tree still pointed at way 2) instead of
    /// falling back from the freed-but-disallowed way 1 to way 0.
    #[test]
    fn invalidate_updates_plru_victim_state() {
        let cfg = CacheConfig::from_capacity(4 * 64, 4, 64).unwrap(); // 1 set x 4 ways
        let mut c = SetAssocCache::new(cfg, TreePlru::new());
        let (a, b, d, e) = (
            LineAddr::new(0),
            LineAddr::new(1),
            LineAddr::new(2),
            LineAddr::new(3),
        );
        c.access(a); // way 0
        c.access(b); // way 1
        c.access(d); // way 2
        c.access(e); // way 3
        c.access(a); // hit: tree points away from way 0
        c.access(b); // hit: tree points away from way 1 (victim would be way 2)
        assert!(c.invalidate(b)); // frees way 1; tree must now point AT way 1
        // Way-partitioned fill that may not use the freed way: the policy
        // falls back from way 1 to the first allowed way (0), evicting A.
        let mask = [true, false, true, true];
        let r = c.access_in_ways(LineAddr::new(4), &mask);
        assert_eq!(
            r.evicted,
            Some(a),
            "stale PLRU bits survived on_invalidate"
        );
    }

    #[test]
    fn way_mask_restricts_fills() {
        let cfg = CacheConfig::from_capacity(8 * 64, 8, 64).unwrap(); // 1 set x 8 ways
        let mut c = SetAssocCache::new(cfg, TrueLru::new());
        let mask: Vec<bool> = (0..8).map(|w| w < 2).collect(); // only ways 0-1
        for i in 0..4 {
            c.access_in_ways(LineAddr::new(i), &mask);
        }
        // Only 2 ways allowed: at most 2 resident at once.
        assert_eq!(c.occupancy(), 2);
        assert!(c.contains(LineAddr::new(2)));
        assert!(c.contains(LineAddr::new(3)));
    }

    #[test]
    fn hit_in_disallowed_way_still_hits() {
        let cfg = CacheConfig::from_capacity(8 * 64, 8, 64).unwrap();
        let mut c = SetAssocCache::new(cfg, TrueLru::new());
        let line = LineAddr::new(0);
        c.access(line); // fills way 0 (unrestricted)
        let mask: Vec<bool> = (0..8).map(|w| w >= 4).collect();
        assert!(c.access_in_ways(line, &mask).hit);
    }

    #[test]
    #[should_panic(expected = "allows no ways")]
    fn empty_mask_panics() {
        let mut c = small_lru();
        c.access_in_ways(LineAddr::new(0), &[false, false]);
    }

    #[test]
    fn mee_cache_shape_fills_and_self_evicts() {
        // The actual reverse-engineered shape: 128 sets x 8 ways.
        let cfg = CacheConfig::from_capacity(64 * 1024, 8, 64).unwrap();
        let mut c = SetAssocCache::new(cfg, TreePlru::new());
        // Fill with 1024 distinct lines: exactly capacity, no evictions.
        for i in 0..1024 {
            c.access(LineAddr::new(i));
        }
        assert_eq!(c.occupancy(), 1024);
        assert_eq!(c.stats().evictions, 0);
        // One more line forces exactly one eviction in its set.
        let r = c.access(LineAddr::new(1024));
        assert!(r.evicted.is_some());
        assert_eq!(c.occupancy(), 1024);
    }

    /// Occupancy never exceeds capacity and a just-accessed line is
    /// always resident afterwards.
    #[test]
    fn occupancy_bounded_and_mru_resident() {
        check(
            "occupancy_bounded_and_mru_resident",
            &PropConfig::from_env(64),
            |rng| {
                let accesses = vec_of(rng, 1..400, |r| r.random_range(0u64..512));
                let ways = pick(rng, &[1usize, 2, 4, 8]);
                let cfg = CacheConfig::from_capacity(16 * ways * 64, ways, 64).unwrap();
                let mut c = SetAssocCache::new(cfg, TreePlru::new());
                for &a in &accesses {
                    let line = LineAddr::new(a);
                    c.access(line);
                    assert!(c.contains(line));
                    assert!(c.occupancy() <= cfg.sets * cfg.ways);
                    for s in 0..cfg.sets {
                        assert!(c.set_occupancy(s) <= cfg.ways);
                    }
                }
            },
        );
    }

    /// Stats identity: accesses = hits + misses; evictions <= misses.
    #[test]
    fn stats_identities() {
        check("stats_identities", &PropConfig::from_env(64), |rng| {
            let accesses = vec_of(rng, 1..300, |r| r.random_range(0u64..256));
            let cfg = CacheConfig::from_capacity(4 * 1024, 4, 64).unwrap();
            let mut c = SetAssocCache::new(cfg, TrueLru::new());
            for &a in &accesses {
                c.access(LineAddr::new(a));
            }
            let s = c.stats();
            assert_eq!(s.accesses(), accesses.len() as u64);
            assert!(s.evictions <= s.misses);
        });
    }

    /// `invalidate_range` is observationally identical to a per-line
    /// `invalidate` loop: same dropped count, same statistics, same
    /// residents, and — via a random access suffix — same replacement
    /// state. Exercises both the consecutive-set fast path (64+ sets) and
    /// the aliasing fallback (2 sets).
    #[test]
    fn invalidate_range_matches_per_line_loop() {
        check(
            "invalidate_range_matches_per_line_loop",
            &PropConfig::from_env(64),
            |rng| {
                let sets = pick(rng, &[2usize, 64, 128]);
                let ways = pick(rng, &[2usize, 4, 8]);
                let cfg = CacheConfig::from_capacity(sets * ways * 64, ways, 64).unwrap();
                let mut bulk = SetAssocCache::new(cfg, TreePlru::new());
                let mut serial = SetAssocCache::new(cfg, TreePlru::new());
                let warmup = vec_of(rng, 0..300, |r| r.random_range(0u64..512));
                for &a in &warmup {
                    bulk.access(LineAddr::new(a));
                    serial.access(LineAddr::new(a));
                }
                let first = LineAddr::new(rng.random_range(0u64..448));
                let count = rng.random_range(1u64..=64);
                let bulk_dropped = bulk.invalidate_range(first, count);
                let serial_dropped = (0..count)
                    .filter(|&i| serial.invalidate(LineAddr::new(first.raw() + i)))
                    .count();
                assert_eq!(bulk_dropped, serial_dropped);
                assert_eq!(bulk.stats(), serial.stats());
                assert_eq!(bulk.occupancy(), serial.occupancy());
                let mut bulk_lines: Vec<_> = bulk.resident_lines().collect();
                let mut serial_lines: Vec<_> = serial.resident_lines().collect();
                bulk_lines.sort_unstable();
                serial_lines.sort_unstable();
                assert_eq!(bulk_lines, serial_lines);
                // Replacement-policy state must match too: a suffix of
                // fills has to pick identical victims on both sides.
                let suffix = vec_of(rng, 1..200, |r| r.random_range(0u64..512));
                for &a in &suffix {
                    assert_eq!(bulk.access(LineAddr::new(a)), serial.access(LineAddr::new(a)));
                }
            },
        );
    }

    /// A line in a different set is never evicted by a fill.
    #[test]
    fn fills_only_evict_within_their_set() {
        check(
            "fills_only_evict_within_their_set",
            &PropConfig::from_env(64),
            |rng| {
                let seed = rng.random_range(0u64..1000);
                let cfg = CacheConfig::from_capacity(2 * 2 * 64, 2, 64).unwrap(); // 2 sets
                let mut c = SetAssocCache::new(cfg, TrueLru::new());
                let other_set = LineAddr::new(1); // set 1
                c.access(other_set);
                // Hammer set 0.
                for i in 0..8 {
                    let r = c.access(LineAddr::new((seed % 7 + 1) * 2 + i * 2));
                    if let Some(e) = r.evicted {
                        assert_eq!(e.set_index(2), 0);
                    }
                }
                assert!(c.contains(other_set));
            },
        );
    }
}
