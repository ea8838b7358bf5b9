//! Replacement policies.
//!
//! The policy decides which way to victimize when a set is full. The paper's
//! §5.3 observes that the MEE cache behaves like an "approximate LRU" cache
//! and designs the trojan's two-phase (forward + backward) eviction sweep
//! around that; [`TreePlru`] is the canonical approximate-LRU hardware
//! policy and the default for the simulated MEE cache.

use mee_rng::Rng;

/// Chooses victims within one cache set.
///
/// Implementations hold per-set metadata sized by [`attach`](Self::attach),
/// which the owning cache calls exactly once before use.
///
/// Caches hold a [`Policy`], the enum over every implementation here, so
/// experiments can still pick a policy at run time (the ablation bench
/// does) while the hot path stays statically dispatched.
pub trait ReplacementPolicy: std::fmt::Debug + Send {
    /// Sizes per-set metadata. Called once by the owning cache.
    fn attach(&mut self, sets: usize, ways: usize);

    /// Records a hit on `way` of `set`.
    fn on_hit(&mut self, set: usize, way: usize);

    /// Records a fill into `way` of `set`.
    fn on_fill(&mut self, set: usize, way: usize);

    /// Chooses the way to evict in a full `set`.
    ///
    /// `allowed` marks the ways the caller permits as victims (all-true in
    /// normal operation; way-partitioned operation restricts it). At least
    /// one entry is guaranteed true.
    fn victim(&mut self, set: usize, allowed: &[bool]) -> usize;

    /// [`victim`](Self::victim) with every way allowed — the common case on
    /// the hot path, split out so implementations can skip the `allowed`
    /// scan (and callers the scratch mask) entirely.
    ///
    /// Must behave exactly like `victim(set, &vec![true; ways])`, including
    /// any RNG draws; the default implementation does literally that.
    fn victim_all(&mut self, set: usize, ways: usize) -> usize {
        let allowed = vec![true; ways];
        self.victim(set, &allowed)
    }

    /// Records that `way` of `set` was invalidated.
    fn on_invalidate(&mut self, set: usize, way: usize);

    /// Short policy name for logs and benches.
    fn name(&self) -> &'static str;
}

/// Exact least-recently-used: evicts the way with the oldest access stamp.
#[derive(Debug, Default)]
pub struct TrueLru {
    stamps: Vec<u64>,
    ways: usize,
    clock: u64,
}

impl TrueLru {
    /// Creates an unattached exact-LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }
}

impl ReplacementPolicy for TrueLru {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.ways = ways;
        self.stamps = vec![0; sets * ways];
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize, allowed: &[bool]) -> usize {
        let base = set * self.ways;
        (0..self.ways)
            .filter(|&w| allowed[w])
            .min_by_key(|&w| self.stamps[base + w])
            .expect("victim() requires at least one allowed way")
    }

    fn victim_all(&mut self, set: usize, _ways: usize) -> usize {
        let base = set * self.ways;
        (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("cache sets have at least one way")
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.stamps[set * self.ways + way] = 0;
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// Tree pseudo-LRU ("approximate LRU"), the policy class §5.3 attributes to
/// the real MEE cache.
///
/// A binary tree of `ways - 1` bits per set; each access flips the bits on
/// its path to point *away* from the accessed way, and the victim is found
/// by following the bits from the root. Approximate-LRU is what forces the
/// trojan's two-phase eviction sweep: one forward pass does not guarantee
/// all resident lines are replaced.
///
/// # Panics
///
/// [`attach`](ReplacementPolicy::attach) panics if `ways` is not a power of
/// two (the tree requires it).
#[derive(Debug, Default)]
pub struct TreePlru {
    bits: Vec<bool>,
    ways: usize,
}

impl TreePlru {
    /// Creates an unattached tree-PLRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks from the root toward `way`, making every node point away.
    fn touch(&mut self, set: usize, way: usize) {
        let base = set * (self.ways - 1);
        let mut node = 0usize; // root of the implicit tree
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let right = way >= mid;
            // Point to the *other* half.
            self.bits[base + node] = !right;
            if right {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
    }
}

impl ReplacementPolicy for TreePlru {
    fn attach(&mut self, sets: usize, ways: usize) {
        assert!(
            ways.is_power_of_two(),
            "tree-PLRU requires a power-of-two way count, got {ways}"
        );
        self.ways = ways;
        self.bits = vec![false; sets * (ways - 1)];
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize, allowed: &[bool]) -> usize {
        let base = set * (self.ways - 1);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits[base + node] {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        if allowed[lo] {
            lo
        } else {
            // Partitioned operation: fall back to the first allowed way.
            allowed
                .iter()
                .position(|&a| a)
                .expect("victim() requires at least one allowed way")
        }
    }

    fn victim_all(&mut self, set: usize, _ways: usize) -> usize {
        // The bit walk's landing way is always allowed here.
        let base = set * (self.ways - 1);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits[base + node] {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        // Inverse of `touch`: walk from the root *toward* the invalidated
        // way, so the next victim search lands on it. Leaving the bits
        // stale would keep evicting live lines while the freed way sits
        // idle until some unrelated fill happens to re-point the path.
        let base = set * (self.ways - 1);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let right = way >= mid;
            self.bits[base + node] = right;
            if right {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
    }

    fn name(&self) -> &'static str {
        "tree-plru"
    }
}

/// First-in first-out: evicts the oldest *fill*, ignoring hits.
#[derive(Debug, Default)]
pub struct Fifo {
    stamps: Vec<u64>,
    ways: usize,
    clock: u64,
}

impl Fifo {
    /// Creates an unattached FIFO policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Fifo {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.ways = ways;
        self.stamps = vec![0; sets * ways];
    }

    fn on_hit(&mut self, _set: usize, _way: usize) {}

    fn on_fill(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }

    fn victim(&mut self, set: usize, allowed: &[bool]) -> usize {
        let base = set * self.ways;
        (0..self.ways)
            .filter(|&w| allowed[w])
            .min_by_key(|&w| self.stamps[base + w])
            .expect("victim() requires at least one allowed way")
    }

    fn victim_all(&mut self, set: usize, _ways: usize) -> usize {
        let base = set * self.ways;
        (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("cache sets have at least one way")
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.stamps[set * self.ways + way] = 0;
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Not-recently-used: one reference bit per way; evicts the first way whose
/// bit is clear, clearing all bits when every way is referenced.
#[derive(Debug, Default)]
pub struct Nru {
    referenced: Vec<bool>,
    ways: usize,
}

impl Nru {
    /// Creates an unattached NRU policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Nru {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.ways = ways;
        self.referenced = vec![false; sets * ways];
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.referenced[set * self.ways + way] = true;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.referenced[set * self.ways + way] = true;
    }

    fn victim(&mut self, set: usize, allowed: &[bool]) -> usize {
        let base = set * self.ways;
        if let Some(w) = (0..self.ways).find(|&w| allowed[w] && !self.referenced[base + w]) {
            return w;
        }
        // Everybody referenced: age the whole set and take the first allowed.
        for w in 0..self.ways {
            self.referenced[base + w] = false;
        }
        allowed
            .iter()
            .position(|&a| a)
            .expect("victim() requires at least one allowed way")
    }

    fn victim_all(&mut self, set: usize, _ways: usize) -> usize {
        let base = set * self.ways;
        if let Some(w) = (0..self.ways).find(|&w| !self.referenced[base + w]) {
            return w;
        }
        // Everybody referenced: age the whole set and take the first way.
        for w in 0..self.ways {
            self.referenced[base + w] = false;
        }
        0
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.referenced[set * self.ways + way] = false;
    }

    fn name(&self) -> &'static str {
        "nru"
    }
}

/// Static re-reference interval prediction (SRRIP, Jaleel et al. ISCA'10)
/// with 2-bit re-reference prediction values — the other widespread
/// "approximate LRU" in shipping hardware.
///
/// Fills insert at RRPV 2 (long re-reference), hits promote to 0; the
/// victim is the first way at RRPV 3, aging every way when none is.
#[derive(Debug, Default)]
pub struct Srrip {
    rrpv: Vec<u8>,
    ways: usize,
}

/// Maximum re-reference prediction value (2 bits).
const RRPV_MAX: u8 = 3;

impl Srrip {
    /// Creates an unattached SRRIP policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Srrip {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.ways = ways;
        self.rrpv = vec![RRPV_MAX; sets * ways];
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = RRPV_MAX - 1;
    }

    fn victim(&mut self, set: usize, allowed: &[bool]) -> usize {
        let base = set * self.ways;
        loop {
            if let Some(w) =
                (0..self.ways).find(|&w| allowed[w] && self.rrpv[base + w] == RRPV_MAX)
            {
                return w;
            }
            // Age: increment every RRPV in the set (saturating).
            for w in 0..self.ways {
                if self.rrpv[base + w] < RRPV_MAX {
                    self.rrpv[base + w] += 1;
                }
            }
        }
    }

    fn victim_all(&mut self, set: usize, _ways: usize) -> usize {
        let base = set * self.ways;
        loop {
            if let Some(w) = (0..self.ways).find(|&w| self.rrpv[base + w] == RRPV_MAX) {
                return w;
            }
            for w in 0..self.ways {
                if self.rrpv[base + w] < RRPV_MAX {
                    self.rrpv[base + w] += 1;
                }
            }
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = RRPV_MAX;
    }

    fn name(&self) -> &'static str {
        "srrip"
    }
}

/// Uniform-random eviction, seeded for determinism.
#[derive(Debug)]
pub struct RandomEviction {
    rng: Rng,
    ways: usize,
}

impl RandomEviction {
    /// Creates a random-eviction policy with the given RNG seed.
    pub fn with_seed(seed: u64) -> Self {
        RandomEviction {
            rng: Rng::seed_from_u64(seed),
            ways: 0,
        }
    }
}

impl ReplacementPolicy for RandomEviction {
    fn attach(&mut self, _sets: usize, ways: usize) {
        self.ways = ways;
    }

    fn on_hit(&mut self, _set: usize, _way: usize) {}

    fn on_fill(&mut self, _set: usize, _way: usize) {}

    fn victim(&mut self, _set: usize, allowed: &[bool]) -> usize {
        let candidates: Vec<usize> = (0..self.ways).filter(|&w| allowed[w]).collect();
        assert!(
            !candidates.is_empty(),
            "victim() requires at least one allowed way"
        );
        candidates[self.rng.random_range(0..candidates.len())]
    }

    fn victim_all(&mut self, _set: usize, _ways: usize) -> usize {
        // Same single `random_range(0..ways)` draw as `victim` with an
        // all-true mask, so the RNG stream is unchanged.
        self.rng.random_range(0..self.ways)
    }

    fn on_invalidate(&mut self, _set: usize, _way: usize) {}

    fn name(&self) -> &'static str {
        "random"
    }
}

/// A statically dispatched policy: every concrete policy in this module as
/// an enum variant.
///
/// The simulated machine's caches sit on the hot path of every memory op
/// (the L1/L2/LLC lookups, the MEE-cache walk, clflush invalidation sweeps),
/// and all of them run [`TreePlru`] in the default configuration. Routing
/// policy callbacks through an enum instead of `Box<dyn ReplacementPolicy>`
/// lets the compiler inline the PLRU bit-tree updates into the cache access
/// itself. [`SetAssocCache::new`](crate::SetAssocCache::new) accepts
/// anything `Into<Policy>`: a concrete policy by value, or a `Policy`.
#[derive(Debug)]
pub enum Policy {
    /// Tree pseudo-LRU (the default everywhere).
    TreePlru(TreePlru),
    /// Exact LRU.
    TrueLru(TrueLru),
    /// First-in first-out.
    Fifo(Fifo),
    /// Not-recently-used.
    Nru(Nru),
    /// Static re-reference interval prediction.
    Srrip(Srrip),
    /// Seeded random victims.
    Random(RandomEviction),
}

macro_rules! dispatch {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            Policy::TreePlru($p) => $body,
            Policy::TrueLru($p) => $body,
            Policy::Fifo($p) => $body,
            Policy::Nru($p) => $body,
            Policy::Srrip($p) => $body,
            Policy::Random($p) => $body,
        }
    };
}

impl ReplacementPolicy for Policy {
    fn attach(&mut self, sets: usize, ways: usize) {
        dispatch!(self, p => p.attach(sets, ways));
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_hit(set, way));
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_fill(set, way));
    }

    #[inline]
    fn victim(&mut self, set: usize, allowed: &[bool]) -> usize {
        dispatch!(self, p => p.victim(set, allowed))
    }

    #[inline]
    fn victim_all(&mut self, set: usize, ways: usize) -> usize {
        dispatch!(self, p => p.victim_all(set, ways))
    }

    #[inline]
    fn on_invalidate(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_invalidate(set, way));
    }

    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }
}

impl From<TreePlru> for Policy {
    fn from(p: TreePlru) -> Self {
        Policy::TreePlru(p)
    }
}

impl From<TrueLru> for Policy {
    fn from(p: TrueLru) -> Self {
        Policy::TrueLru(p)
    }
}

impl From<Fifo> for Policy {
    fn from(p: Fifo) -> Self {
        Policy::Fifo(p)
    }
}

impl From<Nru> for Policy {
    fn from(p: Nru) -> Self {
        Policy::Nru(p)
    }
}

impl From<Srrip> for Policy {
    fn from(p: Srrip) -> Self {
        Policy::Srrip(p)
    }
}

impl From<RandomEviction> for Policy {
    fn from(p: RandomEviction) -> Self {
        Policy::Random(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_allowed(ways: usize) -> Vec<bool> {
        vec![true; ways]
    }

    /// `victim_all` must be indistinguishable from `victim` with an
    /// all-true mask — same way chosen, same internal state evolution,
    /// same RNG draws — for every policy, under arbitrary histories.
    /// Two identically-seeded twins run mirrored hit/fill/invalidate
    /// histories; one answers through `victim`, the other through
    /// `victim_all`, and the pair must never diverge.
    #[test]
    fn victim_all_matches_all_true_mask() {
        const WAYS: usize = 8;
        const SETS: usize = 4;
        let twins: Vec<(Policy, Policy)> = vec![
            (TreePlru::new().into(), TreePlru::new().into()),
            (TrueLru::new().into(), TrueLru::new().into()),
            (Fifo::new().into(), Fifo::new().into()),
            (Nru::new().into(), Nru::new().into()),
            (Srrip::new().into(), Srrip::new().into()),
            (
                RandomEviction::with_seed(0xdead).into(),
                RandomEviction::with_seed(0xdead).into(),
            ),
        ];
        for (mut a, mut b) in twins {
            a.attach(SETS, WAYS);
            b.attach(SETS, WAYS);
            let mut rng = Rng::seed_from_u64(0x51c7);
            for step in 0..2000 {
                let set = rng.random_range(0..SETS);
                let way = rng.random_range(0..WAYS);
                match rng.random_range(0..4u8) {
                    0 => {
                        a.on_hit(set, way);
                        b.on_hit(set, way);
                    }
                    1 => {
                        a.on_fill(set, way);
                        b.on_fill(set, way);
                    }
                    2 => {
                        a.on_invalidate(set, way);
                        b.on_invalidate(set, way);
                    }
                    _ => {
                        let va = a.victim(set, &all_allowed(WAYS));
                        let vb = b.victim_all(set, WAYS);
                        assert_eq!(
                            va,
                            vb,
                            "policy {} diverged at step {step} (set {set})",
                            a.name()
                        );
                        // Keep the histories aligned after the eviction.
                        a.on_fill(set, va);
                        b.on_fill(set, vb);
                    }
                }
            }
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut p = TrueLru::new();
        p.attach(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        p.on_hit(0, 0); // refresh way 0; way 1 is now oldest
        assert_eq!(p.victim(0, &all_allowed(4)), 1);
    }

    #[test]
    fn lru_respects_allowed_mask() {
        let mut p = TrueLru::new();
        p.attach(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        let mut allowed = all_allowed(4);
        allowed[0] = false; // oldest way is off-limits
        assert_eq!(p.victim(0, &allowed), 1);
    }

    #[test]
    fn plru_never_evicts_most_recent() {
        let mut p = TreePlru::new();
        p.attach(1, 8);
        for w in 0..8 {
            p.on_fill(0, w);
        }
        for recent in 0..8 {
            p.on_hit(0, recent);
            assert_ne!(
                p.victim(0, &all_allowed(8)),
                recent,
                "PLRU evicted the most recently used way"
            );
        }
    }

    #[test]
    fn plru_is_only_approximately_lru() {
        // Demonstrates the §5.3 problem: after touching lines in one order, a
        // single forward sweep of 8 new fills does not victimize ways in pure
        // LRU order. We just check PLRU and true LRU disagree somewhere.
        let mut plru = TreePlru::new();
        let mut lru = TrueLru::new();
        plru.attach(1, 8);
        lru.attach(1, 8);
        for w in 0..8 {
            plru.on_fill(0, w);
            lru.on_fill(0, w);
        }
        let pattern = [3usize, 1, 4, 1, 5, 2, 6, 5, 3];
        for &w in &pattern {
            plru.on_hit(0, w);
            lru.on_hit(0, w);
        }
        let mut diverged = false;
        for _ in 0..8 {
            let pv = plru.victim(0, &all_allowed(8));
            let lv = lru.victim(0, &all_allowed(8));
            if pv != lv {
                diverged = true;
            }
            plru.on_fill(0, pv);
            lru.on_fill(0, lv);
        }
        assert!(diverged, "tree-PLRU behaved exactly like true LRU");
    }

    /// Pinned spec-harness counterexample (invariant
    /// `invalidated-way-preferred`): with 2 ways, tree-PLRU is exactly LRU,
    /// so after `fill 0, fill 1, invalidate 1` the victim must be way 1.
    /// The pre-fix no-op `on_invalidate` left the bits pointing at way 0.
    #[test]
    fn plru_invalidate_points_tree_at_freed_way() {
        let mut p = TreePlru::new();
        p.attach(1, 2);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_invalidate(0, 1);
        assert_eq!(p.victim(0, &all_allowed(2)), 1);
    }

    /// After filling every way, a single invalidation makes that way the
    /// preferred victim — for every deterministic policy.
    #[test]
    fn invalidated_way_is_preferred_victim() {
        for ways in [2usize, 4, 8] {
            for way in 0..ways {
                let policies: Vec<Box<dyn ReplacementPolicy>> = vec![
                    Box::new(TrueLru::new()),
                    Box::new(TreePlru::new()),
                    Box::new(Fifo::new()),
                    Box::new(Nru::new()),
                    Box::new(Srrip::new()),
                ];
                for mut p in policies {
                    p.attach(1, ways);
                    for w in 0..ways {
                        p.on_fill(0, w);
                    }
                    p.on_invalidate(0, way);
                    assert_eq!(
                        p.victim(0, &all_allowed(ways)),
                        way,
                        "{} did not prefer invalidated way {way} of {ways}",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two_ways() {
        let mut p = TreePlru::new();
        p.attach(1, 6);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = Fifo::new();
        p.attach(1, 2);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_hit(0, 0); // does not refresh way 0
        assert_eq!(p.victim(0, &all_allowed(2)), 0);
    }

    #[test]
    fn nru_prefers_unreferenced() {
        let mut p = Nru::new();
        p.attach(1, 4);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_fill(0, 2);
        p.on_fill(0, 3);
        // All referenced: victim clears and picks way 0.
        assert_eq!(p.victim(0, &all_allowed(4)), 0);
        // Now nothing is referenced except what we touch.
        p.on_hit(0, 0);
        assert_eq!(p.victim(0, &all_allowed(4)), 1);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = RandomEviction::with_seed(7);
        let mut b = RandomEviction::with_seed(7);
        a.attach(1, 8);
        b.attach(1, 8);
        let allowed = all_allowed(8);
        for _ in 0..32 {
            assert_eq!(a.victim(0, &allowed), b.victim(0, &allowed));
        }
    }

    #[test]
    fn random_respects_allowed_mask() {
        let mut p = RandomEviction::with_seed(3);
        p.attach(1, 8);
        let mut allowed = vec![false; 8];
        allowed[5] = true;
        for _ in 0..16 {
            assert_eq!(p.victim(0, &allowed), 5);
        }
    }

    #[test]
    fn srrip_prefers_distant_rereference() {
        let mut p = Srrip::new();
        p.attach(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        // All at RRPV 2; a victim search ages everyone to 3 and picks way 0.
        assert_eq!(p.victim(0, &all_allowed(4)), 0);
        // A hit promotes to RRPV 0: that way outlives un-hit ways.
        p.on_fill(0, 0);
        p.on_hit(0, 1);
        let v = p.victim(0, &all_allowed(4));
        assert_ne!(v, 1, "SRRIP evicted the just-hit way");
    }

    #[test]
    fn srrip_never_evicts_most_recent_hit() {
        let mut p = Srrip::new();
        p.attach(1, 8);
        for w in 0..8 {
            p.on_fill(0, w);
        }
        for recent in 0..8 {
            p.on_hit(0, recent);
            assert_ne!(p.victim(0, &all_allowed(8)), recent);
        }
    }

    #[test]
    fn srrip_respects_allowed_mask() {
        let mut p = Srrip::new();
        p.attach(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        let mut allowed = all_allowed(4);
        allowed[0] = false;
        assert_ne!(p.victim(0, &allowed), 0);
    }

    #[test]
    fn policy_names() {
        assert_eq!(TrueLru::new().name(), "lru");
        assert_eq!(TreePlru::new().name(), "tree-plru");
        assert_eq!(Fifo::new().name(), "fifo");
        assert_eq!(Nru::new().name(), "nru");
        assert_eq!(Srrip::new().name(), "srrip");
        assert_eq!(RandomEviction::with_seed(0).name(), "random");
    }
}
