//! The functional integrity tree: counters, tags, verification.
//!
//! Tree state is held in dense records in which all-zero means pristine,
//! with a one-bit-per-entry verification memo; `DESIGN.md` § "Integrity-tree
//! storage and the verification memo" gives the exactness and invalidation
//! arguments.

use mee_types::{LineAddr, ModelError, TREE_ARITY};

use crate::geometry::{TreeGeometry, TreeLevel};
use crate::mac::MacTag;

/// Record fields: a data line is `[CTR, TAG, DIGEST]`, a node `[CTR, TAG]`.
const CTR: usize = 0;
const TAG: usize = 1;
const DIGEST: usize = 2;

/// A functional SGX-style counter tree over a protected data region.
///
/// Stores one freshness counter per data line (held in version lines), one
/// per tree node at every level, a MAC per node line, and a `PD_Tag` MAC per
/// data line. Reads verify the full chain; writes bump the counter path and
/// re-tag it. Tampering with any stored value is detected on the next read.
///
/// Data contents are modeled as 64-bit digests (the simulator tracks *where*
/// data is and *whether it verifies*, not full byte contents).
///
/// State lives in dense zero-initialised records: `[counter, PD_Tag ^
/// pristine PD_Tag, digest]` per data line and `[counter, MAC ^ pristine
/// MAC]` per node and level, where a *pristine* tag is the one the all-zero
/// initial state calls for. An all-zero record is exactly a fresh line or
/// node, so construction computes no tags, and pages of records that no
/// write or tamper reaches stay the allocator's untouched zero pages.
///
/// Verification is memoised by one bit per data line and per node, set when
/// the stored tag matched a recomputation (failures are never memoised). A
/// write changes the tag inputs of exactly its own path — data line,
/// version, L0, L1, L2 — so it clears those five bits; tampering and replay
/// clear every bit.
#[derive(Debug, Clone)]
pub struct IntegrityTree {
    geo: TreeGeometry,
    key: u64,
    /// Per data line; the counter is the line's slot in its version line.
    lines: Vec<[u64; 3]>,
    /// Per node, per level (Version, L0, L1, L2); the counter is the node's
    /// slot one level up — for L2 the on-die root, tamper-proof by
    /// assumption.
    nodes: [Vec<[u64; 2]>; 4],
    reads: u64,
    writes: u64,
    verified_lines: Bits,
    verified_nodes: [Bits; 4],
}

/// A fixed-size bitset: the verification memo of one level.
#[derive(Debug, Clone)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(len: usize) -> Self {
        Bits(vec![0; len.div_ceil(64)])
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
}

/// Folds child counters into a MAC payload word.
fn fold_payload<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    words.into_iter().fold(0xabcd_ef01_2345_6789u64, |acc, w| {
        acc.rotate_left(7) ^ w.wrapping_mul(0x2545_f491_4f6c_dd1d)
    })
}

/// Copies the counters of up to [`TREE_ARITY`] records from `start` into
/// `out` and returns how many there were (the last node of a level may
/// have fewer children).
fn gather_counters<const N: usize>(
    records: &[[u64; N]],
    start: usize,
    out: &mut [u64; TREE_ARITY],
) -> usize {
    let children = &records[start..(start + TREE_ARITY).min(records.len())];
    for (slot, record) in out.iter_mut().zip(children) {
        *slot = record[CTR];
    }
    children.len()
}

impl IntegrityTree {
    /// Creates a fresh tree (all counters zero, all tags consistent) keyed
    /// by `key`.
    pub fn new(geo: TreeGeometry, key: u64) -> Self {
        let data_lines = geo.data_lines() as usize;
        let node_counts = TreeLevel::ALL.map(|level| geo.lines_at(level) as usize);
        IntegrityTree {
            geo,
            key,
            lines: vec![[0; 3]; data_lines],
            nodes: node_counts.map(|n| vec![[0; 2]; n]),
            reads: 0,
            writes: 0,
            verified_lines: Bits::new(data_lines),
            verified_nodes: node_counts.map(Bits::new),
        }
    }

    /// Forgets every memoised verification. Tampering and replay, which
    /// may break any tag, call this.
    fn invalidate_all(&mut self) {
        for bits in std::iter::once(&mut self.verified_lines).chain(&mut self.verified_nodes) {
            bits.0.fill(0);
        }
    }

    /// The geometry of this tree.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geo
    }

    /// Number of verified reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Writes `digest` to a protected data line: stores the value, bumps the
    /// freshness counters along the whole verification path, and re-tags
    /// every touched node.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPhysAddr`] if the line is not protected data.
    pub fn write(&mut self, data_line: LineAddr, digest: u64) -> Result<(), ModelError> {
        self.check_covered(data_line)?;
        self.writes += 1;
        let idx = self.geo.data_line_index(data_line) as usize;
        let path = self.path_nodes(data_line);

        let line = &mut self.lines[idx];
        line[CTR] = line[CTR].wrapping_add(1);
        line[DIGEST] = digest;
        for (records, &node) in self.nodes.iter_mut().zip(&path) {
            records[node][CTR] = records[node][CTR].wrapping_add(1);
        }

        // Re-tag once every counter on the path has moved: a node's MAC
        // covers its children's counters as well as its own.
        self.lines[idx][TAG] = self.pd_tag_delta(idx);
        self.verified_lines.clear(idx);
        for (level, &node) in TreeLevel::ALL.into_iter().zip(&path) {
            let l = level.ladder_index();
            self.nodes[l][node][TAG] = self.node_tag_delta(level, node);
            self.verified_nodes[l].clear(node);
        }
        Ok(())
    }

    /// Reads a protected data line, verifying the full chain bottom-up:
    /// `PD_Tag`, then the version / L0 / L1 / L2 node MACs against their
    /// parents' counters (L2 against the on-die root).
    ///
    /// # Errors
    ///
    /// * [`ModelError::BadPhysAddr`] if the line is not protected data.
    /// * [`ModelError::IntegrityViolation`] at the first level whose tag
    ///   does not verify.
    pub fn read_verified(&mut self, data_line: LineAddr) -> Result<u64, ModelError> {
        self.read_partial(data_line, 4)
    }

    /// Reads a protected data line, verifying only the bottom `node_levels`
    /// node MACs (plus the `PD_Tag`, which is always checked).
    ///
    /// This is how the MEE actually behaves: once the walk *hits* in the MEE
    /// cache at some level, everything above was already verified at fill
    /// time and is trusted (paper §2.2 — "as soon as a MEE cache hit occurs,
    /// MEE stops integrity check"). `node_levels = 0` models a versions hit,
    /// `4` a walk all the way to the on-die root.
    ///
    /// # Errors
    ///
    /// * [`ModelError::BadPhysAddr`] if the line is not protected data.
    /// * [`ModelError::IntegrityViolation`] at the first checked level whose
    ///   tag does not verify.
    ///
    /// # Panics
    ///
    /// Panics if `node_levels > 4`.
    pub fn read_partial(
        &mut self,
        data_line: LineAddr,
        node_levels: usize,
    ) -> Result<u64, ModelError> {
        assert!(node_levels <= 4, "at most 4 node levels exist");
        self.check_covered(data_line)?;
        self.reads += 1;
        let idx = self.geo.data_line_index(data_line) as usize;
        let path = self.path_nodes(data_line);

        let violation = |level: usize| ModelError::IntegrityViolation {
            line: data_line,
            level,
        };
        if !self.pd_tag_verifies(idx) {
            return Err(violation(0));
        }
        for (report, (level, &node)) in TreeLevel::ALL
            .into_iter()
            .zip(&path)
            .take(node_levels)
            .enumerate()
        {
            if !self.node_mac_verifies(level, node) {
                return Err(violation(report));
            }
        }
        Ok(self.lines[idx][DIGEST])
    }

    /// Checks the stored `PD_Tag` of a data line against a recomputation.
    fn pd_tag_verifies(&mut self, idx: usize) -> bool {
        if self.verified_lines.get(idx) {
            return true;
        }
        let ok = self.pd_tag_delta(idx) == self.lines[idx][TAG];
        if ok {
            self.verified_lines.set(idx);
        }
        ok
    }

    /// Checks a stored node MAC against a recomputation.
    fn node_mac_verifies(&mut self, level: TreeLevel, node: usize) -> bool {
        let l = level.ladder_index();
        if self.verified_nodes[l].get(node) {
            return true;
        }
        let ok = self.node_tag_delta(level, node) == self.nodes[l][node][TAG];
        if ok {
            self.verified_nodes[l].set(node);
        }
        ok
    }

    /// Corrupts the stored digest of a data line without re-tagging — an
    /// attacker flipping bits in DRAM.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPhysAddr`] if the line is not protected data.
    pub fn tamper_digest(&mut self, data_line: LineAddr) -> Result<(), ModelError> {
        self.check_covered(data_line)?;
        self.invalidate_all();
        let idx = self.geo.data_line_index(data_line) as usize;
        self.lines[idx][DIGEST] ^= 0x1;
        Ok(())
    }

    /// Corrupts a stored freshness counter at `level` without re-tagging —
    /// an attacker rolling a counter forward in DRAM. Root counters cannot
    /// be tampered (they are on-die by assumption).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for `level`.
    pub fn tamper_counter(&mut self, level: TreeLevel, node: u64) {
        assert!(
            node < self.geo.lines_at(level),
            "tamper_counter: node {node} out of range for {level:?} \
             ({} lines)",
            self.geo.lines_at(level)
        );
        self.invalidate_all();
        // A node's line holds its children's counters: a version line the
        // per-data-line ones, an L0 line the version ones, and so on.
        let child = node as usize * TREE_ARITY;
        match level {
            TreeLevel::Version => self.lines[child][CTR] ^= 1,
            _ => self.nodes[level.ladder_index() - 1][child][CTR] ^= 1,
        }
    }

    /// Attempts a replay: restores the digest, `PD_Tag`, and data counter of
    /// `data_line` to `snapshot` (a previously captured [`Self::snapshot`])
    /// without touching the tree above — the classic rollback attack the
    /// counter tree exists to stop.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPhysAddr`] if the line is not protected data.
    pub fn replay(
        &mut self,
        data_line: LineAddr,
        snapshot: (u64, MacTag, u64),
    ) -> Result<(), ModelError> {
        self.check_covered(data_line)?;
        self.invalidate_all();
        let idx = self.geo.data_line_index(data_line) as usize;
        let (digest, tag, ctr) = snapshot;
        // The attacker replays ciphertext, not recomputed tags: the
        // version-line MAC above still covers the newer data counter, so
        // verification fails there.
        self.lines[idx] = [ctr, tag.0 ^ self.pristine_pd_tag(idx).0, digest];
        Ok(())
    }

    /// Captures the digest, `PD_Tag`, and data counter of a line for a later
    /// [`Self::replay`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPhysAddr`] if the line is not protected data.
    pub fn snapshot(&self, data_line: LineAddr) -> Result<(u64, MacTag, u64), ModelError> {
        self.check_covered(data_line)?;
        let idx = self.geo.data_line_index(data_line) as usize;
        let [ctr, tag, digest] = self.lines[idx];
        Ok((digest, MacTag(tag ^ self.pristine_pd_tag(idx).0), ctr))
    }

    /// Returns the stored digest of a data line *without* verification or
    /// statistics — models reading plaintext already resident in an on-chip
    /// cache, which the MEE never sees.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPhysAddr`] if the line is not protected data.
    pub fn peek(&self, data_line: LineAddr) -> Result<u64, ModelError> {
        self.check_covered(data_line)?;
        let idx = self.geo.data_line_index(data_line) as usize;
        Ok(self.lines[idx][DIGEST])
    }

    fn check_covered(&self, data_line: LineAddr) -> Result<(), ModelError> {
        if self.geo.covers(data_line.base()) {
            Ok(())
        } else {
            Err(ModelError::BadPhysAddr {
                pa: data_line.base(),
            })
        }
    }

    /// Node indices of a data line's path: version, L0, L1, L2.
    fn path_nodes(&self, data_line: LineAddr) -> [usize; 4] {
        let p = self.geo.walk_path(data_line);
        [p.version, p.l0, p.l1, p.l2].map(|node| node as usize)
    }

    /// The `PD_Tag` of a fresh line: MAC over (address, digest 0) under
    /// counter 0.
    fn pristine_pd_tag(&self, idx: usize) -> MacTag {
        MacTag::compute(self.key, idx as u64, 0, 0)
    }

    /// The `PD_Tag` the line's current digest and counter call for — a MAC
    /// over (address, digest) fresh under the line's version counter — in
    /// stored form (XOR the pristine tag). An all-zero state is the
    /// pristine state, whose stored form is 0 without computing a MAC.
    fn pd_tag_delta(&self, idx: usize) -> u64 {
        let [ctr, _, digest] = self.lines[idx];
        if ctr == 0 && digest == 0 {
            return 0;
        }
        MacTag::compute(self.key, idx as u64, digest, ctr).0 ^ self.pristine_pd_tag(idx).0
    }

    /// The MAC node `node` at `level` calls for — over its child counters,
    /// fresh under its own counter held one level up — in stored form (XOR
    /// the MAC of all-zero counters), 0 for an all-zero state.
    fn node_tag_delta(&self, level: TreeLevel, node: usize) -> u64 {
        let l = level.ladder_index();
        let mut children = [0; TREE_ARITY];
        let n = match level {
            TreeLevel::Version => gather_counters(&self.lines, node * TREE_ARITY, &mut children),
            _ => gather_counters(&self.nodes[l - 1], node * TREE_ARITY, &mut children),
        };
        let freshness = self.nodes[l][node][CTR];
        if freshness == 0 && children == [0; TREE_ARITY] {
            return 0;
        }
        let tweak = self.geo.level_line(level, node as u64).raw();
        let mac = MacTag::compute(
            self.key,
            tweak,
            fold_payload(children[..n].iter().copied()),
            freshness,
        );
        let pristine = MacTag::compute(self.key, tweak, fold_payload(std::iter::repeat_n(0, n)), 0);
        mac.0 ^ pristine.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_mem::PhysLayout;
    use mee_rng::prop::{check, vec_of, PropConfig};

    fn tree() -> IntegrityTree {
        let layout = PhysLayout::new(1 << 20, 2 << 20).unwrap();
        let geo = TreeGeometry::new(layout.prm_data(), layout.prm_tree()).unwrap();
        IntegrityTree::new(geo, 0xdead_beef)
    }

    fn data_line(t: &IntegrityTree, index: u64) -> LineAddr {
        LineAddr::new(t.geometry().data_region().base().line().raw() + index)
    }
    #[test]
    fn fresh_tree_verifies_everywhere() {
        let mut t = tree();
        for i in [0u64, 1, 7, 63, 64, 1000] {
            let line = data_line(&t, i % t.geometry().data_lines());
            assert_eq!(t.read_verified(line).unwrap(), 0);
        }
        assert_eq!(t.reads(), 6);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut t = tree();
        let line = data_line(&t, 42);
        t.write(line, 0xcafe).unwrap();
        assert_eq!(t.read_verified(line).unwrap(), 0xcafe);
        t.write(line, 0xf00d).unwrap();
        assert_eq!(t.read_verified(line).unwrap(), 0xf00d);
        assert_eq!(t.writes(), 2);
    }

    #[test]
    fn writes_do_not_disturb_neighbors() {
        let mut t = tree();
        let a = data_line(&t, 0);
        let b = data_line(&t, 1); // same version block
        let c = data_line(&t, 9); // different block, same L0
        t.write(a, 1).unwrap();
        assert_eq!(t.read_verified(b).unwrap(), 0);
        assert_eq!(t.read_verified(c).unwrap(), 0);
    }

    #[test]
    fn digest_tamper_detected_at_level_zero() {
        let mut t = tree();
        let line = data_line(&t, 5);
        t.write(line, 7).unwrap();
        t.tamper_digest(line).unwrap();
        match t.read_verified(line) {
            Err(ModelError::IntegrityViolation { level, .. }) => assert_eq!(level, 0),
            other => panic!("tamper not detected: {other:?}"),
        }
    }

    #[test]
    fn counter_tamper_detected() {
        for level in TreeLevel::ALL {
            let mut t = tree();
            let line = data_line(&t, 0);
            t.write(line, 7).unwrap();
            t.tamper_counter(level, 0);
            assert!(
                t.read_verified(line).is_err(),
                "counter tamper at {level:?} not detected"
            );
        }
    }

    #[test]
    fn tamper_on_never_written_line_detected() {
        // The victim line was never written, so its stored tag is the
        // pristine one (a zero tag field): detection must come from the
        // recomputation, not from the all-zero shortcut.
        let mut t = tree();
        let line = data_line(&t, 11);
        t.tamper_digest(line).unwrap();
        match t.read_verified(line) {
            Err(ModelError::IntegrityViolation { level, .. }) => assert_eq!(level, 0),
            other => panic!("tamper on pristine line not detected: {other:?}"),
        }
        // A counter tamper under pristine tags is likewise caught.
        let mut t = tree();
        t.tamper_counter(TreeLevel::L0, 0);
        assert!(t.read_verified(data_line(&t, 0)).is_err());
    }

    #[test]
    fn snapshot_of_pristine_line_replays_cleanly() {
        // A snapshot taken before any write must capture the pristine tag,
        // so replaying it onto the untouched line is a no-op that verifies.
        let mut t = tree();
        let line = data_line(&t, 8);
        let snap = t.snapshot(line).unwrap();
        t.replay(line, snap).unwrap();
        assert_eq!(t.read_verified(line).unwrap(), 0);
    }

    #[test]
    fn replay_attack_detected() {
        let mut t = tree();
        let line = data_line(&t, 3);
        t.write(line, 0x01d).unwrap();
        let snap = t.snapshot(line).unwrap();
        t.write(line, 0x4ee).unwrap();
        assert_eq!(t.read_verified(line).unwrap(), 0x4ee);
        // Attacker restores the old DRAM contents (digest + tag + counter).
        t.replay(line, snap).unwrap();
        assert!(
            t.read_verified(line).is_err(),
            "rollback was not detected — freshness is broken"
        );
    }

    #[test]
    fn foreign_lines_rejected() {
        let mut t = tree();
        assert!(t.write(LineAddr::new(0), 1).is_err());
        assert!(t.read_verified(LineAddr::new(0)).is_err());
        assert!(t.snapshot(LineAddr::new(0)).is_err());
    }

    #[test]
    fn untampered_sibling_still_verifies_after_tamper() {
        let mut t = tree();
        let victim = data_line(&t, 0);
        // A line in a different L2 subtree entirely.
        let far = data_line(&t, t.geometry().data_lines() - 1);
        t.write(victim, 7).unwrap();
        t.tamper_digest(victim).unwrap();
        assert!(t.read_verified(victim).is_err());
        assert!(t.read_verified(far).is_ok());
    }

    /// Arbitrary write sequences always verify afterwards, and the last
    /// write wins.
    #[test]
    fn write_sequences_verify() {
        check("write_sequences_verify", &PropConfig::from_env(24), |rng| {
            let ops = vec_of(rng, 1..40, |r| {
                (r.random_range(0u64..2048), r.random_range(0u64..u64::MAX))
            });
            let mut t = tree();
            let lines = t.geometry().data_lines();
            let mut last = std::collections::HashMap::new();
            for &(idx, val) in &ops {
                let line = data_line(&t, idx % lines);
                t.write(line, val).unwrap();
                last.insert(idx % lines, val);
            }
            for (&idx, &val) in &last {
                let line = data_line(&t, idx);
                assert_eq!(t.read_verified(line).unwrap(), val);
            }
        });
    }

    #[test]
    fn tamper_survives_an_unrelated_write() {
        // The write clears only its own path's memo bits; the tampered
        // line's bit was cleared by the tamper and must stay cleared.
        let mut t = tree();
        let victim = data_line(&t, 5);
        let other = data_line(&t, t.geometry().data_lines() - 1);
        assert_eq!(t.read_verified(victim).unwrap(), 0);
        t.tamper_digest(victim).unwrap();
        t.write(other, 9).unwrap();
        match t.read_verified(victim) {
            Err(ModelError::IntegrityViolation { level, .. }) => assert_eq!(level, 0),
            other => panic!("tamper forgotten after an unrelated write: {other:?}"),
        }
    }

    #[test]
    fn verified_line_survives_a_write_on_its_l0_spine() {
        // Lines 0 and 8 sit in different version blocks under one L0 node:
        // the second write re-tags that L0 node, and the first line's
        // memoised version node must still verify beneath it.
        let mut t = tree();
        let first = data_line(&t, 0);
        let second = data_line(&t, 8);
        t.write(first, 0xaaa).unwrap();
        assert_eq!(t.read_verified(first).unwrap(), 0xaaa);
        t.write(second, 0xbbb).unwrap();
        assert_eq!(t.read_verified(first).unwrap(), 0xaaa);
        assert_eq!(t.read_verified(second).unwrap(), 0xbbb);
    }

    /// The tree's semantics without the compact storage or the memo: every
    /// tag stored explicitly from construction on, every checked tag
    /// recomputed on every read.
    struct Reference {
        geo: TreeGeometry,
        key: u64,
        digests: Vec<u64>,
        pd_tags: Vec<MacTag>,
        /// Counters of the data lines, then of each level's nodes.
        ctrs: [Vec<u64>; 5],
        macs: [Vec<MacTag>; 4],
        reads: u64,
        writes: u64,
    }

    impl Reference {
        fn new(geo: TreeGeometry, key: u64) -> Self {
            let data = geo.data_lines() as usize;
            let [v, l0, l1, l2] = TreeLevel::ALL.map(|level| geo.lines_at(level) as usize);
            let mut r = Reference {
                geo,
                key,
                digests: vec![0; data],
                pd_tags: vec![MacTag(0); data],
                ctrs: [
                    vec![0; data],
                    vec![0; v],
                    vec![0; l0],
                    vec![0; l1],
                    vec![0; l2],
                ],
                macs: [v, l0, l1, l2].map(|n| vec![MacTag(0); n]),
                reads: 0,
                writes: 0,
            };
            for idx in 0..data {
                r.pd_tags[idx] = r.pd_tag(idx);
            }
            for level in TreeLevel::ALL {
                for node in 0..r.macs[level.ladder_index()].len() {
                    r.macs[level.ladder_index()][node] = r.node_mac(level, node);
                }
            }
            r
        }

        fn pd_tag(&self, idx: usize) -> MacTag {
            MacTag::compute(self.key, idx as u64, self.digests[idx], self.ctrs[0][idx])
        }

        fn node_mac(&self, level: TreeLevel, node: usize) -> MacTag {
            let l = level.ladder_index();
            let children = &self.ctrs[l];
            let start = node * TREE_ARITY;
            let end = (start + TREE_ARITY).min(children.len());
            let payload = fold_payload(children[start..end].iter().copied());
            let tweak = self.geo.level_line(level, node as u64).raw();
            MacTag::compute(self.key, tweak, payload, self.ctrs[l + 1][node])
        }

        fn locate(&self, line: LineAddr) -> (usize, [usize; 4]) {
            let p = self.geo.walk_path(line);
            let path = [p.version, p.l0, p.l1, p.l2].map(|n| n as usize);
            (self.geo.data_line_index(line) as usize, path)
        }

        fn write(&mut self, line: LineAddr, digest: u64) {
            self.writes += 1;
            let (idx, path) = self.locate(line);
            self.ctrs[0][idx] += 1;
            for (l, &node) in path.iter().enumerate() {
                self.ctrs[l + 1][node] += 1;
            }
            self.digests[idx] = digest;
            self.pd_tags[idx] = self.pd_tag(idx);
            for (level, &node) in TreeLevel::ALL.into_iter().zip(&path) {
                self.macs[level.ladder_index()][node] = self.node_mac(level, node);
            }
        }

        fn read_partial(&mut self, line: LineAddr, node_levels: usize) -> Result<u64, ModelError> {
            self.reads += 1;
            let (idx, path) = self.locate(line);
            let violation = |level| Err(ModelError::IntegrityViolation { line, level });
            if self.pd_tags[idx] != self.pd_tag(idx) {
                return violation(0);
            }
            for (level, &node) in TreeLevel::ALL.into_iter().zip(&path).take(node_levels) {
                if self.macs[level.ladder_index()][node] != self.node_mac(level, node) {
                    return violation(level.ladder_index());
                }
            }
            Ok(self.digests[idx])
        }

        fn tamper_counter(&mut self, level: TreeLevel, node: usize) {
            self.ctrs[level.ladder_index()][node * TREE_ARITY] ^= 1;
        }

        fn snapshot(&self, line: LineAddr) -> (u64, MacTag, u64) {
            let (idx, _) = self.locate(line);
            (self.digests[idx], self.pd_tags[idx], self.ctrs[0][idx])
        }

        fn replay(&mut self, line: LineAddr, (digest, tag, ctr): (u64, MacTag, u64)) {
            let (idx, _) = self.locate(line);
            self.digests[idx] = digest;
            self.pd_tags[idx] = tag;
            self.ctrs[0][idx] = ctr;
        }
    }

    /// A small geometry (960 lines; 120 version, 15 L0, 2 L1 and 1 L2
    /// node) whose last L1 and L2 nodes have fewer than eight children.
    fn small_pair() -> (IntegrityTree, Reference) {
        let layout = PhysLayout::new(1 << 20, 80 << 10).unwrap();
        let geo = TreeGeometry::new(layout.prm_data(), layout.prm_tree()).unwrap();
        (IntegrityTree::new(geo, 0x5eed), Reference::new(geo, 0x5eed))
    }

    /// Seeded random sequences of every operation drive the tree and the
    /// eager reference side by side: every result, every reported
    /// violation level and the read/write counts must agree at every step,
    /// and every line must read the same at the end.
    #[test]
    fn matches_eager_reference_model() {
        check(
            "matches_eager_reference_model",
            &PropConfig::from_env(48),
            |rng| {
                let (mut t, mut r) = small_pair();
                let lines = t.geometry().data_lines();
                let mut snapshots: Vec<(u64, MacTag, u64)> = Vec::new();
                let ops = rng.random_range(1usize..120);
                for step in 0..ops {
                    // Half the operations stay under two L0 nodes, so writes,
                    // tampers and memoised reads keep meeting on shared paths.
                    let span = if rng.random_range(0u32..2) == 0 {
                        128
                    } else {
                        lines
                    };
                    let line = data_line(&t, rng.random_range(0..span));
                    match rng.random_range(0u32..16) {
                        0..=4 => {
                            let value = rng.random_range(0u64..4);
                            t.write(line, value).unwrap();
                            r.write(line, value);
                        }
                        5..=8 => {
                            let levels = rng.random_range(0usize..=4);
                            let got = t.read_partial(line, levels);
                            assert_eq!(
                                got,
                                r.read_partial(line, levels),
                                "step {step}: read_partial({levels})"
                            );
                        }
                        9 | 10 => {
                            let got = t.read_verified(line);
                            assert_eq!(got, r.read_partial(line, 4), "step {step}: read_verified");
                        }
                        11 => {
                            t.tamper_digest(line).unwrap();
                            let (idx, _) = r.locate(line);
                            r.digests[idx] ^= 1;
                        }
                        12 => {
                            let level = TreeLevel::ALL[rng.random_range(0usize..4)];
                            let node = rng.random_range(0..t.geometry().lines_at(level));
                            t.tamper_counter(level, node);
                            r.tamper_counter(level, node as usize);
                        }
                        13 => {
                            let snap = t.snapshot(line).unwrap();
                            assert_eq!(snap, r.snapshot(line), "step {step}: snapshot");
                            snapshots.push(snap);
                        }
                        14 if !snapshots.is_empty() => {
                            let snap = snapshots[rng.random_range(0..snapshots.len())];
                            t.replay(line, snap).unwrap();
                            r.replay(line, snap);
                        }
                        _ => assert_eq!(t.peek(line).unwrap(), r.digests[r.locate(line).0]),
                    }
                    assert_eq!((t.reads(), t.writes()), (r.reads, r.writes), "step {step}");
                }
                for i in 0..lines {
                    let line = data_line(&t, i);
                    assert_eq!(
                        t.read_verified(line),
                        r.read_partial(line, 4),
                        "final sweep, line {i}"
                    );
                }
            },
        );
    }
}
