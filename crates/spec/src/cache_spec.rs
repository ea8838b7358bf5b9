//! Cache- and policy-level invariants.
//!
//! Three of the eight registry invariants live at this layer:
//!
//! * `plru-within-lru` — Tree-PLRU is the paper's "approximate LRU" (§5.3).
//!   The spec makes that precise in two checkable pieces: at 2 ways the tree
//!   degenerates to a single bit and must match exact LRU *move for move*
//!   (same hits, same evictions, under accesses, invalidations, and way
//!   masks); at any width a full-mask access must never evict the
//!   most-recently-used resident line.
//! * `victim-from-allowed-ways` — whatever state a policy is in, `victim`
//!   must return an allowed way for every non-empty mask (the §5.5
//!   way-partitioning mitigation depends on this).
//! * `invalidated-way-preferred` — after a fill/hit history touching every
//!   way, invalidating a way must make it the next full-mask victim (the bug
//!   class fixed in this PR: stale PLRU bits surviving `on_invalidate`).

use mee_cache::policy::{Fifo, Nru, Policy, RandomEviction, Srrip, TreePlru, TrueLru};
use mee_cache::{CacheConfig, ReplacementPolicy, SetAssocCache};
use mee_types::LineAddr;

use crate::counterexample::{parse_config, require, require_usize, Counterexample};
use crate::enumerate::for_each_program;
use crate::Budget;

/// Seed used whenever the `random` policy participates in a deterministic
/// enumeration.
pub const RANDOM_POLICY_SEED: u64 = 0xbeef;

/// Policies with deterministic victim choice (everything but `random`).
pub const DETERMINISTIC_POLICIES: [&str; 5] = ["tree-plru", "lru", "fifo", "nru", "srrip"];

/// All policy names, including the seeded `random`.
pub const ALL_POLICIES: [&str; 6] = ["tree-plru", "lru", "fifo", "nru", "srrip", "random"];

/// Instantiates a policy by its `name()` string.
///
/// # Errors
///
/// Returns a message for unknown names.
pub fn policy_by_name(name: &str) -> Result<Policy, String> {
    Ok(match name {
        "tree-plru" => TreePlru::new().into(),
        "lru" => TrueLru::new().into(),
        "fifo" => Fifo::new().into(),
        "nru" => Nru::new().into(),
        "srrip" => Srrip::new().into(),
        "random" => RandomEviction::with_seed(RANDOM_POLICY_SEED).into(),
        other => return Err(format!("unknown policy {other:?}")),
    })
}

// ---------------------------------------------------------------------------
// Policy-level ops (invariants 4 and 5)
// ---------------------------------------------------------------------------

/// One operation against a bare [`ReplacementPolicy`] (always set 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyOp {
    /// `on_fill(0, way)`.
    Fill(usize),
    /// `on_hit(0, way)`.
    Hit(usize),
    /// `on_invalidate(0, way)`.
    Inval(usize),
}

/// Formats a policy trace in its compact token form (`f0 h1 i2`).
pub fn fmt_policy_ops(ops: &[PolicyOp]) -> String {
    let tokens: Vec<String> = ops
        .iter()
        .map(|op| match op {
            PolicyOp::Fill(w) => format!("f{w}"),
            PolicyOp::Hit(w) => format!("h{w}"),
            PolicyOp::Inval(w) => format!("i{w}"),
        })
        .collect();
    tokens.join(" ")
}

/// Parses the output of [`fmt_policy_ops`].
///
/// # Errors
///
/// Returns a message naming the first malformed token.
pub fn parse_policy_ops(trace: &str) -> Result<Vec<PolicyOp>, String> {
    trace
        .split_whitespace()
        .map(|tok| {
            let bad = || format!("malformed policy op {tok:?} (expected f<w>, h<w>, or i<w>)");
            let way: usize = tok[1..].parse().map_err(|_| bad())?;
            match tok.as_bytes().first() {
                Some(b'f') => Ok(PolicyOp::Fill(way)),
                Some(b'h') => Ok(PolicyOp::Hit(way)),
                Some(b'i') => Ok(PolicyOp::Inval(way)),
                _ => Err(bad()),
            }
        })
        .collect()
}

fn replay_policy(policy: &mut dyn ReplacementPolicy, ops: &[PolicyOp]) {
    for op in ops {
        match *op {
            PolicyOp::Fill(w) => policy.on_fill(0, w),
            PolicyOp::Hit(w) => policy.on_hit(0, w),
            PolicyOp::Inval(w) => policy.on_invalidate(0, w),
        }
    }
}

/// `victim-from-allowed-ways`: replays `ops`, then queries `victim` with
/// every non-empty way mask and demands an allowed answer each time.
///
/// # Errors
///
/// Returns the violation detail.
pub fn check_victim_from_allowed(
    policy_name: &str,
    ways: usize,
    ops: &[PolicyOp],
) -> Result<(), String> {
    let mut policy = policy_by_name(policy_name)?;
    policy.attach(1, ways);
    replay_policy(&mut policy, ops);
    for mask_bits in 1u32..(1 << ways) {
        let allowed: Vec<bool> = (0..ways).map(|w| mask_bits & (1 << w) != 0).collect();
        let v = policy.victim(0, &allowed);
        if v >= ways || !allowed[v] {
            return Err(format!(
                "victim(allowed={mask_bits:#b}) returned way {v}, which is not allowed"
            ));
        }
    }
    Ok(())
}

/// `invalidated-way-preferred`: the trace must end in `i<w>`; after replaying
/// it, the next full-mask victim must be exactly `w`.
///
/// Holds for every deterministic policy given a fill/hit-only prefix that
/// filled each way at least once (the enumerator guarantees that shape;
/// replayed traces are checked for it).
///
/// # Errors
///
/// Returns the violation detail, or a message if the trace has the wrong
/// shape.
pub fn check_invalidated_preferred(
    policy_name: &str,
    ways: usize,
    ops: &[PolicyOp],
) -> Result<(), String> {
    let Some(&PolicyOp::Inval(target)) = ops.last() else {
        return Err("trace must end with an i<w> op".into());
    };
    if ops[..ops.len() - 1]
        .iter()
        .any(|op| matches!(op, PolicyOp::Inval(_)))
    {
        return Err("trace must contain exactly one i<w> op, at the end".into());
    }
    let mut filled = vec![false; ways];
    for op in &ops[..ops.len() - 1] {
        if let PolicyOp::Fill(w) = *op {
            filled[w] = true;
        }
    }
    if !filled.iter().all(|&f| f) {
        return Err("trace must fill every way before the invalidate".into());
    }
    let mut policy = policy_by_name(policy_name)?;
    policy.attach(1, ways);
    replay_policy(&mut policy, ops);
    let allowed = vec![true; ways];
    let v = policy.victim(0, &allowed);
    if v != target {
        return Err(format!(
            "after invalidating way {target}, victim chose way {v} (stale replacement state)"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Cache-level ops (invariant 3)
// ---------------------------------------------------------------------------

/// One operation against a whole [`SetAssocCache`]. Line indices are dense
/// small integers (the line *is* its index; with one set they all collide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// Full-mask access.
    Access(u64),
    /// Invalidate the line if resident.
    Inval(u64),
    /// `access_in_ways` with the given mask bits (bit `w` = way `w` allowed).
    Masked(u32, u64),
}

/// Formats a cache trace (`a0 i1 m1:2` — masks in hex).
pub fn fmt_cache_ops(ops: &[CacheOp]) -> String {
    let tokens: Vec<String> = ops
        .iter()
        .map(|op| match op {
            CacheOp::Access(l) => format!("a{l}"),
            CacheOp::Inval(l) => format!("i{l}"),
            CacheOp::Masked(m, l) => format!("m{m:x}:{l}"),
        })
        .collect();
    tokens.join(" ")
}

/// Parses the output of [`fmt_cache_ops`].
///
/// # Errors
///
/// Returns a message naming the first malformed token.
pub fn parse_cache_ops(trace: &str) -> Result<Vec<CacheOp>, String> {
    trace
        .split_whitespace()
        .map(|tok| {
            let bad = || format!("malformed cache op {tok:?} (expected a<l>, i<l>, or m<mask>:<l>)");
            match tok.as_bytes().first() {
                Some(b'a') => tok[1..].parse().map(CacheOp::Access).map_err(|_| bad()),
                Some(b'i') => tok[1..].parse().map(CacheOp::Inval).map_err(|_| bad()),
                Some(b'm') => {
                    let (mask, line) = tok[1..].split_once(':').ok_or_else(bad)?;
                    let mask = u32::from_str_radix(mask, 16).map_err(|_| bad())?;
                    if mask == 0 {
                        return Err("way mask must allow at least one way".into());
                    }
                    Ok(CacheOp::Masked(mask, line.parse().map_err(|_| bad())?))
                }
                _ => Err(bad()),
            }
        })
        .collect()
}

fn mask_vec(bits: u32, ways: usize) -> Vec<bool> {
    (0..ways).map(|w| bits & (1 << w) != 0).collect()
}

/// `plru-within-lru`, exact half: at the given tiny geometry, a Tree-PLRU
/// cache and a true-LRU cache must produce identical access results (hit
/// flag *and* evicted line) on every op of the trace.
///
/// # Errors
///
/// Returns the step at which the two caches diverged.
pub fn check_plru_matches_lru(sets: usize, ways: usize, ops: &[CacheOp]) -> Result<(), String> {
    let cfg = CacheConfig {
        sets,
        ways,
        line_size: 64,
    };
    let mut plru = SetAssocCache::new(cfg, TreePlru::new());
    let mut lru = SetAssocCache::new(cfg, TrueLru::new());
    for (i, op) in ops.iter().enumerate() {
        match *op {
            CacheOp::Access(l) => {
                let line = LineAddr::new(l);
                let (a, b) = (plru.access(line), lru.access(line));
                if a != b {
                    return Err(format!(
                        "step {i} (access {l}): tree-plru {a:?} differs from lru {b:?}"
                    ));
                }
            }
            CacheOp::Masked(m, l) => {
                let line = LineAddr::new(l);
                let mask = mask_vec(m, ways);
                let (a, b) = (
                    plru.access_in_ways(line, &mask),
                    lru.access_in_ways(line, &mask),
                );
                if a != b {
                    return Err(format!(
                        "step {i} (masked {m:#x} access {l}): tree-plru {a:?} differs from lru {b:?}"
                    ));
                }
            }
            CacheOp::Inval(l) => {
                let line = LineAddr::new(l);
                let (a, b) = (plru.invalidate(line), lru.invalidate(line));
                if a != b {
                    return Err(format!(
                        "step {i} (invalidate {l}): residency disagreed ({a} vs {b})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// `plru-within-lru`, containment half: on full-mask traces the policy must
/// never evict the most-recently-used resident line of a set (the defining
/// property Tree-PLRU shares with exact LRU).
///
/// Only meaningful for `tree-plru` and `lru`; masked ops are rejected (a
/// singleton mask can legitimately force the MRU way out).
///
/// # Errors
///
/// Returns the step at which the MRU line was evicted.
pub fn check_never_evicts_mru(policy_name: &str, ways: usize, ops: &[CacheOp]) -> Result<(), String> {
    let cfg = CacheConfig {
        sets: 1,
        ways,
        line_size: 64,
    };
    let mut cache = SetAssocCache::new(cfg, policy_by_name(policy_name)?);
    let mut mru: Option<LineAddr> = None;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            CacheOp::Access(l) => {
                let line = LineAddr::new(l);
                let r = cache.access(line);
                if r.evicted.is_some() && r.evicted == mru {
                    return Err(format!(
                        "step {i} (access {l}): evicted line {} was the most recently used",
                        mru.expect("checked Some").raw()
                    ));
                }
                mru = Some(line);
            }
            CacheOp::Inval(l) => {
                let line = LineAddr::new(l);
                cache.invalidate(line);
                if mru == Some(line) {
                    mru = None;
                }
            }
            CacheOp::Masked(..) => {
                return Err("mru traces must not contain masked ops".into());
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Enumeration
// ---------------------------------------------------------------------------

fn push(out: &mut Vec<Counterexample>, budget: &Budget, cx: Counterexample) -> bool {
    out.push(cx);
    out.len() < budget.max_counterexamples
}

/// Exhaustively checks `victim-from-allowed-ways` and
/// `invalidated-way-preferred` for every policy at 2 and 4 ways.
pub fn enumerate_policy_invariants(budget: &Budget, out: &mut Vec<Counterexample>) {
    // Invariant 4: arbitrary fill/hit/invalidate histories, every mask.
    for policy in ALL_POLICIES {
        for ways in [2usize, 4] {
            let symbols = 3 * ways; // fill/hit/inval × way
            let mut go = true;
            for_each_program(symbols, budget.policy_len, |prog| {
                let ops: Vec<PolicyOp> = prog
                    .iter()
                    .map(|&s| match s / ways {
                        0 => PolicyOp::Fill(s % ways),
                        1 => PolicyOp::Hit(s % ways),
                        _ => PolicyOp::Inval(s % ways),
                    })
                    .collect();
                if let Err(detail) = check_victim_from_allowed(policy, ways, &ops) {
                    go = push(
                        out,
                        budget,
                        Counterexample {
                            invariant: "victim-from-allowed-ways",
                            config: format!("policy={policy} ways={ways}"),
                            trace: fmt_policy_ops(&ops),
                            detail,
                            seed: None,
                        },
                    );
                }
                go
            });
            if !go {
                return;
            }
        }
    }

    // Invariant 5: fill-all prefix, fill/hit suffix, single trailing inval.
    for policy in DETERMINISTIC_POLICIES {
        for ways in [2usize, 4] {
            let prefix: Vec<PolicyOp> = (0..ways).map(PolicyOp::Fill).collect();
            let symbols = 2 * ways; // fill/hit × way
            let mut go = true;
            for_each_program(symbols, budget.policy_len, |prog| {
                let mut ops = prefix.clone();
                ops.extend(prog.iter().map(|&s| {
                    if s < ways {
                        PolicyOp::Fill(s)
                    } else {
                        PolicyOp::Hit(s - ways)
                    }
                }));
                for target in 0..ways {
                    let mut trace = ops.clone();
                    trace.push(PolicyOp::Inval(target));
                    if let Err(detail) = check_invalidated_preferred(policy, ways, &trace) {
                        go = push(
                            out,
                            budget,
                            Counterexample {
                                invariant: "invalidated-way-preferred",
                                config: format!("policy={policy} ways={ways}"),
                                trace: fmt_policy_ops(&trace),
                                detail,
                                seed: None,
                            },
                        );
                        if !go {
                            break;
                        }
                    }
                }
                go
            });
            if !go {
                return;
            }
        }
    }
}

/// Exhaustively checks both halves of `plru-within-lru`.
pub fn enumerate_plru_within_lru(budget: &Budget, out: &mut Vec<Counterexample>) {
    // Exact half: 1 set × 2 ways, lines 0..4, accesses + invals + the two
    // singleton way masks.
    const LINES: u64 = 4;
    let symbols = 4 * LINES as usize; // access, inval, mask=1 access, mask=2 access
    let mut go = true;
    for_each_program(symbols, budget.cache_len, |prog| {
        let ops: Vec<CacheOp> = prog
            .iter()
            .map(|&s| {
                let line = (s as u64) % LINES;
                match s / LINES as usize {
                    0 => CacheOp::Access(line),
                    1 => CacheOp::Inval(line),
                    2 => CacheOp::Masked(0b01, line),
                    _ => CacheOp::Masked(0b10, line),
                }
            })
            .collect();
        if let Err(detail) = check_plru_matches_lru(1, 2, &ops) {
            go = push(
                out,
                budget,
                Counterexample {
                    invariant: "plru-within-lru",
                    config: "mode=equiv sets=1 ways=2".into(),
                    trace: fmt_cache_ops(&ops),
                    detail,
                    seed: None,
                },
            );
        }
        go
    });
    if !go {
        return;
    }

    // Containment half: 1 set × 4 ways, lines 0..6, accesses + invals.
    const MRU_LINES: u64 = 6;
    for policy in ["tree-plru", "lru"] {
        let mut go = true;
        for_each_program(2 * MRU_LINES as usize, budget.cache_len, |prog| {
            let ops: Vec<CacheOp> = prog
                .iter()
                .map(|&s| {
                    let line = (s as u64) % MRU_LINES;
                    if s < MRU_LINES as usize {
                        CacheOp::Access(line)
                    } else {
                        CacheOp::Inval(line)
                    }
                })
                .collect();
            if let Err(detail) = check_never_evicts_mru(policy, 4, &ops) {
                go = push(
                    out,
                    budget,
                    Counterexample {
                        invariant: "plru-within-lru",
                        config: format!("mode=mru policy={policy} ways=4"),
                        trace: fmt_cache_ops(&ops),
                        detail,
                        seed: None,
                    },
                );
            }
            go
        });
        if !go {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Replays a policy-domain recipe (invariants 4 and 5).
///
/// # Errors
///
/// Returns a message for malformed configs or traces.
pub fn replay_policy_recipe(
    invariant: &'static str,
    config: &str,
    trace: &str,
) -> Result<Option<Counterexample>, String> {
    let map = parse_config(config)?;
    let policy = require(&map, "policy")?.to_owned();
    let ways = require_usize(&map, "ways")?;
    let ops = parse_policy_ops(trace)?;
    let result = match invariant {
        "victim-from-allowed-ways" => check_victim_from_allowed(&policy, ways, &ops),
        "invalidated-way-preferred" => check_invalidated_preferred(&policy, ways, &ops),
        other => return Err(format!("{other:?} is not a policy-domain invariant")),
    };
    Ok(result.err().map(|detail| Counterexample {
        invariant,
        config: config.to_owned(),
        trace: trace.to_owned(),
        detail,
        seed: None,
    }))
}

/// Replays a `plru-within-lru` recipe.
///
/// # Errors
///
/// Returns a message for malformed configs or traces.
pub fn replay_cache_recipe(config: &str, trace: &str) -> Result<Option<Counterexample>, String> {
    let map = parse_config(config)?;
    let ops = parse_cache_ops(trace)?;
    let result = match require(&map, "mode")? {
        "equiv" => {
            check_plru_matches_lru(require_usize(&map, "sets")?, require_usize(&map, "ways")?, &ops)
        }
        "mru" => check_never_evicts_mru(require(&map, "policy")?, require_usize(&map, "ways")?, &ops),
        other => return Err(format!("unknown plru-within-lru mode {other:?}")),
    };
    Ok(result.err().map(|detail| Counterexample {
        invariant: "plru-within-lru",
        config: config.to_owned(),
        trace: trace.to_owned(),
        detail,
        seed: None,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_ops_round_trip() {
        let ops = vec![PolicyOp::Fill(0), PolicyOp::Hit(3), PolicyOp::Inval(1)];
        let s = fmt_policy_ops(&ops);
        assert_eq!(s, "f0 h3 i1");
        assert_eq!(parse_policy_ops(&s).unwrap(), ops);
        assert!(parse_policy_ops("x9").is_err());
    }

    #[test]
    fn cache_ops_round_trip() {
        let ops = vec![
            CacheOp::Access(2),
            CacheOp::Masked(0xd, 4),
            CacheOp::Inval(0),
        ];
        let s = fmt_cache_ops(&ops);
        assert_eq!(s, "a2 md:4 i0");
        assert_eq!(parse_cache_ops(&s).unwrap(), ops);
        assert!(parse_cache_ops("m0:1").is_err(), "empty mask must be rejected");
    }

    /// The exact trace that exposed the pre-fix Tree-PLRU bug: stale tree
    /// bits after `on_invalidate` steered the victim away from the freed way.
    #[test]
    fn pinned_plru_invalidate_traces_pass_post_fix() {
        for (ways, trace) in [(2, "f0 f1 i1"), (4, "f0 f1 f2 f3 i2")] {
            let ops = parse_policy_ops(trace).unwrap();
            check_invalidated_preferred("tree-plru", ways, &ops)
                .unwrap_or_else(|e| panic!("pinned trace {trace:?} regressed: {e}"));
        }
    }

    #[test]
    fn malformed_inval_traces_are_rejected() {
        let ops = parse_policy_ops("f0 f1").unwrap();
        assert!(check_invalidated_preferred("lru", 2, &ops).is_err());
        let ops = parse_policy_ops("f0 i0 f1 i1").unwrap();
        assert!(check_invalidated_preferred("lru", 2, &ops).is_err());
        let ops = parse_policy_ops("f0 i1").unwrap();
        assert!(check_invalidated_preferred("lru", 2, &ops).is_err());
    }

    #[test]
    fn victim_from_allowed_accepts_all_policies() {
        let ops = parse_policy_ops("f0 f1 h0 i1").unwrap();
        for policy in ALL_POLICIES {
            check_victim_from_allowed(policy, 4, &ops)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }

    #[test]
    fn two_way_equivalence_on_the_invalidate_trace() {
        // Access 0, access 1, invalidate 1, access 2 (fills the freed way on
        // both), access 3 (forces a victim decision): must agree.
        let ops = parse_cache_ops("a0 a1 i1 a2 a3").unwrap();
        check_plru_matches_lru(1, 2, &ops).unwrap();
    }
}
