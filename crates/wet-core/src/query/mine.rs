//! Profile-mining helpers over a WET — the "analysis of profiles to
//! identify program characteristics" the paper's introduction motivates:
//! hot paths (for path-sensitive optimization), value locality (for
//! value prediction and specialization), and isomorphic statements
//! (statements that always compute the same values, the paper's
//! citation \[21\]).

use crate::graph::{NodeId, Wet};
use crate::query::engine::value_trace;
use std::collections::HashMap;
use wet_ir::{BlockId, FuncId, StmtId};

/// One hot path: a WET node and its execution count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotPath {
    /// The node.
    pub node: NodeId,
    /// Containing function.
    pub func: FuncId,
    /// The path's block sequence.
    pub blocks: Vec<BlockId>,
    /// Executions.
    pub count: u64,
}

/// The `n` most frequently executed paths (Ball–Larus hot paths,
/// recovered directly from node execution counts — no traversal
/// needed).
pub fn hot_paths(wet: &Wet, n: usize) -> Vec<HotPath> {
    let mut v: Vec<HotPath> = wet
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, nd)| nd.n_execs > 0)
        .map(|(i, nd)| HotPath {
            node: NodeId(i as u32),
            func: nd.func,
            blocks: nd.blocks.clone(),
            count: nd.n_execs as u64,
        })
        .collect();
    v.sort_by_key(|h| std::cmp::Reverse(h.count));
    v.truncate(n);
    v
}

/// Value-locality statistics of one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueLocality {
    /// Dynamic executions.
    pub execs: u64,
    /// Distinct values produced.
    pub distinct: u64,
    /// Fraction of executions producing the most frequent value.
    pub top_share: f64,
    /// The most frequent value.
    pub top_value: i64,
    /// Fraction of executions repeating the immediately previous value
    /// (last-value predictability).
    pub last_value_rate: f64,
}

/// Computes value locality for a statement, or `None` if it has no
/// def port, never executed, or its value streams were lost to salvage
/// (use [`crate::query::value_trace_partial`] to distinguish).
pub fn value_locality(wet: &Wet, stmt: StmtId) -> Option<ValueLocality> {
    let trace = value_trace(wet, stmt, wet.config().stream.num_threads).ok()?;
    if trace.is_empty() {
        return None;
    }
    let mut freq: HashMap<i64, u64> = HashMap::new();
    let mut last_hits = 0u64;
    let mut prev = None;
    for &(_, v) in &trace {
        *freq.entry(v).or_default() += 1;
        if prev == Some(v) {
            last_hits += 1;
        }
        prev = Some(v);
    }
    let (&top_value, &top_n) = freq.iter().max_by_key(|(_, &n)| n)?;
    let n = trace.len() as u64;
    Some(ValueLocality {
        execs: n,
        distinct: freq.len() as u64,
        top_share: top_n as f64 / n as f64,
        top_value,
        last_value_rate: last_hits as f64 / n as f64,
    })
}

/// Finds groups of *isomorphic* statements: statements whose entire
/// dynamic value sequences are identical (cf. the paper's reference to
/// instruction isomorphism \[21\]). Returns groups of two or more
/// statements, largest first.
///
/// Statements with fewer than `min_execs` executions — or whose value
/// streams were lost to salvage — are ignored.
pub fn isomorphic_statements(wet: &Wet, stmts: &[StmtId], min_execs: usize) -> Vec<Vec<StmtId>> {
    let mut by_hash: HashMap<u64, Vec<(StmtId, Vec<i64>)>> = HashMap::new();
    for &s in stmts {
        let Ok(trace) = value_trace(wet, s, wet.config().stream.num_threads) else { continue };
        let vals: Vec<i64> = trace.into_iter().map(|(_, v)| v).collect();
        if vals.len() < min_execs {
            continue;
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for &v in &vals {
            h ^= v as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= vals.len() as u64;
        by_hash.entry(h).or_default().push((s, vals));
    }
    let mut groups = Vec::new();
    for (_, cands) in by_hash {
        // Verify exact equality within each hash bucket.
        let mut remaining = cands;
        while let Some((s0, v0)) = remaining.pop() {
            let (same, rest): (Vec<_>, Vec<_>) = remaining.into_iter().partition(|(_, v)| *v == v0);
            remaining = rest;
            if !same.is_empty() {
                let mut g: Vec<StmtId> = std::iter::once(s0).chain(same.into_iter().map(|(s, _)| s)).collect();
                g.sort();
                groups.push(g);
            }
        }
    }
    groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WetBuilder, WetConfig};
    use wet_interp::{Interp, InterpConfig};
    use wet_ir::ballarus::BallLarus;
    use wet_ir::builder::ProgramBuilder;
    use wet_ir::stmt::{BinOp, Operand};

    fn sample() -> (wet_ir::Program, Wet) {
        // Loop where two statements compute identical sequences
        // (x = i + i and y = i * 2) and one runs rarely.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        let (e, h, b, r, x2) = (f.entry_block(), f.new_block(), f.new_block(), f.new_block(), f.new_block());
        let (i, c, x, y, z) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
        f.block(e).movi(i, 0);
        f.block(e).jump(h);
        f.block(h).bin(BinOp::Lt, c, i, 30i64);
        f.block(h).branch(c, b, x2);
        f.block(b).bin(BinOp::Add, x, i, i);
        f.block(b).bin(BinOp::Mul, y, i, 2i64);
        f.block(b).bin(BinOp::Eq, c, i, 7i64);
        f.block(b).bin(BinOp::Add, i, i, 1i64);
        f.block(b).branch(c, r, h);
        f.block(r).bin(BinOp::Add, z, x, 1i64);
        f.block(r).jump(h);
        f.block(x2).out(Operand::Reg(x));
        f.block(x2).ret(None);
        let main = f.finish();
        let p = pb.finish(main).unwrap();
        let bl = BallLarus::new(&p);
        let mut builder = WetBuilder::new(&p, &bl, WetConfig::default());
        Interp::new(&p, &bl, InterpConfig::default()).run(&[], &mut builder).unwrap();
        let mut wet = builder.finish();
        wet.compress();
        (p, wet)
    }

    #[test]
    fn hot_paths_ranked_by_count() {
        let (_p, wet) = sample();
        let hot = hot_paths(&wet, 3);
        assert!(!hot.is_empty());
        for w in hot.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        // The loop body path dominates (~29 of ~31 paths).
        assert!(hot[0].count >= 20, "hot path count {}", hot[0].count);
    }

    #[test]
    fn value_locality_detects_increment() {
        let (p, wet) = sample();
        // Statement 0 is `i = 0` (constant); i's increment is inside
        // the loop. Check a def statement with all-distinct values.
        let add_x = wet_ir::StmtId(4); // x = i + i
        let loc = value_locality(&wet, add_x).expect("has values");
        assert_eq!(loc.execs, 30);
        assert_eq!(loc.distinct, 30, "x takes 30 distinct values");
        assert!(loc.last_value_rate < 0.05);
        // A never-executed or defless statement yields None.
        let store_like = p.function(p.main()).block(wet_ir::BlockId(0)).term().id;
        assert!(value_locality(&wet, store_like).is_none());
    }

    #[test]
    fn isomorphism_finds_equal_sequences() {
        let (p, wet) = sample();
        let all: Vec<StmtId> = (0..p.stmt_count() as u32).map(StmtId).collect();
        let groups = isomorphic_statements(&wet, &all, 5);
        // x = i + i and y = i * 2 are isomorphic.
        assert!(
            groups.iter().any(|g| g.contains(&StmtId(4)) && g.contains(&StmtId(5))),
            "expected {{s4, s5}} in {groups:?}"
        );
    }
}
