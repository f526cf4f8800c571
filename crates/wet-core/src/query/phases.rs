//! Program-phase analysis over a WET (SimPoint-style).
//!
//! The paper motivates multi-billion-statement WETs by citing
//! SimPoint-family results: "by appropriate selection of smaller
//! segment of a longer program run, program's execution can be
//! effectively characterized" \[17\]. This module provides that analysis
//! *on top of the compressed WET*: the execution is cut into
//! fixed-length intervals, each interval is summarized by its path
//! frequency vector (the path-level analogue of a basic-block vector),
//! and k-means clustering picks representative intervals — simulation
//! points.

use crate::graph::{NodeId, Wet};
use crate::query::cftrace::cf_trace_forward;
use std::collections::HashMap;

/// A sparse path-frequency vector for one interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalVector {
    /// `(node, count)` pairs, sorted by node.
    pub counts: Vec<(NodeId, u32)>,
    /// Total path executions in the interval (== interval length,
    /// except for the final partial interval).
    pub total: u32,
}

impl IntervalVector {
    /// Manhattan distance between two normalized frequency vectors.
    pub fn distance(&self, other: &IntervalVector) -> f64 {
        let mut d = 0.0;
        let (ta, tb) = (self.total.max(1) as f64, other.total.max(1) as f64);
        let mut i = 0;
        let mut j = 0;
        while i < self.counts.len() || j < other.counts.len() {
            match (self.counts.get(i), other.counts.get(j)) {
                (Some(&(na, ca)), Some(&(nb, cb))) => {
                    if na == nb {
                        d += (ca as f64 / ta - cb as f64 / tb).abs();
                        i += 1;
                        j += 1;
                    } else if na < nb {
                        d += ca as f64 / ta;
                        i += 1;
                    } else {
                        d += cb as f64 / tb;
                        j += 1;
                    }
                }
                (Some(&(_, ca)), None) => {
                    d += ca as f64 / ta;
                    i += 1;
                }
                (None, Some(&(_, cb))) => {
                    d += cb as f64 / tb;
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        d
    }
}

/// Splits the execution into intervals of `interval_len` path
/// executions and returns one frequency vector per interval, by walking
/// the (compressed) control-flow trace. A trailing partial interval is
/// dropped (as in SimPoint) unless it is the only one, so a tiny
/// tail cannot masquerade as a phase of its own.
pub fn interval_vectors(wet: &Wet, interval_len: usize) -> Result<Vec<IntervalVector>, crate::query::QueryErr> {
    assert!(interval_len > 0, "interval length must be positive");
    let steps = cf_trace_forward(wet)?;
    let full = steps.len() / interval_len * interval_len;
    let steps = if full > 0 { &steps[..full] } else { &steps[..] };
    let mut out = Vec::with_capacity(steps.len() / interval_len + 1);
    for chunk in steps.chunks(interval_len) {
        let mut freq: HashMap<NodeId, u32> = HashMap::new();
        for s in chunk {
            *freq.entry(s.node).or_default() += 1;
        }
        let mut counts: Vec<(NodeId, u32)> = freq.into_iter().collect();
        counts.sort_by_key(|&(n, _)| n);
        out.push(IntervalVector { counts, total: chunk.len() as u32 });
    }
    Ok(out)
}

/// The result of phase clustering.
#[derive(Debug, Clone)]
pub struct Phases {
    /// Cluster assignment per interval.
    pub assignment: Vec<usize>,
    /// Representative interval index per cluster (closest to centroid)
    /// — the simulation points.
    pub representatives: Vec<usize>,
    /// Cluster population sizes.
    pub sizes: Vec<usize>,
}

/// Clusters interval vectors into `k` phases with deterministic
/// k-means (k-means++-style farthest-point seeding, Manhattan
/// distance, fixed iteration cap).
pub fn cluster_phases(vectors: &[IntervalVector], k: usize) -> Phases {
    let n = vectors.len();
    let k = k.clamp(1, n.max(1));
    if n == 0 {
        return Phases { assignment: Vec::new(), representatives: Vec::new(), sizes: Vec::new() };
    }
    // Farthest-point seeding from interval 0.
    let mut centers: Vec<usize> = vec![0];
    while centers.len() < k {
        let far = (0..n)
            .max_by(|&a, &b| {
                let da = centers.iter().map(|&c| vectors[a].distance(&vectors[c])).fold(f64::MAX, f64::min);
                let db = centers.iter().map(|&c| vectors[b].distance(&vectors[c])).fold(f64::MAX, f64::min);
                da.partial_cmp(&db).expect("distances are finite")
            })
            .expect("n > 0");
        if centers.contains(&far) {
            break; // all remaining points coincide with centers
        }
        centers.push(far);
    }
    let k = centers.len();

    // Lloyd iterations with medoid-style centers (the member closest to
    // the cluster's mean distance), keeping everything deterministic.
    let mut assignment = vec![0usize; n];
    for _round in 0..12 {
        let mut changed = false;
        for i in 0..n {
            let best = (0..k)
                .min_by(|&a, &b| {
                    let da = vectors[i].distance(&vectors[centers[a]]);
                    let db = vectors[i].distance(&vectors[centers[b]]);
                    da.partial_cmp(&db).expect("finite")
                })
                .expect("k > 0");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Recompute medoids.
        #[allow(clippy::needless_range_loop)] // c is the cluster id
        for c in 0..k {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let medoid = *members
                .iter()
                .min_by(|&&a, &&b| {
                    let da: f64 = members.iter().map(|&m| vectors[a].distance(&vectors[m])).sum();
                    let db: f64 = members.iter().map(|&m| vectors[b].distance(&vectors[m])).sum();
                    da.partial_cmp(&db).expect("finite")
                })
                .expect("non-empty");
            centers[c] = medoid;
        }
        if !changed {
            break;
        }
    }
    let mut sizes = vec![0usize; k];
    for &a in &assignment {
        sizes[a] += 1;
    }
    Phases { assignment, representatives: centers, sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WetBuilder, WetConfig};
    use wet_interp::{Interp, InterpConfig};
    use wet_ir::ballarus::BallLarus;
    use wet_ir::builder::ProgramBuilder;
    use wet_ir::stmt::{BinOp, Operand};

    /// Program with two clearly distinct phases: an arithmetic loop
    /// followed by a memory loop.
    fn two_phase_program() -> wet_ir::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        let (e, h1, b1, h2, b2, x) =
            (f.entry_block(), f.new_block(), f.new_block(), f.new_block(), f.new_block(), f.new_block());
        let (i, c, acc, a) = (f.reg(), f.reg(), f.reg(), f.reg());
        f.block(e).movi(i, 0);
        f.block(e).movi(acc, 0);
        f.block(e).jump(h1);
        f.block(h1).bin(BinOp::Lt, c, i, 300i64);
        f.block(h1).branch(c, b1, h2);
        f.block(b1).bin(BinOp::Add, acc, acc, i);
        f.block(b1).bin(BinOp::Add, i, i, 1i64);
        f.block(b1).jump(h1);
        f.block(h2).bin(BinOp::Lt, c, i, 600i64);
        f.block(h2).branch(c, b2, x);
        f.block(b2).bin(BinOp::And, a, i, 63i64);
        f.block(b2).store(a, i);
        f.block(b2).bin(BinOp::Add, i, i, 1i64);
        f.block(b2).jump(h2);
        f.block(x).out(Operand::Reg(acc));
        f.block(x).ret(None);
        let main = f.finish();
        pb.finish(main).unwrap()
    }

    fn build() -> Wet {
        let p = two_phase_program();
        let bl = BallLarus::new(&p);
        let mut builder = WetBuilder::new(&p, &bl, WetConfig::default());
        Interp::new(&p, &bl, InterpConfig::default()).run(&[], &mut builder).unwrap();
        let mut wet = builder.finish();
        wet.compress();
        wet
    }

    #[test]
    fn interval_vectors_cover_the_run() {
        let wet = build();
        let vecs = interval_vectors(&wet, 50).unwrap();
        let total: u32 = vecs.iter().map(|v| v.total).sum();
        // The trailing partial interval is dropped, so coverage is the
        // largest multiple of the interval length.
        let expected = wet.stats().paths_executed / 50 * 50;
        assert_eq!(total as u64, expected);
        for v in &vecs {
            let s: u32 = v.counts.iter().map(|&(_, c)| c).sum();
            assert_eq!(s, v.total);
            assert_eq!(v.total, 50);
        }
        // A single short run keeps its only (partial) interval.
        let vecs = interval_vectors(&wet, 1_000_000).unwrap();
        assert_eq!(vecs.len(), 1);
        assert_eq!(vecs[0].total as u64, wet.stats().paths_executed);
    }

    #[test]
    fn two_phases_are_separated() {
        let wet = build();
        let vecs = interval_vectors(&wet, 50).unwrap();
        let phases = cluster_phases(&vecs, 2);
        assert_eq!(phases.assignment.len(), vecs.len());
        // The first interval and the last interval must land in
        // different clusters (arithmetic phase vs memory phase).
        assert_ne!(
            phases.assignment[0],
            phases.assignment[vecs.len() - 2],
            "phases: {:?}",
            phases.assignment
        );
        // Representatives are valid interval indexes.
        for &r in &phases.representatives {
            assert!(r < vecs.len());
        }
        assert_eq!(phases.sizes.iter().sum::<usize>(), vecs.len());
    }

    #[test]
    fn distance_is_metric_like() {
        let a = IntervalVector { counts: vec![(NodeId(0), 10)], total: 10 };
        let b = IntervalVector { counts: vec![(NodeId(1), 10)], total: 10 };
        assert_eq!(a.distance(&a), 0.0);
        assert!((a.distance(&b) - 2.0).abs() < 1e-12, "disjoint normalized vectors have distance 2");
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn degenerate_inputs() {
        let phases = cluster_phases(&[], 3);
        assert!(phases.assignment.is_empty());
        let v = vec![IntervalVector { counts: vec![(NodeId(0), 5)], total: 5 }];
        let p1 = cluster_phases(&v, 5);
        assert_eq!(p1.assignment, vec![0]);
        assert_eq!(p1.representatives.len(), 1);
    }
}
