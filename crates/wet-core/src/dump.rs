//! Human-readable rendering of WET subgraphs — the view the paper's
//! Figure 1(b) draws: a statement's `<ts, val>` label sequence, its
//! incoming `DD` and `CD` edges with their timestamp-pair labels, and
//! the unlabeled `CF` edges of its node.

use crate::graph::{NodeId, TsMode, Wet, SLOT_CD, SLOT_MEM, SLOT_OP0, SLOT_OP1};
use crate::seq::{Cursor, Seq};
use std::fmt::Write as _;
use wet_ir::{Program, StmtId};

fn slot_name(slot: u8) -> &'static str {
    match slot {
        SLOT_OP0 => "DD(op0)",
        SLOT_OP1 => "DD(op1)",
        SLOT_MEM => "DD(mem)",
        SLOT_CD => "CD",
        _ => "??",
    }
}

/// Renders up to `max` elements of a label sequence as `<a, b>` pairs.
fn fmt_pairs(dst: &[u64], src: &[u64], max: usize) -> String {
    let mut s = String::from("[");
    for i in 0..dst.len().min(max) {
        let _ = write!(s, "<{},{}> ", dst[i], src[i]);
    }
    if dst.len() > max {
        let _ = write!(s, "... {} total", dst.len());
    }
    s.trim_end().to_string() + "]"
}

/// Renders one node: its blocks, timestamp labels, per-statement value
/// labels, intra/inter dependence edges, and CF neighbours.
pub fn dump_node(wet: &Wet, program: &Program, node: NodeId, max: usize) -> String {
    let mut out = String::new();
    let (func, path_id, blocks, n_execs) = {
        let n = wet.node(node);
        (n.func, n.path_id, n.blocks.clone(), n.n_execs)
    };
    let fname = program.function(func).name().to_string();
    let _ = writeln!(
        out,
        "node n{} = path {} of {fname} (blocks {:?}), {} executions",
        node.0,
        path_id,
        blocks.iter().map(|b| b.0).collect::<Vec<_>>(),
        n_execs
    );
    let ts = wet.node(node).ts.to_vec_snapshot();
    let shown: Vec<String> = ts.iter().take(max).map(|t| t.to_string()).collect();
    let _ = writeln!(
        out,
        "  ts: [{}{}]",
        shown.join(" "),
        if ts.len() > max { format!(" ... {} total", ts.len()) } else { String::new() }
    );

    let stmt_ids: Vec<StmtId> = wet.node(node).stmts.iter().map(|s| s.id).collect();
    for stmt in stmt_ids {
        out.push_str(&dump_stmt_in_node(wet, program, node, stmt, max));
    }
    let n = wet.node(node);
    let _ = writeln!(
        out,
        "  CF: preds {:?} succs {:?}",
        n.cf_preds.iter().map(|p| p.0).collect::<Vec<_>>(),
        n.cf_succs.iter().map(|p| p.0).collect::<Vec<_>>()
    );
    out
}

/// Renders one statement occurrence: value labels plus incoming edges.
pub fn dump_stmt_in_node(wet: &Wet, program: &Program, node: NodeId, stmt: StmtId, max: usize) -> String {
    let mut out = String::new();
    let Some(pos) = wet.node(node).stmt_pos(stmt) else {
        return out;
    };
    let ns = wet.node(node).stmts[pos];
    let _ = write!(out, "  {stmt}");
    if ns.has_def {
        let n_execs = wet.node(node).n_execs as usize;
        let mut cur = Cursor::new(wet);
        let vals: Vec<String> = (0..n_execs.min(max))
            .map(|k| {
                let t = cur.get(&wet.node(node).ts, k);
                let v = cur.value_at(node, stmt, k).unwrap_or(0);
                format!("<{t},{v}>")
            })
            .collect();
        let _ = write!(
            out,
            ": [{}{}]",
            vals.join(" "),
            if n_execs > max { format!(" ... {n_execs} total") } else { String::new() }
        );
    }
    out.push('\n');

    // Intra edges of this statement (and its block's CD anchor).
    let block = {
        let n = wet.node(node);
        n.blocks[ns.block_idx as usize]
    };
    let func = wet.node(node).func;
    let anchor = program.function(func).block(block).term().id;
    for (dst, label) in [(stmt, "deps"), (anchor, "block CD")] {
        for (&(d, slot), ies) in &wet.node(node).intra {
            if d != dst || (slot == SLOT_CD) != (label == "block CD") {
                continue;
            }
            for ie in ies {
                let desc = if ie.complete {
                    format!("{} (intra, labels inferred)", ie.src)
                } else {
                    let ks = ie.ks.as_ref().map(Seq::to_vec_snapshot).unwrap_or_default();
                    format!("{} (intra, partial {})", ie.src, fmt_pairs(&ks, &ks, max))
                };
                let _ = writeln!(out, "    {} <- {}", slot_name(slot), desc);
            }
        }
        // Non-local incoming edges.
        for slot in [SLOT_OP0, SLOT_OP1, SLOT_MEM, SLOT_CD] {
            if (slot == SLOT_CD) != (label == "block CD") {
                continue;
            }
            for &ei in wet.in_edges(node, dst, slot) {
                let e = wet.edges()[ei as usize];
                let lab = &wet.labels()[e.labels as usize];
                let (dv, sv, len) = (lab.dst.to_vec_snapshot(), lab.src.to_vec_snapshot(), lab.len);
                let mode = match wet.config().ts_mode {
                    TsMode::Local => "local",
                    TsMode::Global => "global",
                };
                let _ = writeln!(
                    out,
                    "    {} <- {} @ n{} {} {} ({} pairs, shared label #{})",
                    slot_name(slot),
                    e.src_stmt,
                    e.src_node.0,
                    fmt_pairs(&dv, &sv, max),
                    mode,
                    len,
                    e.labels
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WetBuilder, WetConfig};
    use wet_interp::{Interp, InterpConfig};
    use wet_ir::ballarus::BallLarus;
    use wet_ir::builder::ProgramBuilder;
    use wet_ir::stmt::{BinOp, Operand};

    #[test]
    fn dump_shows_labels_and_edges() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        let (e, h, b, x) = (f.entry_block(), f.new_block(), f.new_block(), f.new_block());
        let (i, c) = (f.reg(), f.reg());
        f.block(e).movi(i, 0);
        f.block(e).jump(h);
        f.block(h).bin(BinOp::Lt, c, i, 5i64);
        f.block(h).branch(c, b, x);
        f.block(b).bin(BinOp::Add, i, i, 1i64);
        f.block(b).jump(h);
        f.block(x).out(Operand::Reg(i));
        f.block(x).ret(None);
        let main = f.finish();
        let p = pb.finish(main).unwrap();
        let bl = BallLarus::new(&p);
        let mut builder = WetBuilder::new(&p, &bl, WetConfig::default());
        Interp::new(&p, &bl, InterpConfig::default()).run(&[], &mut builder).unwrap();
        let mut wet = builder.finish();
        wet.compress();

        let mut all = String::new();
        for i in 0..wet.nodes().len() {
            all.push_str(&dump_node(&wet, &p, NodeId(i as u32), 6));
        }
        assert!(all.contains("node n0"), "{all}");
        assert!(all.contains("ts:"), "{all}");
        assert!(all.contains("DD(op0) <-"), "{all}");
        assert!(all.contains("CD <-"), "{all}");
        assert!(all.contains("CF: preds"), "{all}");
        assert!(all.contains("inferred") || all.contains("pairs"), "{all}");
    }
}
