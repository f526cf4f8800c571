//! Quickstart: build a small program, trace it into a WET, compress,
//! and run every query family.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wet::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little program: sum of squares of 0..100, with memory traffic.
    //
    //   for i in 0..100 { m[i % 8] = i * i; total += m[i % 8] }
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0);
    let (entry, head, body, exit) = (f.entry_block(), f.new_block(), f.new_block(), f.new_block());
    let (i, total, cond, sq, slot) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
    f.block(entry).movi(i, 0);
    f.block(entry).movi(total, 0);
    f.block(entry).jump(head);
    f.block(head).bin(BinOp::Lt, cond, i, 100i64);
    f.block(head).branch(cond, body, exit);
    f.block(body).bin(BinOp::Mul, sq, i, i);
    f.block(body).bin(BinOp::Rem, slot, i, 8i64);
    f.block(body).store(slot, sq);
    f.block(body).load(sq, slot);
    f.block(body).bin(BinOp::Add, total, total, sq);
    f.block(body).bin(BinOp::Add, i, i, 1i64);
    f.block(body).jump(head);
    f.block(exit).out(total);
    f.block(exit).ret(Some(Operand::Reg(total)));
    let main_fn = f.finish();
    let program = pb.finish(main_fn)?;

    // Trace it into a WET.
    let bl = BallLarus::new(&program);
    let mut builder = WetBuilder::new(&program, &bl, WetConfig::default());
    let result = Interp::new(&program, &bl, InterpConfig::default()).run(&[], &mut builder)?;
    let mut wet = builder.finish();
    println!("program output: {:?} (sum of squares 0..100 = 328350)", result.outputs);
    println!("executed {} statements in {} path executions", result.stmts_executed, result.paths_executed);

    // Tier-2 compression.
    wet.compress();
    let s = wet.sizes();
    println!(
        "WET sizes: original {} B -> tier-1 {} B -> tier-2 {} B (ratio {:.1})",
        s.orig_total(),
        s.t1_total(),
        s.t2_total(),
        s.ratio()
    );

    // Query 1: the full control-flow trace, forward and backward.
    let fwd = query::cf_trace_forward(&wet).unwrap();
    let blocks = query::expand_blocks(&wet, &fwd);
    println!("control-flow trace: {} path steps, {} block executions", fwd.len(), blocks.len());

    // Query 2: the load's per-instruction value trace.
    let load_stmt = (0..program.stmt_count() as u32)
        .map(StmtId)
        .find(|&s| {
            matches!(
                program.stmt_ref(s),
                wet::ir::program::StmtRef::Stmt(st)
                    if matches!(st.kind, wet::ir::stmt::StmtKind::Load { .. })
            )
        })
        .expect("program has a load");
    let values = query::value_trace(&wet, load_stmt, 1).unwrap();
    println!("load value trace: first five = {:?}", &values[..5.min(values.len())]);

    // Query 3: its address trace.
    let addrs = query::address_trace(&wet, &program, load_stmt, 1).unwrap();
    println!("load address trace: first five = {:?}", &addrs[..5.min(addrs.len())]);

    // Query 4: a backward WET slice from the last total update.
    let last = query::cf_trace_backward(&wet).unwrap()[0];
    let criterion = query::WetSliceElem { node: last.node, stmt: StmtId(7), k: last.k };
    // stmt 7 is `total += sq` only if it is in the last node; fall back
    // to any def statement of that node.
    let stmt = if wet.node(last.node).stmt_pos(criterion.stmt).is_some() {
        criterion.stmt
    } else {
        wet.node(last.node).stmts.iter().find(|s| s.has_def).expect("def stmt").id
    };
    let slice = query::backward_slice(
        &wet,
        &program,
        query::WetSliceElem { stmt, ..criterion },
        query::SliceSpec::default(),
    ).unwrap();
    println!(
        "backward WET slice from the end: {} dynamic instances over {} static statements",
        slice.len(),
        slice.static_stmts().len()
    );
    Ok(())
}
