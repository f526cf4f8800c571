//! Debugging with WET slices: find the origin of a wrong output.
//!
//! The program computes per-category totals from a transaction list,
//! but one category's accumulator is clobbered by a planted bug (an
//! aliasing store). The backward WET slice from the wrong output pulls
//! in exactly the statements that influenced it — including the
//! clobbering store — while leaving unrelated categories out.
//!
//! ```sh
//! cargo run --release --example dynamic_slicing
//! ```

use wet::prelude::*;

fn build_buggy_program() -> Result<Program, wet::ir::IrError> {
    // totals[c] live at m[0..4]; transactions are (category, amount)
    // pairs read from input; after the loop the program prints
    // totals[0..4]. Bug: after processing, a "statistics" store writes
    // count into m[2], clobbering category 2's total.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0);
    let (entry, head, body, exit) = (f.entry_block(), f.new_block(), f.new_block(), f.new_block());
    let (n, i, cond, cat, amt, cur, count) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
    f.block(entry).input(n);
    f.block(entry).movi(i, 0);
    f.block(entry).movi(count, 0);
    f.block(entry).jump(head);
    f.block(head).bin(BinOp::Lt, cond, i, n);
    f.block(head).branch(cond, body, exit);
    f.block(body).input(cat);
    f.block(body).input(amt);
    f.block(body).load(cur, cat);
    f.block(body).bin(BinOp::Add, cur, cur, amt);
    f.block(body).store(cat, cur);
    f.block(body).bin(BinOp::Add, count, count, 1i64);
    f.block(body).bin(BinOp::Add, i, i, 1i64);
    f.block(body).jump(head);
    // BUG: intended to store the count at m[10], but stores at m[2].
    let (t0, t1, t2, t3) = (f.reg(), f.reg(), f.reg(), f.reg());
    f.block(exit).store(2i64, count);
    f.block(exit).load(t0, 0i64);
    f.block(exit).load(t1, 1i64);
    f.block(exit).load(t2, 2i64);
    f.block(exit).load(t3, 3i64);
    f.block(exit).out(t0);
    f.block(exit).out(t1);
    f.block(exit).out(t2);
    f.block(exit).out(t3);
    f.block(exit).ret(None);
    let main_fn = f.finish();
    pb.finish(main_fn)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = build_buggy_program()?;

    // Transactions: 12 of them, categories 0..4 round-robin, amount 10.
    let mut inputs = vec![12i64];
    for t in 0..12 {
        inputs.push(t % 4); // category
        inputs.push(10); // amount
    }

    let bl = BallLarus::new(&program);
    let mut builder = WetBuilder::new(&program, &bl, WetConfig::default());
    let result = Interp::new(&program, &bl, InterpConfig::default()).run(&inputs, &mut builder)?;
    let mut wet = builder.finish();
    wet.compress();

    println!("totals printed: {:?}", result.outputs);
    println!("expected:       [30, 30, 30, 30]  -- category 2 is wrong!\n");

    // Slice criterion: the load feeding the third output (t2 = m[2]).
    // Statement ids: find the load whose address operand is Imm(2).
    let load_t2 = (0..program.stmt_count() as u32)
        .map(StmtId)
        .find(|&s| match program.stmt_ref(s) {
            wet::ir::program::StmtRef::Stmt(st) => {
                matches!(st.kind, wet::ir::stmt::StmtKind::Load { addr: Operand::Imm(2), .. })
            }
            _ => false,
        })
        .expect("the t2 load exists");

    // It executes once, in the final path; find its node.
    let last = query::cf_trace_backward(&wet).unwrap()[0];
    let criterion = query::WetSliceElem { node: last.node, stmt: load_t2, k: last.k };
    let slice = query::backward_slice(&wet, &program, criterion, query::SliceSpec::default()).unwrap();

    println!("backward WET slice of the wrong output:");
    println!("  {} dynamic instances, {} static statements", slice.len(), slice.static_stmts().len());

    // The planted bug — the store at m[2] in the exit block — must be
    // in the slice; the loads of other categories must not.
    let bug_store = (0..program.stmt_count() as u32)
        .map(StmtId)
        .find(|&s| match program.stmt_ref(s) {
            wet::ir::program::StmtRef::Stmt(st) => {
                matches!(st.kind, wet::ir::stmt::StmtKind::Store { addr: Operand::Imm(2), .. })
            }
            _ => false,
        })
        .expect("the buggy store exists");
    let in_slice = slice.static_stmts().contains(&bug_store);
    println!("  contains the clobbering `store [2] = count`: {in_slice}");
    assert!(in_slice, "slice must reveal the bug");

    // Show the value flow: the slice includes the count accumulation
    // but not the amount additions of other categories' final values.
    let amount_input = StmtId(4); // `input amt`
    println!(
        "  contains the amount inputs: {} (the clobber hid the real data flow)",
        slice.static_stmts().contains(&amount_input)
    );
    println!("\nverdict: t2 was last written by the statistics store, not the accumulation loop.");
    Ok(())
}
