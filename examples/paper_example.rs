//! A small walkthrough in the spirit of the paper's Figures 1 and 2:
//! a loopy CFG whose execution breaks into a handful of distinct
//! Ball–Larus paths, the timestamp reduction that node formation buys
//! (Fig. 2), and a Figure-1(b)-style dump of one statement's WET
//! subgraph — its `<ts, val>` labels and labeled dependence edges.
//!
//! ```sh
//! cargo run --release --example paper_example
//! ```

use wet::prelude::*;
use wet_core::dump;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // CFG in the spirit of Figure 1(a): a loop whose body forks into
    // two alternatives, one of which forks again — four distinct
    // acyclic paths through the loop.
    //
    //        e -> h <---------------+
    //             |  \              |
    //           body  exit          |
    //           /   \               |
    //          a     b              |
    //          |    / \             |
    //          |   b1  b2           |
    //           \   \ /             |
    //            -> join -----------+
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0);
    let (e, h, body, a, b, b1, b2, join, exit) = (
        f.entry_block(),
        f.new_block(),
        f.new_block(),
        f.new_block(),
        f.new_block(),
        f.new_block(),
        f.new_block(),
        f.new_block(),
        f.new_block(),
    );
    let (i, c, v, acc) = (f.reg(), f.reg(), f.reg(), f.reg());
    f.block(e).movi(i, 0);
    f.block(e).movi(acc, 0);
    f.block(e).jump(h);
    f.block(h).bin(BinOp::Lt, c, i, 10i64);
    f.block(h).branch(c, body, exit);
    f.block(body).bin(BinOp::Rem, c, i, 2i64);
    f.block(body).branch(c, a, b);
    f.block(a).bin(BinOp::Mul, v, i, 3i64);
    f.block(a).jump(join);
    f.block(b).bin(BinOp::Rem, c, i, 4i64);
    f.block(b).branch(c, b1, b2);
    f.block(b1).bin(BinOp::Add, v, i, 100i64);
    f.block(b1).jump(join);
    f.block(b2).bin(BinOp::Sub, v, i, 1i64);
    f.block(b2).jump(join);
    f.block(join).bin(BinOp::Add, acc, acc, v);
    f.block(join).bin(BinOp::Add, i, i, 1i64);
    f.block(join).jump(h);
    f.block(exit).out(acc);
    f.block(exit).ret(Some(Operand::Reg(acc)));
    let main_fn = f.finish();
    let program = pb.finish(main_fn)?;

    println!("=== the program (cf. Figure 1a) ===");
    print!("{}", wet::ir::pretty::program_to_string(&program));

    let bl = BallLarus::new(&program);
    let mut builder = WetBuilder::new(&program, &bl, WetConfig::default());
    let result = Interp::new(&program, &bl, InterpConfig::default()).run(&[], &mut builder)?;
    let mut wet = builder.finish();
    wet.compress();

    println!("\n=== Figure 2: reducing the number of timestamps ===");
    println!("block executions : {}", result.blocks_executed);
    println!("path executions  : {} (one timestamp each)", result.paths_executed);
    println!("distinct paths   : {} WET nodes", wet.stats().nodes);
    println!(
        "reduction        : {:.1}x fewer timestamps",
        result.blocks_executed as f64 / result.paths_executed as f64
    );
    println!("\ndecoded paths:");
    for (fid, n) in wet.nodes().iter().enumerate() {
        println!(
            "  n{} = blocks {:?}  ({} executions)",
            fid,
            n.blocks.iter().map(|b| b.0).collect::<Vec<_>>(),
            n.n_execs
        );
    }

    println!("\n=== Figure 1(b): the WET subgraph of the loop body's accumulator ===");
    // Find the node containing the `acc += v` statement with most execs.
    let acc_stmt = program.function(main_fn).block(join).stmts()[0].id;
    let node = (0..wet.nodes().len())
        .filter(|&ni| wet.nodes()[ni].stmt_pos(acc_stmt).is_some())
        .max_by_key(|&ni| wet.nodes()[ni].n_execs)
        .map(|ni| wet_core::NodeId(ni as u32))
        .expect("acc stmt is in a node");
    print!("{}", dump::dump_node(&wet, &program, node, 5));

    println!("\nWET sizes: orig {} B -> tier-1 {} B -> tier-2 {} B", wet.sizes().orig_total(),
        wet.sizes().t1_total(), wet.sizes().t2_total());
    Ok(())
}
