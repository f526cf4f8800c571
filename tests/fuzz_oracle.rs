//! Randomized end-to-end oracle testing.
//!
//! A structured program generator produces random (but always
//! terminating and valid) IR programs — nested bounded loops,
//! if/else trees, helper calls, loads/stores over a small address
//! space. Each generated program is executed once; the compressed WET
//! must then reproduce the recorder's ground truth exactly: control
//! flow both ways, every value and address sequence, and sampled
//! backward slices, at both tiers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wet::prelude::*;
use wet_core::query;
use wet_ir::builder::FunctionBuilder;
use wet_ir::{BlockId, FuncId, Reg};

const MEM_SLOTS: i64 = 64;

/// Emits a random arithmetic/memory statement into `block`.
fn random_stmt(rng: &mut SmallRng, f: &mut FunctionBuilder<'_>, block: BlockId, regs: &[Reg]) {
    let pick = |rng: &mut SmallRng| regs[rng.gen_range(0..regs.len())];
    let operand = |rng: &mut SmallRng| {
        if rng.gen_bool(0.3) {
            Operand::Imm(rng.gen_range(-8..64))
        } else {
            Operand::Reg(regs[rng.gen_range(0..regs.len())])
        }
    };
    let dst = pick(rng);
    match rng.gen_range(0..10) {
        0..=3 => {
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Xor, BinOp::And, BinOp::Min][rng.gen_range(0..6usize)];
            let (a, b) = (operand(rng), operand(rng));
            f.block(block).bin(op, dst, a, b);
        }
        4 => {
            // Safe division by a nonzero constant.
            let d = *[2i64, 3, 5, 7].get(rng.gen_range(0..4usize)).unwrap();
            let a = operand(rng);
            f.block(block).bin(BinOp::Div, dst, a, Operand::Imm(d));
        }
        5 => {
            let a = operand(rng);
            f.block(block).un(UnOp::Not, dst, a);
        }
        6 | 7 => {
            // Bounded load: addr = |r| % MEM_SLOTS computed inline.
            let a = pick(rng);
            f.block(block).bin(BinOp::And, dst, a, MEM_SLOTS - 1);
            f.block(block).load(dst, dst);
        }
        8 => {
            let (a, v) = (pick(rng), operand(rng));
            let tmp = dst;
            f.block(block).bin(BinOp::And, tmp, a, MEM_SLOTS - 1);
            f.block(block).store(tmp, v);
        }
        _ => {
            let v = operand(rng);
            f.block(block).out(v);
        }
    }
}

/// Recursively generates structured code from `cur`, returning the
/// block control falls through to. `depth` bounds nesting; `budget`
/// bounds total emitted constructs.
fn gen_body(
    rng: &mut SmallRng,
    f: &mut FunctionBuilder<'_>,
    cur: BlockId,
    regs: &[Reg],
    depth: usize,
    budget: &mut usize,
    callee: Option<FuncId>,
) -> BlockId {
    let mut cur = cur;
    let n_constructs = rng.gen_range(1..4);
    for _ in 0..n_constructs {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        match rng.gen_range(0..10) {
            // Straight-line chunk.
            0..=4 => {
                for _ in 0..rng.gen_range(1..5) {
                    random_stmt(rng, f, cur, regs);
                }
            }
            // If/else.
            5 | 6 => {
                let (then_b, else_b, join) = (f.new_block(), f.new_block(), f.new_block());
                let c = regs[rng.gen_range(0..regs.len())];
                f.block(cur).branch(c, then_b, else_b);
                let t_end = if depth > 0 {
                    gen_body(rng, f, then_b, regs, depth - 1, budget, callee)
                } else {
                    random_stmt(rng, f, then_b, regs);
                    then_b
                };
                f.block(t_end).jump(join);
                let e_end = if depth > 0 && rng.gen_bool(0.5) {
                    gen_body(rng, f, else_b, regs, depth - 1, budget, callee)
                } else {
                    else_b
                };
                f.block(e_end).jump(join);
                cur = join;
            }
            // Bounded counted loop.
            7 | 8 => {
                let (head, body, exit) = (f.new_block(), f.new_block(), f.new_block());
                let i = f.reg();
                let c = f.reg();
                let n = rng.gen_range(1..6);
                f.block(cur).movi(i, 0);
                f.block(cur).jump(head);
                f.block(head).bin(BinOp::Lt, c, i, Operand::Imm(n));
                f.block(head).branch(c, body, exit);
                let b_end = if depth > 0 {
                    gen_body(rng, f, body, regs, depth - 1, budget, callee)
                } else {
                    random_stmt(rng, f, body, regs);
                    body
                };
                f.block(b_end).bin(BinOp::Add, i, i, 1i64);
                f.block(b_end).jump(head);
                cur = exit;
            }
            // Call the helper, if any.
            _ => {
                if let Some(g) = callee {
                    let ret_to = f.new_block();
                    let dst = regs[rng.gen_range(0..regs.len())];
                    let arg = Operand::Reg(regs[rng.gen_range(0..regs.len())]);
                    f.block(cur).call(g, vec![arg], Some(dst), ret_to);
                    cur = ret_to;
                } else {
                    random_stmt(rng, f, cur, regs);
                }
            }
        }
    }
    cur
}

/// Generates a random two-function program.
fn random_program(seed: u64) -> Program {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();

    // Helper: a small function with its own structure.
    let mut g = pb.function("helper", 1);
    let ge = g.entry_block();
    let regs: Vec<Reg> = std::iter::once(g.param(0)).chain((0..3).map(|_| g.reg())).collect();
    let mut budget = 6;
    let end = gen_body(&mut rng, &mut g, ge, &regs, 1, &mut budget, None);
    let r = regs[rng.gen_range(0..regs.len())];
    g.block(end).ret(Some(Operand::Reg(r)));
    let helper = g.finish();

    let mut f = pb.function("main", 0);
    let e = f.entry_block();
    let regs: Vec<Reg> = (0..5).map(|_| f.reg()).collect();
    // Seed registers from inputs so dataflow reaches everything.
    for &r in regs.iter().take(3) {
        f.block(e).input(r);
    }
    let mut budget = 14;
    let end = gen_body(&mut rng, &mut f, e, &regs, 2, &mut budget, Some(helper));
    f.block(end).out(Operand::Reg(regs[0]));
    f.block(end).ret(None);
    let main = f.finish();
    pb.finish(main).expect("generated program is valid")
}

fn check_program(seed: u64) {
    let p = random_program(seed);
    // The text format must round-trip every generated program.
    {
        let text = wet::ir::pretty::program_to_string(&p);
        let reparsed = wet::ir::parse::parse_program(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{text}"));
        assert_eq!(
            wet::ir::pretty::program_to_string(&reparsed),
            text,
            "seed {seed}: pretty/parse round-trip"
        );
    }
    let inputs = vec![3 + seed as i64 % 7, 11, (seed as i64).rem_euclid(97)];
    let bl = BallLarus::new(&p);
    let mut builder = WetBuilder::new(&p, &bl, WetConfig::default());
    let mut rec = Recorder::new();
    let mut sink = (&mut builder, &mut rec);
    let cfg = InterpConfig { max_stmts: 2_000_000, ..Default::default() };
    if let Err(e) = Interp::new(&p, &bl, cfg).run(&inputs, &mut sink) {
        panic!("seed {seed}: interpreter failed: {e}");
    }
    let mut wet = builder.finish();

    for tier2 in [false, true] {
        if tier2 {
            wet.compress();
        }
        // Control flow.
        let fwd = query::cf_trace_forward(&wet).unwrap();
        assert_eq!(query::expand_blocks(&wet, &fwd), rec.block_trace(), "seed {seed} tier2={tier2}: CF");
        // Values and addresses per statement.
        for sid in 0..p.stmt_count() as u32 {
            let stmt = StmtId(sid);
            let got: Vec<i64> = query::value_trace(&wet, stmt, 1).unwrap().into_iter().map(|(_, v)| v).collect();
            assert_eq!(got, rec.values_of(stmt), "seed {seed} tier2={tier2}: values of {stmt}");
            let got: Vec<u64> =
                query::address_trace(&wet, &p, stmt, 1).unwrap().into_iter().map(|(_, a)| a).collect();
            assert_eq!(got, rec.addresses_of(stmt), "seed {seed} tier2={tier2}: addrs of {stmt}");
        }
    }

    // Sampled backward slices vs the reference slicer.
    use std::collections::BTreeSet;
    use wet_interp::{RefSlicer, SliceElem, SliceKinds};
    let slicer = RefSlicer::new(&rec);
    let idx = rec.stmt_index();
    let step = (rec.stmts.len() / 8).max(1);
    for r in rec.stmts.iter().step_by(step) {
        let expect: BTreeSet<(StmtId, u64)> = slicer
            .backward(SliceElem { stmt: r.ev.stmt, instance: r.ev.instance }, SliceKinds::default())
            .elems
            .iter()
            .map(|e| {
                let i = idx[&(e.stmt, e.instance)];
                (e.stmt, rec.stmts[i].ev.ts)
            })
            .collect();
        let pr = rec.paths.iter().find(|q| q.ts == r.ev.ts).expect("path");
        let node = wet.node_for_path(pr.func, pr.path_id).expect("node");
        let k = rec
            .paths
            .iter()
            .filter(|q| q.func == pr.func && q.path_id == pr.path_id && q.ts < r.ev.ts)
            .count() as u32;
        let got = query::backward_slice(
            &wet,
            &p,
            query::WetSliceElem { node, stmt: r.ev.stmt, k },
            query::SliceSpec::default(),
        ).unwrap();
        assert_eq!(got.stamped, expect, "seed {seed}: slice at {}#{}", r.ev.stmt, r.ev.instance);
    }
}

#[test]
fn fuzz_forty_random_programs() {
    for seed in 0..40 {
        check_program(seed);
    }
}

#[test]
fn fuzz_larger_seeds() {
    for seed in [1_000_003, 77_777_777, 424_242, 31_337, 999_999_937] {
        check_program(seed);
    }
}
