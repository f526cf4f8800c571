//! Criterion benchmarks for the WET queries, tier-1 vs tier-2 — the
//! micro-scale counterpart of the paper's Tables 6–9.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wet_bench::pick_slice_criteria;
use wet_core::query::{address_trace, backward_slice, cf_trace_forward, value_trace, SliceSpec};
use wet_core::{Wet, WetBuilder, WetConfig};
use wet_interp::{Interp, InterpConfig};
use wet_ir::ballarus::BallLarus;
use wet_ir::program::StmtRef;
use wet_ir::stmt::StmtKind;
use wet_ir::{Program, StmtId};
use wet_workloads::Kind;

const TARGET: u64 = 150_000;

fn build(kind: Kind) -> (Program, Wet) {
    let w = wet_workloads::build(kind, TARGET);
    let bl = BallLarus::new(&w.program);
    let mut builder = WetBuilder::new(&w.program, &bl, WetConfig::default());
    Interp::new(&w.program, &bl, InterpConfig::default()).run(&w.inputs, &mut builder).expect("run");
    let wet = builder.finish();
    (w.program, wet)
}

fn first_load(p: &Program) -> StmtId {
    (0..p.stmt_count() as u32)
        .map(StmtId)
        .find(|&s| {
            matches!(p.stmt_ref(s), StmtRef::Stmt(st) if matches!(st.kind, StmtKind::Load { .. }))
        })
        .expect("load exists")
}

fn bench_queries(c: &mut Criterion) {
    let mut g = c.benchmark_group("queries");
    g.sample_size(10);
    for kind in [Kind::Gcc, Kind::Twolf] {
        let (program, tier1) = build(kind);
        let mut tier2 = tier1.clone();
        tier2.compress();
        let load = first_load(&program);
        for (tier, wet) in [("t1", &tier1), ("t2", &tier2)] {
            g.bench_with_input(
                BenchmarkId::new(format!("cf_trace_{tier}"), kind.name()),
                wet,
                |b, w| {
                    b.iter_batched(
                        || w.clone(),
                        |w| black_box(cf_trace_forward(&w).unwrap().len()),
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("value_trace_{tier}"), kind.name()),
                wet,
                |b, w| {
                    b.iter_batched(
                        || w.clone(),
                        |w| black_box(value_trace(&w, load, w.config().stream.num_threads).unwrap().len()),
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("addr_trace_{tier}"), kind.name()),
                wet,
                |b, w| {
                    b.iter_batched(
                        || w.clone(),
                        |w| {
                            let threads = w.config().stream.num_threads;
                            black_box(address_trace(&w, &program, load, threads).unwrap().len())
                        },
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
            let criteria = pick_slice_criteria(wet, 3, 42);
            g.bench_with_input(
                BenchmarkId::new(format!("slice_{tier}"), kind.name()),
                wet,
                |b, w| {
                    b.iter_batched(
                        || w.clone(),
                        |w| {
                            let mut n = 0;
                            for &cr in &criteria {
                                n += backward_slice(&w, &program, cr, SliceSpec::default()).unwrap().len();
                            }
                            black_box(n)
                        },
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
