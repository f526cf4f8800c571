//! Budget-degraded answers are *sound*: a brownout response is the
//! full answer restricted to what the budget covered — never fabricated
//! data, never silently truncated (the gap report accounts for every
//! missing step) — and, because coverage is planned on decode-free
//! costs before extraction, byte-deterministic: the same byte budget
//! yields the same partial answer at every engine thread count, and
//! full-quality answers stay byte-identical across thread counts.

use proptest::prelude::*;
use wet_core::query::{self, Budget, Ctl};
use wet_core::{WetBuilder, WetConfig};
use wet_interp::{Interp, InterpConfig};
use wet_ir::ballarus::BallLarus;
use wet_ir::StmtId;
use wet_workloads::Kind;

const TARGET: u64 = 4_000;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn build(kind: Kind) -> (wet_core::Wet, wet_ir::Program) {
    let w = wet_workloads::build(kind, TARGET);
    let bl = BallLarus::new(&w.program);
    let mut b = WetBuilder::new(&w.program, &bl, WetConfig::default());
    Interp::new(&w.program, &bl, InterpConfig::default())
        .run(&w.inputs, &mut b)
        .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
    let mut wet = b.finish();
    wet.compress();
    (wet, w.program)
}

fn budgeted(bytes: u64) -> Ctl {
    Ctl::unbounded().with_budget(Budget::bytes(bytes))
}

/// `sub` must be `sup` with elements removed: an ordered subsequence
/// with exact element equality. This is the "restricted to covered
/// ranges, never fabricated" check for ts-sorted answers.
fn is_subsequence<T: PartialEq>(sub: &[T], sup: &[T]) -> bool {
    let mut it = sup.iter();
    sub.iter().all(|x| it.any(|y| y == x))
}

/// Forward cf traces under a byte budget, for every workload: the
/// partial answer is a subsequence of the full one and the gap report
/// accounts for exactly the missing steps; an unlimited budget means a
/// complete report and the full answer; and the same budget always
/// returns the same answer.
#[test]
fn budgeted_cf_trace_sound_for_all_workloads() {
    let mut partials = 0u32;
    for kind in Kind::all() {
        let (wet, _) = build(kind);
        let full = query::cf_trace_forward(&wet).expect("full cf trace");
        for budget in [0u64, 8 * full.len() as u64 / 2, u64::MAX] {
            let (steps, deg) =
                query::cf_trace_forward_partial(&wet, &budgeted(budget)).expect("budgeted");
            assert!(
                is_subsequence(&steps, &full),
                "{}: budget {budget} fabricated or reordered steps",
                kind.name()
            );
            assert_eq!(
                steps.len() as u64 + deg.steps_missing,
                full.len() as u64,
                "{}: budget {budget} gap report does not account for every missing step",
                kind.name()
            );
            if steps.len() == full.len() {
                assert!(deg.is_complete(), "{}: complete answer reported gaps", kind.name());
                assert_eq!(steps, full, "{}: complete answer differs from full", kind.name());
            } else {
                partials += 1;
                assert!(
                    !deg.is_complete() && deg.gaps >= 1,
                    "{}: partial answer (budget {budget}) not gap-annotated: {deg:?}",
                    kind.name()
                );
            }
            let (again, deg2) =
                query::cf_trace_forward_partial(&wet, &budgeted(budget)).expect("rerun");
            assert_eq!((&steps, &deg), (&again, &deg2), "{}: budget {budget} nondeterministic", kind.name());
        }
    }
    assert!(partials > 0, "the sweep never produced a partial answer — budgets too generous");
}

/// Value and address traces: full answers are byte-identical across
/// engine thread counts, and a fixed byte budget yields the *same*
/// partial answer at 1, 2, 4 and 8 threads — a subsequence of the full
/// answer, gap-annotated whenever anything is missing.
#[test]
fn budgeted_traces_deterministic_across_thread_counts() {
    let mut partials = 0u32;
    for kind in Kind::all() {
        let (wet, program) = build(kind);
        // The first few statements with a non-empty value history.
        let stmts: Vec<StmtId> = (0..program.stmt_count() as u32)
            .map(StmtId)
            .filter(|&s| {
                query::engine::value_trace(&wet, s, 1).map(|v| !v.is_empty()).unwrap_or(false)
            })
            .take(3)
            .collect();
        assert!(!stmts.is_empty(), "{}: no statement has a value history", kind.name());
        for &s in &stmts {
            let full_v = query::engine::value_trace(&wet, s, 1).unwrap();
            let full_a = query::engine::address_trace(&wet, &program, s, 1).unwrap();
            let budget = 64u64;
            let (base_v, base_vd) =
                query::value_trace_partial(&wet, s, 1, &budgeted(budget)).unwrap();
            let (base_a, base_ad) =
                query::address_trace_partial(&wet, &program, s, 1, &budgeted(budget)).unwrap();
            assert!(is_subsequence(&base_v, &full_v), "{}: stmt {s:?} fabricated values", kind.name());
            assert!(is_subsequence(&base_a, &full_a), "{}: stmt {s:?} fabricated addresses", kind.name());
            if base_v.len() < full_v.len() {
                partials += 1;
                assert!(
                    !base_vd.is_complete(),
                    "{}: stmt {s:?} partial value trace not gap-annotated",
                    kind.name()
                );
            }
            if base_a.len() < full_a.len() {
                assert!(!base_ad.is_complete(), "{}: stmt {s:?} partial address trace not gap-annotated", kind.name());
            }
            for &t in &THREADS[1..] {
                assert_eq!(
                    query::engine::value_trace(&wet, s, t).unwrap(),
                    full_v,
                    "{}: full value trace diverges at {t} threads",
                    kind.name()
                );
                assert_eq!(
                    query::engine::address_trace(&wet, &program, s, t).unwrap(),
                    full_a,
                    "{}: full address trace diverges at {t} threads",
                    kind.name()
                );
                let (v, vd) = query::value_trace_partial(&wet, s, t, &budgeted(budget)).unwrap();
                let (a, ad) =
                    query::address_trace_partial(&wet, &program, s, t, &budgeted(budget)).unwrap();
                assert_eq!(
                    (&v, &vd),
                    (&base_v, &base_vd),
                    "{}: budgeted value trace diverges at {t} threads",
                    kind.name()
                );
                assert_eq!(
                    (&a, &ad),
                    (&base_a, &base_ad),
                    "{}: budgeted address trace diverges at {t} threads",
                    kind.name()
                );
            }
        }
    }
    assert!(partials > 0, "a 64-byte budget never truncated anything — check the cost model");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// Random (workload, budget, statement, thread count): the
    /// budgeted answer is a gap-accounted subsequence of the full one
    /// and matches the single-threaded budgeted answer exactly.
    #[test]
    fn budgeted_answer_sound_and_deterministic(
        kind_i in 0usize..9,
        budget in 0u64..4_096,
        stmt_salt in 0u32..1_000,
        threads in prop_oneof![Just(1usize), Just(2usize), Just(4usize), Just(8usize)],
    ) {
        let kind = Kind::all()[kind_i];
        let (mut wet, program) = build(kind);

        let full_cf = query::cf_trace_forward(&wet).unwrap();
        let (cf, cf_deg) = query::cf_trace_forward_partial(&wet, &budgeted(budget)).unwrap();
        prop_assert!(is_subsequence(&cf, &full_cf));
        prop_assert_eq!(cf.len() as u64 + cf_deg.steps_missing, full_cf.len() as u64);
        prop_assert_eq!(cf.len() == full_cf.len(), cf_deg.is_complete());

        let s = StmtId(stmt_salt % program.stmt_count() as u32);
        let full = query::engine::value_trace(&wet, s, threads).unwrap();
        let (v, deg) = query::value_trace_partial(&wet, s, threads, &budgeted(budget)).unwrap();
        prop_assert!(is_subsequence(&v, &full), "fabricated values");
        if v.len() < full.len() {
            prop_assert!(!deg.is_complete(), "partial answer not gap-annotated");
        }
        let (v1, deg1) = query::value_trace_partial(&wet, s, 1, &budgeted(budget)).unwrap();
        prop_assert_eq!((v, deg), (v1, deg1), "budgeted answer depends on thread count");
    }
}
