//! The one-direction whole-stream decode against the window walk it
//! replaces: for every method, from any cursor position, and on streams
//! whose stacks or length were tampered with, `try_decode` must return
//! exactly what `clone().try_decompress()` returns, `None` included.

use proptest::prelude::*;
use wet_stream::bitbuf::{BitSink, BitStack};
use wet_stream::{CompressedStream, Method, PredState, StreamConfig};

fn cfg() -> StreamConfig {
    StreamConfig { table_bits_max: 6, ..Default::default() }
}

/// Streams that hit and miss every predictor family: random values,
/// small alphabets, noisy strides and repeating patterns.
fn values_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        prop::collection::vec(any::<u64>(), 0..120),
        prop::collection::vec(0u64..6, 0..400),
        (any::<u32>(), 1u64..50, prop::collection::vec(0u64..3, 0..400)).prop_map(|(base, stride, noise)| {
            let mut v = u64::from(base);
            noise
                .into_iter()
                .map(|n| {
                    v = v.wrapping_add(stride + n);
                    v
                })
                .collect()
        }),
        (prop::collection::vec(0u64..500, 1..20), 0usize..500)
            .prop_map(|(pat, len)| (0..len).map(|i| pat[i % pat.len()]).collect()),
    ]
}

/// The bits of `s`, bottom first.
fn bits(s: &BitStack) -> Vec<bool> {
    let (words, len) = s.raw_parts();
    (0..len).map(|i| (words[i / 64] >> (i % 64)) & 1 == 1).collect()
}

fn stack(bits: &[bool]) -> BitStack {
    let mut s = BitStack::new();
    for &b in bits {
        s.push_bit(b);
    }
    s
}

/// A copy of `s` with one of its parts tampered with, as `kind` and
/// `x` choose: a forged length (small or huge), a stack cut at its top
/// or its bottom, one flipped stack bit, or an FCM/DFCM context order
/// that disagrees with the method's window.
fn tamper(s: &CompressedStream, kind: u8, x: u64) -> CompressedStream {
    let p = s.raw_parts();
    let (mut len, mut win_start) = (p.len, p.win_start);
    let (mut fr, mut bl) = (bits(p.fr), bits(p.bl));
    let mut pred = p.pred.clone();
    let pick = if x & 1 == 0 { &mut fr } else { &mut bl };
    let at = |n: usize| (x >> 1) as usize % (n + 1);
    match kind {
        1 => {
            len = at(2 * p.len + 8);
            win_start = win_start.min(len as isize);
        }
        2 => len = 1 << 40,
        3 => {
            let keep = at(pick.len());
            pick.truncate(keep);
        }
        4 => {
            let cut = at(pick.len());
            pick.drain(..cut);
        }
        5 if !pick.is_empty() => {
            let i = at(pick.len() - 1);
            pick[i] = !pick[i];
        }
        6 => {
            if let PredState::Fcm { order, .. } | PredState::Dfcm { order, .. } = &mut pred {
                *order = 1 + (x >> 1) as u32 % 5;
            }
        }
        _ => {}
    }
    CompressedStream::from_raw_parts(
        p.method,
        len,
        win_start,
        p.window,
        stack(&fr),
        stack(&bl),
        pred,
        p.hits,
        p.misses,
    )
    .expect("tampering keeps the parts structurally valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All 12 default methods, with the cursor left anywhere by a
    /// random walk and random reads: the decode is the original values
    /// and agrees with the walking reference, also on tampered copies.
    #[test]
    fn decode_matches_the_window_walk(
        values in values_strategy(),
        walk in prop::collection::vec((0u8..3, any::<u64>()), 0..60),
        tampering in prop::collection::vec((0u8..7, any::<u64>()), 1..6),
    ) {
        for m in Method::default_candidates() {
            let mut s = CompressedStream::compress(&values, m, &cfg());
            for &(op, x) in &walk {
                match op {
                    0 => { s.step_forward(); }
                    1 => { s.step_backward(); }
                    _ if !values.is_empty() => { s.get(x as usize % values.len()); }
                    _ => {}
                }
            }
            let before = s.window_start();
            prop_assert_eq!(s.decode(), values.clone(), "method {}", m.name());
            prop_assert_eq!(s.window_start(), before, "the decode moved the cursor");
            prop_assert!(s.check_integrity());
            for &(kind, x) in &tampering {
                let t = tamper(&s, kind, x);
                prop_assert_eq!(
                    t.try_decode(),
                    t.clone().try_decompress(),
                    "method {} tampering {} {}", m.name(), kind, x
                );
                prop_assert_eq!(t.check_integrity(), t.clone().try_decompress().is_some());
            }
        }
    }
}

/// Methods outside the default list decode the same way.
#[test]
fn decode_covers_extreme_table_sizes() {
    let values: Vec<u64> = (0..3000u64).map(|i| (i * i) % 97 + (i / 100) * 1000).collect();
    for m in [Method::LastN { n: 2 }, Method::LastN { n: 64 }, Method::LastNStride { n: 2 }, Method::LastNStride { n: 64 }] {
        let mut s = CompressedStream::compress(&values, m, &cfg());
        for i in [0, 1500, 2999, 7] {
            s.get(i);
            assert_eq!(s.decode(), values, "{} at {i}", m.name());
        }
    }
}
