//! Reversible value predictors.
//!
//! Every predictor supports a *compress* operation (encode one value
//! against the predictor state, pushing an entry to a bit sink and
//! updating the state) and an *uncompress* operation that is its exact
//! inverse: popping the entry restores both the value and the predictor
//! state that existed before the matching compress.
//!
//! Reversibility comes from the **evict-swap** update rule the paper's
//! Figure 5 uses: on a miss, the entry stores the *evicted prediction*
//! while the table keeps the actual value, so undoing a miss reads the
//! actual value from the table and puts the evicted prediction back.
//! Consequently entries can only be decoded in reverse order of
//! encoding — which is exactly the order a LIFO [`BitStack`] yields.
//!
//! Four predictor families are implemented, mirroring the paper (§4 and
//! §5 "Selection"): FCM, differential FCM (stride FCM), last-*n* with
//! move-to-front, and last-*n* stride.

use crate::bitbuf::{BitSink, BitSource, BitStack};

/// Which side of the uncompressed window an operation serves.
///
/// Every predictor keeps separate tables per side (the paper's
/// `FRTB`/`BLTB`). The paper says its last-*n* variant uses "only a
/// single look up table TB"; with the op ordering of Figure 5, however,
/// a shared mutable MTF list is corrupted by interleaved boundary
/// operations (the omitted "details"), so this implementation keeps
/// per-side tables for the last-*n* family too — see DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Forward-compressed-with-right-context entries (left of window).
    Fr,
    /// Backward-compressed-with-left-context entries (right of window).
    Bl,
}

impl Side {
    /// The FR or BL one of a pair of per-side tables.
    #[inline]
    fn pick<T>(self, fr: T, bl: T) -> T {
        if self == Side::Fr {
            fr
        } else {
            bl
        }
    }
}

/// A direct-mapped prediction table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    slots: Vec<u64>,
    mask: u64,
}

impl Table {
    /// Creates a zero-initialized table with `1 << bits` slots.
    pub fn new(bits: u32) -> Self {
        let n = 1usize << bits;
        Table { slots: vec![0; n], mask: n as u64 - 1 }
    }

    #[inline]
    fn idx(&self, hash: u64) -> usize {
        (hash & self.mask) as usize
    }

    /// Heap bytes used.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * 8
    }

    /// Undoes one compress into the slot `hash` picks: a hit returns the
    /// slot; a miss returns it and puts back the evicted prediction.
    #[inline]
    fn uncompress(&mut self, hash: u64, inp: &mut impl BitSource) -> Option<u64> {
        let i = self.idx(hash);
        if inp.try_pop_bit()? {
            Some(self.slots[i])
        } else {
            let evicted = inp.try_pop_bits(64)?;
            Some(std::mem::replace(&mut self.slots[i], evicted))
        }
    }

    /// The slot contents (for serialization).
    pub fn raw_slots(&self) -> &[u64] {
        &self.slots
    }

    /// Rebuilds a table from its slots.
    ///
    /// # Errors
    /// Fails unless the slot count is a nonzero power of two.
    pub fn from_raw_slots(slots: Vec<u64>) -> Result<Self, &'static str> {
        if slots.is_empty() || !slots.len().is_power_of_two() {
            return Err("table size must be a power of two");
        }
        let mask = slots.len() as u64 - 1;
        Ok(Table { slots, mask })
    }
}

/// The hash of an empty context.
pub(crate) const HASH_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds one more context value into a context hash.
#[inline]
pub(crate) fn hash_step(h: u64, v: u64) -> u64 {
    let h = (h ^ v).wrapping_mul(0x100_0000_01B3);
    h ^ (h >> 29)
}

/// Hashes a nearest-first context slice of `k` values. The hash of the
/// first `k - 1` values is a prefix of this fold, which method
/// selection uses to score every order in one pass.
#[inline]
fn hash_ctx(ctx: &[u64]) -> u64 {
    ctx.iter().fold(HASH_SEED, |h, &v| hash_step(h, v))
}

/// A move-to-front table of the `n` most recent values (or strides).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtfTable {
    vals: Vec<u64>,
    index_bits: u32,
}

impl MtfTable {
    /// Creates a zeroed MTF table with `n` entries (`n` must be a power
    /// of two so hit indices fit in `log2(n)` bits).
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "MTF size must be a power of two >= 2");
        MtfTable { vals: vec![0; n], index_bits: n.trailing_zeros() }
    }

    /// Compresses `v`: a hit emits `log2(n)` index bits, a miss emits
    /// `v - evicted` in 64 bits (the paper's Fig. 7 encoding).
    fn compress(&mut self, v: u64, out: &mut impl BitSink) -> bool {
        if let Some(j) = self.vals.iter().position(|&x| x == v) {
            out.push_bits(j as u64, self.index_bits);
            out.push_bit(true);
            // Move-to-front: [.. v ..] -> [v, ..] preserving the rest.
            self.vals[..=j].rotate_right(1);
            true
        } else {
            let evicted = *self.vals.last().expect("non-empty table");
            out.push_bits(v.wrapping_sub(evicted), 64);
            out.push_bit(false);
            // [v0..v_{n-2}, evicted] -> [v, v0..v_{n-2}]
            self.vals.rotate_right(1);
            self.vals[0] = v;
            false
        }
    }

    /// The table contents (for serialization).
    pub fn raw_vals(&self) -> &[u64] {
        &self.vals
    }

    /// Rebuilds an MTF table from its contents.
    ///
    /// # Errors
    /// Fails unless the size is a power of two >= 2.
    pub fn from_raw_vals(vals: Vec<u64>) -> Result<Self, &'static str> {
        if vals.len() < 2 || !vals.len().is_power_of_two() {
            return Err("MTF size must be a power of two >= 2");
        }
        let index_bits = vals.len().trailing_zeros();
        Ok(MtfTable { vals, index_bits })
    }

    /// Exact inverse of [`compress`](Self::compress); `None` when the
    /// source runs out, leaving the table partially mutated.
    fn uncompress(&mut self, inp: &mut impl BitSource) -> Option<u64> {
        let v = self.vals[0];
        if inp.try_pop_bit()? {
            let j = inp.try_pop_bits(self.index_bits)? as usize;
            // Undo move-to-front: [v, ..] -> [.., v at j, ..]
            self.vals[..=j].rotate_left(1);
        } else {
            let evicted = v.wrapping_sub(inp.try_pop_bits(64)?);
            self.vals.rotate_left(1);
            let n = self.vals.len();
            self.vals[n - 1] = evicted;
        }
        Some(v)
    }
}

/// The compression method for one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Finite context method with the given context order (1..=3).
    Fcm {
        /// Context order (number of neighbouring values hashed).
        order: u32,
    },
    /// Differential (stride) FCM with the given context order.
    Dfcm {
        /// Context order (number of neighbouring strides hashed).
        order: u32,
    },
    /// Last-*n* with move-to-front; `n` must be a power of two.
    LastN {
        /// Table size.
        n: u32,
    },
    /// Last-*n* over strides relative to the adjacent window value.
    LastNStride {
        /// Table size.
        n: u32,
    },
}

impl Method {
    /// The uncompressed-window size this method requires.
    pub fn window(self) -> usize {
        match self {
            Method::Fcm { order } => order as usize,
            Method::Dfcm { order } => order as usize + 1,
            Method::LastN { .. } => 1,
            Method::LastNStride { .. } => 1,
        }
    }

    /// A short display name (`fcm2`, `dfcm1`, `last8`, `stride4`, …).
    pub fn name(self) -> String {
        match self {
            Method::Fcm { order } => format!("fcm{order}"),
            Method::Dfcm { order } => format!("dfcm{order}"),
            Method::LastN { n } => format!("last{n}"),
            Method::LastNStride { n } => format!("stride{n}"),
        }
    }

    /// Rebuilds a method from its wire encoding (the `(tag, arg)` pair
    /// the serializers write), rejecting parameters outside the ranges
    /// this implementation supports. This is the single chokepoint that
    /// keeps a forged method from requesting an oversized context
    /// window (`ctx` buffers hold 4 values) or a non-power-of-two MTF
    /// table (whose constructor would panic).
    ///
    /// # Errors
    /// Fails on an unknown tag, an FCM/DFCM order outside `1..=3`, or a
    /// last-*n* size that is not a power of two in `2..=65536`.
    pub fn checked(tag: u8, arg: u32) -> Result<Method, &'static str> {
        match tag {
            0 | 1 => {
                if !(1..=3).contains(&arg) {
                    return Err("context order out of range");
                }
                Ok(if tag == 0 { Method::Fcm { order: arg } } else { Method::Dfcm { order: arg } })
            }
            2 | 3 => {
                if !arg.is_power_of_two() || !(2..=65536).contains(&arg) {
                    return Err("last-n size must be a power of two in 2..=65536");
                }
                Ok(if tag == 2 { Method::LastN { n: arg } } else { Method::LastNStride { n: arg } })
            }
            _ => Err("bad method tag"),
        }
    }

    /// The method set tried during selection: FCM, differential FCM,
    /// last-*n*, and last-*n* stride, three context/table sizes each
    /// (paper §5: "For each type we created three versions with
    /// differing context size").
    pub fn default_candidates() -> Vec<Method> {
        vec![
            Method::Fcm { order: 1 },
            Method::Fcm { order: 2 },
            Method::Fcm { order: 3 },
            Method::Dfcm { order: 1 },
            Method::Dfcm { order: 2 },
            Method::Dfcm { order: 3 },
            Method::LastN { n: 4 },
            Method::LastN { n: 8 },
            Method::LastN { n: 16 },
            Method::LastNStride { n: 4 },
            Method::LastNStride { n: 8 },
            Method::LastNStride { n: 16 },
        ]
    }
}

/// Displays as the short method name (`fcm2`, `last8`, …) — the form
/// used for metrics labels and error messages.
impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Displays as the paper's stack name: `FR` or `BL`.
impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Side::Fr => "FR",
            Side::Bl => "BL",
        })
    }
}

/// The mutable predictor state of one compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredState {
    /// FCM with per-side tables.
    Fcm {
        /// Context order.
        order: u32,
        /// Table for FR-side operations.
        fr: Table,
        /// Table for BL-side operations.
        bl: Table,
    },
    /// Differential FCM with per-side stride tables.
    Dfcm {
        /// Context order.
        order: u32,
        /// Table for FR-side operations.
        fr: Table,
        /// Table for BL-side operations.
        bl: Table,
    },
    /// Last-*n* with per-side MTF tables.
    LastN {
        /// Table for FR-side operations.
        fr: MtfTable,
        /// Table for BL-side operations.
        bl: MtfTable,
    },
    /// Last-*n* stride with per-side MTF tables.
    LastNStride {
        /// Table for FR-side operations.
        fr: MtfTable,
        /// Table for BL-side operations.
        bl: MtfTable,
    },
}

impl PredState {
    /// Creates zeroed predictor state for `method`; FCM-family tables
    /// get `1 << table_bits` slots.
    pub fn new(method: Method, table_bits: u32) -> Self {
        match method {
            Method::Fcm { order } => PredState::Fcm { order, fr: Table::new(table_bits), bl: Table::new(table_bits) },
            Method::Dfcm { order } => {
                PredState::Dfcm { order, fr: Table::new(table_bits), bl: Table::new(table_bits) }
            }
            Method::LastN { n } => {
                PredState::LastN { fr: MtfTable::new(n as usize), bl: MtfTable::new(n as usize) }
            }
            Method::LastNStride { n } => {
                PredState::LastNStride { fr: MtfTable::new(n as usize), bl: MtfTable::new(n as usize) }
            }
        }
    }

    /// Compresses `v` given the nearest-first context `ctx` (length >=
    /// the method's window). Returns `true` on a predictor hit.
    pub fn compress(&mut self, side: Side, ctx: &[u64], v: u64, out: &mut impl BitSink) -> bool {
        match self {
            PredState::Fcm { order, fr, bl } => {
                let t = side.pick(fr, bl);
                let i = t.idx(hash_ctx(&ctx[..*order as usize]));
                if t.slots[i] == v {
                    out.push_bit(true);
                    true
                } else {
                    // Evict-swap: the stream stores the evicted
                    // prediction; the table keeps the actual value.
                    out.push_bits(t.slots[i], 64);
                    out.push_bit(false);
                    t.slots[i] = v;
                    false
                }
            }
            PredState::Dfcm { order, fr, bl } => {
                let t = side.pick(fr, bl);
                let k = *order as usize;
                let mut strides = [0u64; 4];
                for j in 0..k {
                    strides[j] = ctx[j].wrapping_sub(ctx[j + 1]);
                }
                let i = t.idx(hash_ctx(&strides[..k]));
                let actual_stride = v.wrapping_sub(ctx[0]);
                if t.slots[i] == actual_stride {
                    out.push_bit(true);
                    true
                } else {
                    out.push_bits(t.slots[i], 64);
                    out.push_bit(false);
                    t.slots[i] = actual_stride;
                    false
                }
            }
            PredState::LastN { fr, bl } => {
                let tb = side.pick(fr, bl);
                tb.compress(v, out)
            }
            PredState::LastNStride { fr, bl } => {
                let tb = side.pick(fr, bl);
                tb.compress(v.wrapping_sub(ctx[0]), out)
            }
        }
    }

    /// Exact inverse of [`compress`](Self::compress): pops the entry and
    /// returns the value, rolling the predictor state back.
    ///
    /// # Panics
    /// Panics when the stack runs out (a corrupt stream).
    pub fn uncompress(&mut self, side: Side, ctx: &[u64], inp: &mut BitStack) -> u64 {
        self.try_uncompress(side, ctx, inp).expect("pop from empty BitStack")
    }

    /// [`uncompress`](Self::uncompress) that reports bit-stack
    /// underflow instead of panicking. Used by the checked traversal
    /// path that integrity-verifies deserialized streams. On `None` the
    /// predictor state and stack are partially mutated and must be
    /// discarded.
    pub fn try_uncompress(&mut self, side: Side, ctx: &[u64], inp: &mut BitStack) -> Option<u64> {
        match self {
            PredState::Fcm { order, fr, bl } => fcm_uncompress(side.pick(fr, bl), *order, ctx, inp),
            PredState::Dfcm { order, fr, bl } => dfcm_uncompress(side.pick(fr, bl), *order, ctx, inp),
            PredState::LastN { fr, bl } => side.pick(fr, bl).uncompress(inp),
            PredState::LastNStride { fr, bl } => stride_uncompress(side.pick(fr, bl), ctx, inp),
        }
    }

    /// A copy of `side`'s table alone: all a one-direction decode of
    /// that side's entries reads or writes.
    pub(crate) fn side(&self, side: Side) -> SidePred {
        match self {
            PredState::Fcm { order, fr, bl } => SidePred::Fcm { order: *order, table: side.pick(fr, bl).clone() },
            PredState::Dfcm { order, fr, bl } => SidePred::Dfcm { order: *order, table: side.pick(fr, bl).clone() },
            PredState::LastN { fr, bl } => SidePred::LastN(side.pick(fr, bl).clone()),
            PredState::LastNStride { fr, bl } => SidePred::LastNStride(side.pick(fr, bl).clone()),
        }
    }

    /// Heap bytes used by the predictor state.
    pub fn heap_bytes(&self) -> usize {
        match self {
            PredState::Fcm { fr, bl, .. } | PredState::Dfcm { fr, bl, .. } => fr.heap_bytes() + bl.heap_bytes(),
            PredState::LastN { fr, bl } | PredState::LastNStride { fr, bl } => {
                (fr.vals.capacity() + bl.vals.capacity()) * 8
            }
        }
    }
}

/// One side's predictor table, owned: the state a decode that pops only
/// that side's entries needs.
pub(crate) enum SidePred {
    Fcm { order: u32, table: Table },
    Dfcm { order: u32, table: Table },
    LastN(MtfTable),
    LastNStride(MtfTable),
}

impl SidePred {
    /// Pops entries from `inp` into `slots` in order, starting from the
    /// nearest-first context `ctx` of a `w`-value window: each value
    /// decoded becomes the nearest context value of the next.
    pub(crate) fn decode<'a>(
        mut self,
        ctx: [u64; 4],
        w: usize,
        inp: &mut impl BitSource,
        slots: impl Iterator<Item = &'a mut u64>,
    ) -> Option<()> {
        // Like the window walk's, the context holds zeros past `w`,
        // which a forged context order may read.
        let keep: [u64; 4] = std::array::from_fn(|j| if j < w { !0 } else { 0 });
        fn run<'a>(
            mut ctx: [u64; 4],
            keep: [u64; 4],
            slots: impl Iterator<Item = &'a mut u64>,
            mut step: impl FnMut(&[u64; 4]) -> Option<u64>,
        ) -> Option<()> {
            for slot in slots {
                let v = step(&ctx)?;
                ctx = [v, ctx[0] & keep[1], ctx[1] & keep[2], ctx[2] & keep[3]];
                *slot = v;
            }
            Some(())
        }
        // One loop per family: the family is matched once per stream,
        // not once per value.
        match &mut self {
            SidePred::Fcm { order, table } => run(ctx, keep, slots, |c| fcm_uncompress(table, *order, c, inp)),
            SidePred::Dfcm { order, table } => run(ctx, keep, slots, |c| dfcm_uncompress(table, *order, c, inp)),
            SidePred::LastN(t) => run(ctx, keep, slots, |_| t.uncompress(inp)),
            SidePred::LastNStride(t) => run(ctx, keep, slots, |c| stride_uncompress(t, c, inp)),
        }
    }
}

/// Undoes one FCM compress: the table slot is hashed from the first
/// `order` context values.
#[inline]
fn fcm_uncompress(t: &mut Table, order: u32, ctx: &[u64], inp: &mut impl BitSource) -> Option<u64> {
    t.uncompress(hash_ctx(ctx.get(..order as usize)?), inp)
}

/// Undoes one DFCM compress: the slot is hashed from the first `order`
/// context strides and holds the stride from `ctx[0]`.
#[inline]
fn dfcm_uncompress(t: &mut Table, order: u32, ctx: &[u64], inp: &mut impl BitSource) -> Option<u64> {
    let k = order as usize;
    if k > 3 || ctx.len() < k + 1 {
        return None;
    }
    let mut strides = [0u64; 4];
    for j in 0..k {
        strides[j] = ctx[j].wrapping_sub(ctx[j + 1]);
    }
    Some(ctx[0].wrapping_add(t.uncompress(hash_ctx(&strides[..k]), inp)?))
}

/// Undoes one last-*n*-stride compress: the list holds strides from
/// `ctx[0]`.
#[inline]
fn stride_uncompress(t: &mut MtfTable, ctx: &[u64], inp: &mut impl BitSource) -> Option<u64> {
    Some(ctx.first()?.wrapping_add(t.uncompress(inp)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitbuf::BitStack;

    fn roundtrip(method: Method, values: &[u64]) {
        // Compress a sequence (each value against a synthetic context of
        // its predecessors) and undo it in reverse, checking both the
        // values and the full predictor state are restored.
        let w = method.window();
        let mut st = PredState::new(method, 6);
        let init = st.clone();
        let mut stack = BitStack::new();
        let mut ctxs: Vec<Vec<u64>> = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            // nearest-first context: previous values, zero-padded
            let ctx: Vec<u64> =
                (1..=w).map(|d| if i >= d { values[i - d] } else { 0 }).collect();
            st.compress(Side::Fr, &ctx, v, &mut stack);
            ctxs.push(ctx);
        }
        for (i, &v) in values.iter().enumerate().rev() {
            let got = st.uncompress(Side::Fr, &ctxs[i], &mut stack);
            assert_eq!(got, v, "value {i} mismatch for {}", method.name());
        }
        assert!(stack.is_empty());
        assert_eq!(st, init, "state not rolled back for {}", method.name());
    }

    #[test]
    fn all_methods_invert() {
        let data: Vec<u64> = vec![5, 5, 9, 5, 9, 5, 9, 100, 5, 9, 42, 42, 5, 0, u64::MAX, 7, 7, 7];
        for m in Method::default_candidates() {
            roundtrip(m, &data);
        }
    }

    #[test]
    fn fcm_learns_repeating_pattern() {
        // After one round of [1,2,3] repeated, FCM(1) should hit.
        let mut st = PredState::new(Method::Fcm { order: 1 }, 8);
        let mut sink = BitStack::new();
        let seq = [1u64, 2, 3, 1, 2, 3, 1, 2, 3];
        let mut hits = 0;
        for i in 1..seq.len() {
            let ctx = [seq[i - 1]];
            if st.compress(Side::Fr, &ctx, seq[i], &mut sink) {
                hits += 1;
            }
        }
        assert!(hits >= 5, "expected ctx hits after warmup, got {hits}");
    }

    #[test]
    fn dfcm_predicts_arithmetic_sequence() {
        let mut st = PredState::new(Method::Dfcm { order: 1 }, 8);
        let mut sink = BitStack::new();
        let seq: Vec<u64> = (0..50).map(|i| 1000 + 7 * i).collect();
        let mut hits = 0;
        for i in 2..seq.len() {
            let ctx = [seq[i - 1], seq[i - 2]];
            if st.compress(Side::Fr, &ctx, seq[i], &mut sink) {
                hits += 1;
            }
        }
        assert!(hits >= 46, "stride sequence should be nearly all hits, got {hits}");
    }

    #[test]
    fn lastn_hits_on_small_working_set() {
        let mut st = PredState::new(Method::LastN { n: 4 }, 0);
        let mut sink = BitStack::new();
        let seq = [10u64, 20, 10, 20, 30, 10, 20, 30, 10];
        let mut hits = 0;
        for &v in &seq {
            if st.compress(Side::Fr, &[0], v, &mut sink) {
                hits += 1;
            }
        }
        assert!(hits >= 6, "got {hits}");
    }

    #[test]
    fn mtf_rotation_is_involutive() {
        let mut t = MtfTable::new(4);
        let orig = t.clone();
        let mut s = BitStack::new();
        for v in [1u64, 2, 3, 1, 9, 2, 2, 4, 1] {
            t.compress(v, &mut s);
        }
        for v in [1u64, 2, 3, 1, 9, 2, 2, 4, 1].iter().rev() {
            assert_eq!(t.uncompress(&mut s), Some(*v));
        }
        assert_eq!(t, orig);
    }

    #[test]
    fn fr_and_bl_tables_are_independent_for_fcm() {
        let mut st = PredState::new(Method::Fcm { order: 1 }, 4);
        let mut sink = BitStack::new();
        st.compress(Side::Fr, &[1], 42, &mut sink);
        // A BL op with the same context must not see the FR update.
        let hit = st.compress(Side::Bl, &[1], 42, &mut sink);
        assert!(!hit, "BL table must be independent of FR table");
    }

    #[test]
    fn method_window_sizes() {
        assert_eq!(Method::Fcm { order: 3 }.window(), 3);
        assert_eq!(Method::Dfcm { order: 2 }.window(), 3);
        assert_eq!(Method::LastN { n: 8 }.window(), 1);
        assert_eq!(Method::LastNStride { n: 4 }.window(), 1);
    }
}
