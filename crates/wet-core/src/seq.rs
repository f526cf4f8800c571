//! Label sequences that exist in tier-1 (raw) or tier-2 (compressed)
//! form.
//!
//! Every WET label — node timestamps, value patterns, unique values,
//! edge timestamp pairs — is a sequence of integers. After tier-1
//! (customized) compression the sequences are plain vectors; tier-2
//! replaces each with a bidirectional [`CompressedStream`]. Queries run
//! against either form through the same interface, which is how the
//! paper reports response times "after tier-1 compression and after
//! tier-2 compression".

use crate::graph::{NodeId, Wet};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use wet_ir::StmtId;
use wet_stream::{CompressedStream, StreamConfig};

/// A sequence of `u64` labels in raw (tier-1) or compressed (tier-2)
/// form — or a placeholder for data lost to container corruption.
#[derive(Debug, Clone)]
pub enum Seq {
    /// Tier-1: a plain vector.
    Raw(Vec<u64>),
    /// Tier-2: a bidirectional compressed stream.
    Compressed(CompressedStream),
    /// Data lost to a failed section checksum during salvage
    /// ([`crate::Wet::read_salvaging`]). The length is preserved from
    /// the (intact) structure section so validation and accounting
    /// still line up; reads must go through the checked accessors.
    Unavailable(u64),
}

impl Seq {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Seq::Raw(v) => v.len(),
            Seq::Compressed(s) => s.len(),
            Seq::Unavailable(n) => *n as usize,
        }
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the values can actually be read — `false` only for
    /// [`Seq::Unavailable`] placeholders left by salvage.
    pub fn is_available(&self) -> bool {
        !matches!(self, Seq::Unavailable(_))
    }

    /// Decompresses the full sequence. A tier-2 stream is decoded in
    /// place without moving its window ([`CompressedStream::decode`]),
    /// which is what lets the whole-trace query engine extract from a
    /// shared `&Wet` on many threads at once.
    ///
    /// # Panics
    /// Panics on an [`Unavailable`](Seq::Unavailable) sequence.
    pub fn to_vec_snapshot(&self) -> Vec<u64> {
        match self {
            Seq::Raw(v) => v.clone(),
            Seq::Compressed(s) => s.decode(),
            Seq::Unavailable(_) => panic!("read from unavailable (salvage-lost) sequence"),
        }
    }

    /// Checked snapshot decompression for untrusted or salvaged data:
    /// `None` when the sequence is unavailable or its compressed form
    /// is internally inconsistent (claimed length exceeds stored
    /// entries). Never panics and never allocates beyond the data
    /// actually present.
    pub fn try_to_vec_snapshot(&self) -> Option<Vec<u64>> {
        match self {
            Seq::Raw(v) => Some(v.clone()),
            Seq::Compressed(s) => s.try_decode(),
            Seq::Unavailable(_) => None,
        }
    }

    /// Converts to tier-2 form in place (no-op if already compressed or
    /// unavailable).
    pub fn compress(&mut self, cfg: &StreamConfig) {
        if let Seq::Raw(v) = self {
            let s = CompressedStream::compress_auto(v, cfg);
            *self = Seq::Compressed(s);
        }
    }

    /// Tier-2 payload bytes; for raw sequences, the bytes tier-2 would
    /// be measured at (computed by compressing a clone). Unavailable
    /// sequences account as zero.
    pub fn compressed_bytes(&self, cfg: &StreamConfig) -> u64 {
        match self {
            Seq::Raw(v) => CompressedStream::compress_auto(v, cfg).compressed_bytes(),
            Seq::Compressed(s) => s.compressed_bytes(),
            Seq::Unavailable(_) => 0,
        }
    }
}

/// One query's read position over the sequences of a shared [`Wet`].
///
/// A tier-2 [`CompressedStream`] is read through its §4 window, which
/// moves with every read; where that window sits belongs to one
/// traversal, not to the data. So the stored streams of a `Wet` never
/// move: the first time a cursor slides on a compressed sequence it
/// clones the stream and walks its own copy from then on. Nearby reads
/// stay cheap in either direction, any number of queries read one
/// `&Wet` at once, and the bytes [`Wet::write_to`] writes do not depend
/// on which queries ran. Raw sequences are read in place.
///
/// Sliding costs the distance between reads, so a cursor rents before
/// it buys: it counts the window steps it spends on each stream, and
/// once a read would bring that count to the stream's length it decodes
/// the stream once into a vector ([`CompressedStream::decode`], which
/// reads the stored stream in place), drops any clone, and from then on
/// indexes (`get`) or binary-searches (`find_sorted`) the vector. A
/// first read that already pays for a decode never clones. A query thus
/// pays at most about twice the cheaper of sliding and decoding.
/// Decoded bytes count against the WET's `serve.cache_budget_bytes`
/// (0 = unlimited); a decode that would exceed it is not made, and the
/// cursor keeps sliding.
pub struct Cursor<'w> {
    wet: &'w Wet,
    /// This query's readers of the streams it has read, keyed by the
    /// stored stream's address (fixed while `wet` is borrowed).
    readers: HashMap<usize, Reader, BuildHasherDefault<AddrHasher>>,
    /// Decoded bytes this cursor may hold (0 = unlimited).
    budget: u64,
    /// Decoded bytes it holds.
    decoded_bytes: u64,
}

/// The work a [`Cursor`] has done, for the `query.cursor_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CursorStats {
    /// Window steps spent sliding to reads (decodes move no window).
    steps: u64,
    /// Streams decoded.
    decodes: u64,
    /// Bytes of decoded values held.
    decoded_bytes: u64,
}

/// One compressed stream as a cursor reads it.
struct Reader {
    /// Window steps spent sliding on this stream.
    steps: u64,
    form: Form,
}

enum Form {
    /// The cursor's own clone of the stream, read through its window.
    Window(CompressedStream),
    /// The whole stream, decoded once sliding had cost as much.
    Decoded(Vec<u64>),
}

/// Reads index `i` through `s`'s window, adding the steps it slides to
/// `steps`.
fn slide(s: &mut CompressedStream, i: usize, steps: &mut u64) -> u64 {
    let from = s.window_start();
    let v = s.get(i);
    *steps += from.abs_diff(s.window_start()) as u64;
    v
}

/// Hashes a stream address with one multiply: the keys are distinct
/// addresses chosen by the allocator, not input, and a lookup runs on
/// every cursor read.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

impl<'w> Cursor<'w> {
    /// A cursor over `wet` that has read nothing yet.
    pub fn new(wet: &'w Wet) -> Self {
        Cursor { wet, readers: HashMap::default(), budget: wet.config().serve.cache_budget_bytes, decoded_bytes: 0 }
    }

    /// The WET this cursor reads.
    pub fn wet(&self) -> &'w Wet {
        self.wet
    }

    /// The work this cursor has done so far.
    pub(crate) fn stats(&self) -> CursorStats {
        let mut st = CursorStats { decoded_bytes: self.decoded_bytes, ..CursorStats::default() };
        for r in self.readers.values() {
            st.steps += r.steps;
            st.decodes += u64::from(matches!(r.form, Form::Decoded(_)));
        }
        st
    }

    /// Records this cursor's work as one query's `query.cursor_steps`,
    /// `query.cursor_decodes` and `query.cursor_decoded_bytes`
    /// observations, labelled by the query `kind`.
    pub(crate) fn record(&self, kind: &str) {
        let st = self.stats();
        wet_obs::hist_record("query.cursor_steps", kind, st.steps);
        wet_obs::hist_record("query.cursor_decodes", kind, st.decodes);
        wet_obs::hist_record("query.cursor_decoded_bytes", kind, st.decoded_bytes);
    }

    /// True when decoding `len` more values keeps this cursor within
    /// its budget.
    fn room_for(&self, len: usize) -> bool {
        self.budget == 0 || self.decoded_bytes + 8 * len as u64 <= self.budget
    }

    /// This cursor's reader of `stored`, decoded first when sliding
    /// `far(window)` more steps would bring the steps spent on it to its
    /// length and the budget has room.
    fn reader(&mut self, stored: &'w CompressedStream, far: impl FnOnce(&CompressedStream) -> u64) -> &mut Reader {
        let room = self.room_for(stored.len());
        let r = match self.readers.entry(stored as *const CompressedStream as usize) {
            Entry::Occupied(e) => e.into_mut(),
            // A first read that pays for a decode needs no window of its
            // own: the stored stream decodes in place.
            Entry::Vacant(e) if room && far(stored) >= stored.len() as u64 => {
                self.decoded_bytes += 8 * stored.len() as u64;
                return e.insert(Reader { steps: 0, form: Form::Decoded(stored.decode()) });
            }
            Entry::Vacant(e) => return e.insert(Reader { steps: 0, form: Form::Window(stored.clone()) }),
        };
        if let Form::Window(s) = &r.form {
            if room && r.steps.saturating_add(far(s)) >= s.len() as u64 {
                self.decoded_bytes += 8 * s.len() as u64;
                r.form = Form::Decoded(s.decode());
            }
        }
        r
    }

    /// Reads index `i` of `seq`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or the sequence is
    /// [`Unavailable`](Seq::Unavailable) (queries check
    /// [`Seq::is_available`] first).
    pub fn get(&mut self, seq: &'w Seq, i: usize) -> u64 {
        match seq {
            Seq::Raw(v) => v[i],
            Seq::Compressed(s) => {
                let far = |w: &CompressedStream| match w.peek(i) {
                    Some(_) => 0,
                    None => w.window_start().abs_diff(i as isize) as u64,
                };
                let r = self.reader(s, far);
                match &mut r.form {
                    Form::Window(s) => slide(s, i, &mut r.steps),
                    Form::Decoded(v) => v[i],
                }
            }
            Seq::Unavailable(_) => panic!("read from unavailable (salvage-lost) sequence"),
        }
    }

    /// Searches a **sorted** sequence for `target`, returning its
    /// position. A tier-2 search gallops from where this cursor last
    /// left the stream's window, so repeated nearby lookups are cheap;
    /// a gallop that brings the stream's steps to its length decodes it
    /// (budget permitting) and binary-searches instead. Unavailable
    /// sequences report no match.
    pub fn find_sorted(&mut self, seq: &'w Seq, target: u64) -> Option<usize> {
        match seq {
            Seq::Raw(v) => v.binary_search(&target).ok(),
            Seq::Compressed(stored) if !stored.is_empty() => {
                let n = stored.len();
                let limit = if self.room_for(n) { n as u64 } else { u64::MAX };
                let r = self.reader(stored, |_| 0);
                let (s, steps) = match &mut r.form {
                    Form::Window(s) => (s, &mut r.steps),
                    Form::Decoded(v) => return v.binary_search(&target).ok(),
                };
                let mut i = s.window_start().clamp(0, n as isize - 1) as usize;
                let mut vi = slide(s, i, steps);
                while vi < target && i + 1 < n && *steps < limit {
                    i += 1;
                    vi = slide(s, i, steps);
                }
                while vi > target && i > 0 && *steps < limit {
                    i -= 1;
                    vi = slide(s, i, steps);
                }
                if *steps < limit || vi == target {
                    return (vi == target).then_some(i);
                }
                // The gallop has paid for a decode.
                match &self.reader(stored, |_| 0).form {
                    Form::Decoded(v) => v.binary_search(&target).ok(),
                    Form::Window(_) => unreachable!("a paid-up stream with budget room decodes"),
                }
            }
            _ => None,
        }
    }

    /// The value `stmt` produced at execution `k` of `node`:
    /// `Values[k] = UVals[Pattern[k]]`. `None` when the statement has
    /// no def port in the node or a backing sequence was lost to
    /// salvage.
    pub fn value_at(&mut self, node: NodeId, stmt: StmtId, k: usize) -> Option<i64> {
        let n = self.wet.node(node);
        let ns = n.stmts[n.stmt_pos(stmt)?];
        if !ns.has_def {
            return None;
        }
        let g = &n.groups[ns.group as usize];
        let idx = match &g.pattern {
            None => k,
            Some(p) if p.is_available() => self.get(p, k) as usize,
            Some(_) => return None,
        };
        let u = &g.uvals[ns.member as usize];
        u.is_available().then(|| self.get(u, idx) as i64)
    }
}

impl From<Vec<u64>> for Seq {
    fn from(v: Vec<u64>) -> Self {
        Seq::Raw(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{build_wet, looping_program};

    fn cfg() -> StreamConfig {
        StreamConfig::default()
    }

    fn any_wet() -> Wet {
        build_wet(&looping_program(), &[4], Default::default()).0
    }

    #[test]
    fn raw_and_compressed_agree() {
        let data: Vec<u64> = (0..500).map(|i| i * 7 % 64).collect();
        let raw = Seq::Raw(data.clone());
        let mut comp = Seq::Raw(data.clone());
        comp.compress(&cfg());
        assert!(matches!(comp, Seq::Compressed(_)));
        assert_eq!(raw.len(), comp.len());
        let wet = any_wet();
        let mut cur = Cursor::new(&wet);
        for i in [0usize, 499, 250, 10, 499, 0] {
            assert_eq!(cur.get(&raw, i), cur.get(&comp, i), "index {i}");
        }
        assert_eq!(comp.to_vec_snapshot(), data);
    }

    #[test]
    fn find_sorted_hits_and_misses() {
        let data: Vec<u64> = (0..200).map(|i| i * 3).collect();
        let wet = any_wet();
        for make in [false, true] {
            let mut s = Seq::Raw(data.clone());
            if make {
                s.compress(&cfg());
            }
            let mut cur = Cursor::new(&wet);
            assert_eq!(cur.find_sorted(&s, 0), Some(0));
            assert_eq!(cur.find_sorted(&s, 33), Some(11));
            assert_eq!(cur.find_sorted(&s, 597), Some(199));
            assert_eq!(cur.find_sorted(&s, 34), None);
            assert_eq!(cur.find_sorted(&s, 598), None);
            // Lookups in both directions after a far jump.
            assert_eq!(cur.find_sorted(&s, 3), Some(1));
            assert_eq!(cur.find_sorted(&s, 300), Some(100));
        }
    }

    #[test]
    fn reads_leave_the_stored_stream_in_place() {
        let data: Vec<u64> = (0..300).map(|i| i * 5).collect();
        let mut s = Seq::Raw(data);
        s.compress(&cfg());
        let Seq::Compressed(stored) = &s else { unreachable!() };
        let before = stored.window_start();
        let wet = any_wet();
        let mut cur = Cursor::new(&wet);
        assert_eq!(cur.get(&s, 0), 0);
        assert_eq!(cur.find_sorted(&s, 50), Some(10));
        assert_eq!(stored.window_start(), before);
    }

    /// `len` strictly increasing values with deltas from `deltas`.
    fn sorted_seq(len: usize, deltas: &[u64]) -> Vec<u64> {
        let mut t = 0;
        (0..len)
            .map(|i| {
                t += deltas[i % deltas.len()];
                t
            })
            .collect()
    }

    fn compressed(data: &[u64]) -> Seq {
        let mut s = Seq::Raw(data.to_vec());
        s.compress(&cfg());
        s
    }

    /// A cheap deterministic index sequence that jumps across the
    /// whole stream.
    fn far_indices(n: usize, count: usize) -> impl Iterator<Item = usize> {
        (0..count as u64).map(move |i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize % n)
    }

    #[test]
    fn sliding_stops_once_it_has_paid_for_a_decode() {
        let n = 1000;
        let data = sorted_seq(n, &[3, 1, 4, 1, 5]);
        let s = compressed(&data);
        let wet = any_wet();
        let mut cur = Cursor::new(&wet);
        for (j, i) in far_indices(n, 400).enumerate() {
            let got = if j % 2 == 0 { cur.get(&s, i) } else { data[cur.find_sorted(&s, data[i]).unwrap()] };
            assert_eq!(got, data[i]);
        }
        let st = cur.stats();
        // Slides take at most one stream length, then one decode serves
        // every later read; sliding alone would have spent about n / 3
        // steps per read.
        assert!(st.steps <= n as u64, "{st:?}");
        assert_eq!((st.decodes, st.decoded_bytes), (1, 8 * n as u64));
        for i in far_indices(n, 50) {
            assert_eq!(cur.get(&s, i), data[i]);
        }
        assert_eq!(cur.stats(), st, "a decoded stream takes no more window steps");
    }

    #[test]
    fn decoded_bytes_stay_within_the_budget() {
        let n = 100;
        let streams: Vec<Vec<u64>> = (1..=5).map(|d| sorted_seq(n, &[d, 2 * d + 1])).collect();
        let seqs: Vec<Seq> = streams.iter().map(|d| compressed(d)).collect();
        for budget in [1, 8 * n as u64 - 1, 8 * n as u64, 2_000] {
            let mut wet = any_wet();
            wet.config_mut().serve.cache_budget_bytes = budget;
            let mut cur = Cursor::new(&wet);
            for (j, i) in far_indices(n, 600).enumerate() {
                let (data, seq) = (&streams[j % 5], &seqs[j % 5]);
                assert_eq!(cur.get(seq, i), data[i]);
                assert_eq!(cur.find_sorted(seq, data[i]), Some(i));
                assert!(cur.stats().decoded_bytes <= budget, "budget {budget}: {:?}", cur.stats());
            }
            assert_eq!(cur.stats().decodes, budget / (8 * n as u64), "budget {budget}");
        }
    }

    proptest::proptest! {
        /// Random near and far reads on a compressed sequence answer
        /// exactly as on the raw one, before and after the cursor
        /// switches the stream to its decoded form, with and without a
        /// budget that forbids the switch.
        #[test]
        fn cursor_reads_match_raw_across_the_decode(
            len in 1usize..600,
            deltas in proptest::collection::vec(1u64..6, 1..8),
            ops in proptest::collection::vec((0u8..4, 0usize..600, 0u64..3), 1..300),
            budgeted in proptest::arbitrary::any::<bool>(),
        ) {
            let data = sorted_seq(len, &deltas);
            let (raw, comp) = (Seq::Raw(data.clone()), compressed(&data));
            let mut wet = any_wet();
            wet.config_mut().serve.cache_budget_bytes = u64::from(budgeted);
            let mut cur = Cursor::new(&wet);
            let mut at = 0usize;
            for (kind, far, off) in ops {
                // Near ops move a little from the last index, far ones jump.
                at = if kind % 2 == 0 { far % len } else { (at + far % 3).min(len - 1) };
                if kind < 2 {
                    proptest::prop_assert_eq!(cur.get(&comp, at), cur.get(&raw, at));
                } else {
                    // A hit, a miss between values, or past the end.
                    let target = data[at] + off;
                    proptest::prop_assert_eq!(cur.find_sorted(&comp, target), cur.find_sorted(&raw, target));
                }
            }
            if budgeted {
                proptest::prop_assert_eq!(cur.stats().decodes, 0);
            }
        }
    }

    #[test]
    fn compress_is_idempotent() {
        let mut s = Seq::Raw(vec![1, 2, 3]);
        s.compress(&cfg());
        let bytes = s.compressed_bytes(&cfg());
        s.compress(&cfg());
        assert_eq!(s.compressed_bytes(&cfg()), bytes);
    }

    #[test]
    fn empty_sequence() {
        let mut s = Seq::Raw(vec![]);
        assert!(s.is_empty());
        let wet = any_wet();
        assert_eq!(Cursor::new(&wet).find_sorted(&s, 5), None);
        s.compress(&cfg());
        assert_eq!(s.len(), 0);
        assert_eq!(Cursor::new(&wet).find_sorted(&s, 5), None);
    }
}
