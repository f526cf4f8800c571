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

    /// Decompresses the full sequence: tier-2 streams are cloned first
    /// and the clone is consumed, so the stored stream never moves.
    /// This is what lets the whole-trace query engine extract from a
    /// shared `&Wet` on many threads at once.
    ///
    /// # Panics
    /// Panics on an [`Unavailable`](Seq::Unavailable) sequence.
    pub fn to_vec_snapshot(&self) -> Vec<u64> {
        match self {
            Seq::Raw(v) => v.clone(),
            Seq::Compressed(s) => s.clone().decompress(),
            Seq::Unavailable(_) => panic!("read from unavailable (salvage-lost) sequence"),
        }
    }

    /// Checked snapshot decompression for untrusted or salvaged data:
    /// `None` when the sequence is unavailable or its compressed form
    /// is internally inconsistent (claimed length exceeds stored
    /// entries). Never panics and never allocates beyond the data
    /// actually present. Tier-2 work happens on a clone.
    pub fn try_to_vec_snapshot(&self) -> Option<Vec<u64>> {
        match self {
            Seq::Raw(v) => Some(v.clone()),
            Seq::Compressed(s) => s.clone().try_decompress(),
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
/// move: the first time a cursor reads a compressed sequence it clones
/// the stream and walks its own copy from then on. Nearby reads stay
/// cheap in either direction, any number of queries read one `&Wet`
/// at once, and the bytes [`Wet::write_to`] writes do not depend on
/// which queries ran. Raw sequences are read in place.
pub struct Cursor<'w> {
    wet: &'w Wet,
    /// This query's copies of the streams it has read, keyed by the
    /// stored stream's address (fixed while `wet` is borrowed).
    windows: HashMap<usize, CompressedStream, BuildHasherDefault<AddrHasher>>,
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
        Cursor { wet, windows: HashMap::default() }
    }

    /// The WET this cursor reads.
    pub fn wet(&self) -> &'w Wet {
        self.wet
    }

    fn window(&mut self, s: &'w CompressedStream) -> &mut CompressedStream {
        self.windows.entry(s as *const CompressedStream as usize).or_insert_with(|| s.clone())
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
            Seq::Compressed(s) => self.window(s).get(i),
            Seq::Unavailable(_) => panic!("read from unavailable (salvage-lost) sequence"),
        }
    }

    /// Searches a **sorted** sequence for `target`, returning its
    /// position. A tier-2 search gallops from where this cursor last
    /// left the stream's window, so repeated nearby lookups are cheap.
    /// Unavailable sequences report no match.
    pub fn find_sorted(&mut self, seq: &'w Seq, target: u64) -> Option<usize> {
        match seq {
            Seq::Raw(v) => v.binary_search(&target).ok(),
            Seq::Compressed(s) if !s.is_empty() => {
                let s = self.window(s);
                let n = s.len();
                let mut i = s.window_start().clamp(0, n as isize - 1) as usize;
                let mut vi = s.get(i);
                while vi < target && i + 1 < n {
                    i += 1;
                    vi = s.get(i);
                }
                while vi > target && i > 0 {
                    i -= 1;
                    vi = s.get(i);
                }
                (vi == target).then_some(i)
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
