//! Bidirectionally traversable compressed streams (paper §4).
//!
//! A compressed stream of `m` values consists of three parts
//! (`[FR 1..i][U i+1..i+n][BL i+n+1..m]` in the paper's notation):
//!
//! * `FR` — values left of the window, forward-compressed using their
//!   *right* context, stored in a bit stack whose top is the rightmost;
//! * `U` — an `n`-value uncompressed window (`n` = the predictor's
//!   context size), the cursor;
//! * `BL` — values right of the window, backward-compressed using their
//!   *left* context, stored in a bit stack whose top is the leftmost.
//!
//! Moving the window one step right pops/uncompresses the nearest `BL`
//! entry and compresses the value leaving on the left into `FR`; moving
//! left is the exact mirror. Because every predictor operation is
//! reversible (see [`crate::predict`]), `forward ∘ backward` is the
//! identity on the entire structure — stacks, window, and predictor
//! tables — which is the property that makes O(1)-per-step traversal in
//! *either* direction possible.
//!
//! The stream is padded with `n` zeros at each end (paper: "we assume
//! that the stream is extended by n values each at the two ends") so the
//! window always has full context.
//!
//! Reading the *whole* stream needs no window movement: the values left
//! of the window are the FR entries popped top first, each against the
//! values right of it, and the values right of the window are the BL
//! entries popped top first, each against the values left of it. Each
//! side touches only its own table, so [`CompressedStream::try_decode`]
//! reads both stacks in place and copies one table per side.

use crate::bitbuf::BitStack;
use crate::predict::{hash_step, Method, PredState, Side, HASH_SEED};
use std::collections::VecDeque;

/// Configuration for stream compression.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Upper bound on FCM-family table size (`1 << table_bits_max`
    /// slots); actual tables are sized to the stream length.
    pub table_bits_max: u32,
    /// Number of leading values used to pick a method in
    /// [`CompressedStream::compress_auto`].
    pub trial_len: usize,
    /// Candidate methods for auto selection.
    pub candidates: Vec<Method>,
    /// Worker threads used by callers that compress *many* streams in
    /// bulk (`wet_core`'s tier-2 pass and query engine); `0` means all
    /// available cores. Compressing a single stream is an inherently
    /// sequential predictor pass, so this field does not change the
    /// behavior — or the output bytes — of any function in this crate.
    /// It is an execution knob, not data: it is never serialized, and
    /// bulk callers guarantee byte-identical output across values.
    pub num_threads: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            table_bits_max: 14,
            trial_len: 4096,
            candidates: Method::default_candidates(),
            num_threads: 1,
        }
    }
}

/// Compression statistics of one stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Predictor hits during initial compression.
    pub hits: u64,
    /// Predictor misses during initial compression.
    pub misses: u64,
}

/// A compressed stream of `u64` values with a bidirectional cursor.
///
/// All read operations take `&mut self` because reading moves the
/// cursor (the window). Clone the stream to traverse it from several
/// positions concurrently.
///
/// # Example
///
/// ```
/// use wet_stream::{CompressedStream, StreamConfig};
///
/// let values: Vec<u64> = (0..1000).map(|i| i * 3).collect();
/// let mut s = CompressedStream::compress_auto(&values, &StreamConfig::default());
/// assert_eq!(s.get(500), 1500);
/// assert_eq!(s.get(499), 1497); // backward step, same cost
/// assert!(s.compressed_bits() < 64 * 1000 / 8, "stride stream compresses well");
/// ```
#[derive(Debug, Clone)]
pub struct CompressedStream {
    method: Method,
    w: usize,
    len: usize,
    fr: BitStack,
    bl: BitStack,
    /// The uncompressed window; `window[0]` is logical index `win_start`.
    window: VecDeque<u64>,
    /// Logical index of `window[0]`, in `-w ..= len`.
    win_start: isize,
    pred: PredState,
    stats: StreamStats,
}

impl CompressedStream {
    /// Compresses `values` with an explicit method. The cursor starts at
    /// the **right** end (construction is a forward pass; rewinding or
    /// any [`get`](Self::get) repositions it as needed).
    pub fn compress(values: &[u64], method: Method, cfg: &StreamConfig) -> Self {
        let w = method.window();
        let table_bits = table_bits_for(values.len(), cfg.table_bits_max);
        let mut s = CompressedStream {
            method,
            w,
            len: values.len(),
            fr: BitStack::new(),
            bl: BitStack::new(),
            window: std::iter::repeat_n(0u64, w).collect(),
            win_start: -(w as isize),
            pred: PredState::new(method, table_bits),
            stats: StreamStats::default(),
        };
        // Build FR left-to-right. This is the op sequence of a real
        // forward traversal with the BL-uncompress half replaced by raw
        // reads, so every later traversal step revisits exactly the
        // table states established here — which is what keeps methods
        // with a *shared* table (last-n family) decodable.
        while s.win_start < s.len as isize {
            let idx = s.win_start + w as isize;
            let v = if idx >= 0 && (idx as usize) < values.len() { values[idx as usize] } else { 0 };
            s.window.push_back(v);
            let ctx = s.ctx_after_front();
            let leaving = s.window[0];
            let hit = s.pred.compress(Side::Fr, &ctx, leaving, &mut s.fr);
            if hit {
                s.stats.hits += 1;
            } else {
                s.stats.misses += 1;
            }
            s.window.pop_front();
            s.win_start += 1;
        }
        // Per-stream (not per-value) metrics: the name() allocation and
        // registry locking happen once per compressed stream.
        if wet_obs::enabled() {
            let label = method.name();
            wet_obs::counter_add("stream.compressed", &label, 1);
            wet_obs::counter_add("stream.predictor_hits", &label, s.stats.hits);
            wet_obs::counter_add("stream.predictor_misses", &label, s.stats.misses);
            wet_obs::counter_add("stream.values_in", &label, values.len() as u64);
            wet_obs::counter_add("stream.bytes_out", &label, s.compressed_bytes());
        }
        s
    }

    /// Compresses `values`, selecting the best method from
    /// `cfg.candidates` by trial-compressing a prefix (paper §5
    /// "Selection": "After a certain number of instances we pick the
    /// method that performs the best up to that point").
    pub fn compress_auto(values: &[u64], cfg: &StreamConfig) -> Self {
        let method = choose_method(values, cfg);
        Self::compress(values, method, cfg)
    }

    /// Number of values in the stream.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length stream.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The compression method in use.
    #[inline]
    pub fn method(&self) -> Method {
        self.method
    }

    /// Initial-compression hit/miss statistics.
    #[inline]
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Bits currently held in the FR and BL stacks (the payload of the
    /// compressed representation; excludes the window and predictor
    /// tables, which are bounded per-stream cursor state).
    #[inline]
    pub fn compressed_bits(&self) -> u64 {
        (self.fr.len() + self.bl.len()) as u64
    }

    /// Compressed payload size in bytes, including the window and a
    /// small fixed header, matching how the paper accounts WET sizes.
    pub fn compressed_bytes(&self) -> u64 {
        self.compressed_bits().div_ceil(8) + (self.w as u64) * 8 + 16
    }

    /// Total heap footprint including predictor tables — the in-memory
    /// cost of keeping the stream traversable.
    pub fn heap_bytes(&self) -> u64 {
        (self.fr.heap_bytes() + self.bl.heap_bytes() + self.window.capacity() * 8 + self.pred.heap_bytes()) as u64
            + 64
    }

    /// Logical index of the first window value (may be negative while
    /// the window overlaps the left padding).
    #[inline]
    pub fn window_start(&self) -> isize {
        self.win_start
    }

    /// Moves the window one value to the right. Returns `false` at the
    /// right end.
    pub fn step_forward(&mut self) -> bool {
        if self.win_start >= self.len as isize {
            return false;
        }
        // Uncompress the nearest BL entry using the current window as
        // (left) context, nearest first.
        let ctx = self.ctx_right_edge();
        let v = self.pred.uncompress(Side::Bl, &ctx, &mut self.bl);
        self.window.push_back(v);
        // Compress the value leaving on the left using the *shifted*
        // window as (right) context, nearest first.
        let ctx = self.ctx_after_front();
        let leaving = self.window[0];
        self.pred.compress(Side::Fr, &ctx, leaving, &mut self.fr);
        self.window.pop_front();
        self.win_start += 1;
        true
    }

    /// Moves the window one value to the left. Returns `false` at the
    /// left end.
    pub fn step_backward(&mut self) -> bool {
        if self.win_start <= -(self.w as isize) {
            return false;
        }
        // Uncompress the nearest FR entry using the current window as
        // (right) context, nearest first.
        let ctx = self.ctx_left_edge();
        let v = self.pred.uncompress(Side::Fr, &ctx, &mut self.fr);
        self.window.push_front(v);
        // Compress the value leaving on the right using the shifted
        // window as (left) context, nearest first.
        let ctx = self.ctx_left_of_back();
        let leaving = self.window[self.w];
        self.pred.compress(Side::Bl, &ctx, leaving, &mut self.bl);
        self.window.pop_back();
        self.win_start -= 1;
        true
    }

    /// Reads the value at logical index `i`, moving the cursor as
    /// needed (cost proportional to the distance moved).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&mut self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let i = i as isize;
        while i >= self.win_start + self.w as isize {
            self.step_forward();
        }
        while i < self.win_start {
            self.step_backward();
        }
        self.window[(i - self.win_start) as usize]
    }

    /// Checked [`step_forward`](Self::step_forward) for untrusted
    /// streams: `Some(true)` on a step, `Some(false)` at the right end,
    /// `None` when the BL stack underflows (corrupt stream — the
    /// claimed length exceeds the stored entries). On `None` the stream
    /// is partially mutated and must be discarded.
    pub fn try_step_forward(&mut self) -> Option<bool> {
        if self.win_start >= self.len as isize {
            return Some(false);
        }
        let ctx = self.ctx_right_edge();
        let v = self.pred.try_uncompress(Side::Bl, &ctx, &mut self.bl)?;
        self.window.push_back(v);
        let ctx = self.ctx_after_front();
        let leaving = self.window[0];
        self.pred.compress(Side::Fr, &ctx, leaving, &mut self.fr);
        self.window.pop_front();
        self.win_start += 1;
        Some(true)
    }

    /// Checked [`step_backward`](Self::step_backward); see
    /// [`try_step_forward`](Self::try_step_forward).
    pub fn try_step_backward(&mut self) -> Option<bool> {
        if self.win_start <= -(self.w as isize) {
            return Some(false);
        }
        let ctx = self.ctx_left_edge();
        let v = self.pred.try_uncompress(Side::Fr, &ctx, &mut self.fr)?;
        self.window.push_front(v);
        let ctx = self.ctx_left_of_back();
        let leaving = self.window[self.w];
        self.pred.compress(Side::Bl, &ctx, leaving, &mut self.bl);
        self.window.pop_back();
        self.win_start -= 1;
        Some(true)
    }

    /// Checked [`get`](Self::get): `None` when `i` is out of bounds or
    /// the stream is corrupt (stack underflow while moving the cursor).
    /// On `None` the stream may be partially mutated; discard it.
    pub fn try_get(&mut self, i: usize) -> Option<u64> {
        if i >= self.len {
            return None;
        }
        let i = i as isize;
        while i >= self.win_start + self.w as isize {
            if !self.try_step_forward()? {
                return None;
            }
        }
        while i < self.win_start {
            if !self.try_step_backward()? {
                return None;
            }
        }
        Some(self.window[(i - self.win_start) as usize])
    }

    /// Checked [`decompress`](Self::decompress) by walking the window:
    /// the full value sequence, or `None` if the stream's entries run
    /// out before its claimed length (corrupt input). On `None` the
    /// stream is partially mutated and must be discarded.
    /// [`try_decode`](Self::try_decode) returns the same without moving
    /// the window; this walk is its reference.
    pub fn try_decompress(&mut self) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        for i in 0..self.len {
            out.push(self.try_get(i)?);
        }
        Some(out)
    }

    /// The whole stream, decoded without moving the window.
    ///
    /// # Panics
    /// Panics when the stream is corrupt (see [`try_decode`](Self::try_decode)).
    pub fn decode(&self) -> Vec<u64> {
        self.try_decode().expect("compressed stream payload inconsistent")
    }

    /// The whole stream, or `None` exactly when
    /// [`try_decompress`](Self::try_decompress) on a clone is `None`.
    ///
    /// Each side is popped once, top first, from a read-only view of
    /// its stack: FR entries give the values left of the window,
    /// nearest first, each against the `w` values right of it; BL
    /// entries give the values right of the window against the `w`
    /// values left of it. A walk that went to index 0 and back would
    /// push and pop the same BL entries on its way and leave the BL
    /// table as it found it, so one copy of each side's table gives the
    /// same values with one predictor step per value (the walk takes two
    /// to four) and no clone of the stacks. Every entry holds at least one bit, so a claimed
    /// length the stacks cannot hold is refused before anything is
    /// allocated.
    pub fn try_decode(&self) -> Option<Vec<u64>> {
        let len = self.len as isize;
        let left = self.win_start.clamp(0, len) as usize;
        let right = (self.win_start + self.w as isize).clamp(0, len) as usize;
        if left > self.fr.len() || self.len - right > self.bl.len() {
            return None;
        }
        let mut out = vec![0u64; self.len];
        for (i, &v) in (self.win_start..).zip(&self.window) {
            if (0..len).contains(&i) {
                out[i as usize] = v;
            }
        }
        let (lo, hi) = out.split_at_mut(right);
        let fr = lo[..left].iter_mut().rev();
        self.pred.side(Side::Fr).decode(self.ctx_left_edge(), self.w, &mut self.fr.reader(), fr)?;
        self.pred.side(Side::Bl).decode(self.ctx_right_edge(), self.w, &mut self.bl.reader(), hi.iter_mut())?;
        Some(out)
    }

    /// Verifies the stream decodes over its whole claimed length without
    /// moving the cursor. This is the tier-2 cursor/payload consistency
    /// check `Wet::validate` runs on deserialized traces.
    pub fn check_integrity(&self) -> bool {
        self.try_decode().is_some()
    }

    /// Reads index `i` without moving the cursor, if it is inside the
    /// window.
    pub fn peek(&self, i: usize) -> Option<u64> {
        let i = i as isize;
        if i >= self.win_start && i < self.win_start + self.w as isize && i < self.len as isize {
            Some(self.window[(i - self.win_start) as usize])
        } else {
            None
        }
    }

    /// Decompresses the entire stream front to back.
    pub fn decompress(&mut self) -> Vec<u64> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Moves the cursor so the window starts at the left end.
    pub fn rewind(&mut self) {
        while self.win_start > -(self.w as isize) {
            self.step_backward();
        }
    }

    /// Borrowed view of all internal state (for serialization).
    pub fn raw_parts(&self) -> RawParts<'_> {
        RawParts {
            method: self.method,
            len: self.len,
            win_start: self.win_start,
            window: self.window.iter().copied().collect(),
            fr: &self.fr,
            bl: &self.bl,
            pred: &self.pred,
            hits: self.stats.hits,
            misses: self.stats.misses,
        }
    }

    /// Rebuilds a stream from its raw parts.
    ///
    /// # Errors
    /// Fails when the parts are structurally inconsistent (window size
    /// vs method, cursor out of range, mismatched predictor).
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        method: Method,
        len: usize,
        win_start: isize,
        window: Vec<u64>,
        fr: BitStack,
        bl: BitStack,
        pred: PredState,
        hits: u64,
        misses: u64,
    ) -> Result<Self, &'static str> {
        let w = method.window();
        if w > 4 {
            // Context buffers are fixed [u64; 4] arrays; a method with a
            // larger window would index past them during traversal.
            return Err("method window too large");
        }
        if window.len() != w {
            return Err("window size does not match method");
        }
        if win_start < -(w as isize) || win_start > len as isize {
            return Err("cursor out of range");
        }
        let matches = matches!(
            (&pred, method),
            (PredState::Fcm { .. }, Method::Fcm { .. })
                | (PredState::Dfcm { .. }, Method::Dfcm { .. })
                | (PredState::LastN { .. }, Method::LastN { .. })
                | (PredState::LastNStride { .. }, Method::LastNStride { .. })
        );
        if !matches {
            return Err("predictor kind does not match method");
        }
        Ok(CompressedStream {
            method,
            w,
            len,
            fr,
            bl,
            window: window.into(),
            win_start,
            pred,
            stats: StreamStats { hits, misses },
        })
    }
}

/// Borrowed internal state of a [`CompressedStream`].
#[derive(Debug)]
pub struct RawParts<'a> {
    /// Compression method.
    pub method: Method,
    /// Value count.
    pub len: usize,
    /// Cursor position.
    pub win_start: isize,
    /// Window contents (front to back; owned — the window is tiny).
    pub window: Vec<u64>,
    /// FR bit stack.
    pub fr: &'a BitStack,
    /// BL bit stack.
    pub bl: &'a BitStack,
    /// Predictor state.
    pub pred: &'a PredState,
    /// Construction hits.
    pub hits: u64,
    /// Construction misses.
    pub misses: u64,
}

// Context-slice helpers. All return nearest-first arrays of exactly `w`
// values (w <= 4 in practice; the buffer is fixed-size). The indexed
// loops mirror the paper's window-offset notation on a deque, where
// iterator chains would obscure the direction.
#[allow(clippy::needless_range_loop)]
impl CompressedStream {
    /// Context for uncompressing the value just right of the window:
    /// window values right-to-left.
    fn ctx_right_edge(&self) -> [u64; 4] {
        let mut c = [0u64; 4];
        for j in 0..self.w {
            c[j] = self.window[self.w - 1 - j];
        }
        c
    }

    /// Context for uncompressing the value just left of the window:
    /// window values left-to-right.
    fn ctx_left_edge(&self) -> [u64; 4] {
        let mut c = [0u64; 4];
        for j in 0..self.w {
            c[j] = self.window[j];
        }
        c
    }

    /// Context for compressing `window[0]` when the deque temporarily
    /// holds `w + 1` values: the values after the front, nearest first.
    fn ctx_after_front(&self) -> [u64; 4] {
        debug_assert_eq!(self.window.len(), self.w + 1);
        let mut c = [0u64; 4];
        for j in 0..self.w {
            c[j] = self.window[1 + j];
        }
        c
    }

    /// Context for compressing `window[w]` (the back) when the deque
    /// temporarily holds `w + 1` values: the values before the back,
    /// nearest first.
    fn ctx_left_of_back(&self) -> [u64; 4] {
        debug_assert_eq!(self.window.len(), self.w + 1);
        let mut c = [0u64; 4];
        for j in 0..self.w {
            c[j] = self.window[self.w - 1 - j];
        }
        c
    }
}

fn table_bits_for(len: usize, max_bits: u32) -> u32 {
    let want = usize::BITS - len.next_power_of_two().leading_zeros() - 1;
    want.clamp(4, max_bits.max(4))
}

/// Trial-compresses a prefix of `values` with every candidate and
/// returns the method with the fewest bits (ties break toward the
/// earlier candidate).
pub fn choose_method(values: &[u64], cfg: &StreamConfig) -> Method {
    let default;
    let candidates = if cfg.candidates.is_empty() {
        default = Method::default_candidates();
        &default
    } else {
        &cfg.candidates
    };
    let n = values.len().min(cfg.trial_len.max(1));
    let scores = trial_scores(&values[..n], candidates, table_bits_for(values.len(), cfg.table_bits_max));
    let mut best = candidates[0];
    let mut best_bits = u64::MAX;
    for (&m, &(bits, hits, misses)) in candidates.iter().zip(&scores) {
        // Trial hit rates cover *every* candidate on the same prefix —
        // the paper's per-variant predictor comparison — where the
        // post-selection counters only see each stream's winner.
        if wet_obs::enabled() {
            let label = m.name();
            wet_obs::counter_add("stream.trial_hits", &label, hits);
            wet_obs::counter_add("stream.trial_misses", &label, misses);
        }
        if bits < best_bits {
            best_bits = bits;
            best = m;
        }
    }
    best
}

/// Scores every candidate on `values` in one left-to-right pass,
/// returning each one's `(bits, hits, misses)` exactly as compressing
/// `values` alone with that method into a BL stack would count them
/// (compression ratios are direction-symmetric in expectation).
///
/// The candidates share the pass. The FCM order-`k` hash is the `k`-th
/// prefix of one `predict::hash_ctx` fold over the context,
/// and the DFCM hashes are one fold over its strides, so each order in
/// the list costs one probe of its own zeroed table. A last-*n* list of
/// size `m` is always the first `m` entries of a larger one: both start
/// zeroed, a hit at position `j < m` moves the same value to the front
/// of both, and any other value enters both at the front and shifts
/// them right by one. So one move-to-front list of the largest size
/// serves every size, and a hit at position `j` counts for every size
/// above `j`.
fn trial_scores(values: &[u64], candidates: &[Method], table_bits: u32) -> Vec<(u64, u64, u64)> {
    let mut fcm: [Vec<u64>; 5] = Default::default();
    let mut dfcm: [Vec<u64>; 4] = Default::default();
    let (mut last_n, mut stride_n) = (0, 0);
    for &m in candidates {
        let table = match m {
            Method::Fcm { order } => &mut fcm[order as usize],
            Method::Dfcm { order } => &mut dfcm[order as usize],
            Method::LastN { n } => {
                last_n = last_n.max(mtf_size(n));
                continue;
            }
            Method::LastNStride { n } => {
                stride_n = stride_n.max(mtf_size(n));
                continue;
            }
        };
        if table.is_empty() {
            *table = vec![0; 1 << table_bits];
        }
    }
    // Orders past the highest candidate need no hash.
    let fcm_orders = fcm.iter().rposition(|t| !t.is_empty()).map_or(0, |k| k + 1);
    let dfcm_orders = dfcm.iter().rposition(|t| !t.is_empty()).map_or(0, |k| k + 1);
    let mask = (1u64 << table_bits) - 1;
    let (mut fcm_hits, mut dfcm_hits) = ([0u64; 5], [0u64; 4]);
    let (mut last, mut stride) = (MtfPrefix::new(last_n), MtfPrefix::new(stride_n));
    // Nearest-first context, zero-padded left of the stream.
    let mut ctx = [0u64; 4];
    for &v in values {
        let mut h = HASH_SEED;
        for k in 0..fcm_orders {
            if k > 0 {
                h = hash_step(h, ctx[k - 1]);
            }
            fcm_hits[k] += u64::from(probe(&mut fcm[k], h & mask, v));
        }
        let stride_v = v.wrapping_sub(ctx[0]);
        let mut h = HASH_SEED;
        for k in 0..dfcm_orders {
            if k > 0 {
                h = hash_step(h, ctx[k - 1].wrapping_sub(ctx[k]));
            }
            dfcm_hits[k] += u64::from(probe(&mut dfcm[k], h & mask, stride_v));
        }
        last.push(v);
        stride.push(stride_v);
        ctx = [v, ctx[0], ctx[1], ctx[2]];
    }
    let total = values.len() as u64;
    // A hit costs its flag plus `hit_bits` of payload; every miss costs
    // the flag plus a 64-bit payload.
    let score = |hits: u64, hit_bits: u32| (hits * (1 + u64::from(hit_bits)) + (total - hits) * 65, hits, total - hits);
    candidates
        .iter()
        .map(|&m| match m {
            Method::Fcm { order } => score(fcm_hits[order as usize], 0),
            Method::Dfcm { order } => score(dfcm_hits[order as usize], 0),
            Method::LastN { n } => score(last.hits(n as usize), n.trailing_zeros()),
            Method::LastNStride { n } => score(stride.hits(n as usize), n.trailing_zeros()),
        })
        .collect()
}

/// One direct-mapped predictor step on an empty-when-unused table:
/// true on a hit; a miss stores `v`.
#[inline]
fn probe(table: &mut [u64], slot: u64, v: u64) -> bool {
    let Some(e) = table.get_mut(slot as usize) else { return false };
    let hit = *e == v;
    *e = v;
    hit
}

/// Checks a last-*n* size the way `predict::MtfTable::new` does.
fn mtf_size(n: u32) -> usize {
    let n = n as usize;
    assert!(n.is_power_of_two() && n >= 2, "MTF size must be a power of two >= 2");
    n
}

/// A move-to-front list that counts the hits at each position.
struct MtfPrefix {
    vals: Vec<u64>,
    hits_at: Vec<u64>,
}

impl MtfPrefix {
    fn new(n: usize) -> Self {
        MtfPrefix { vals: vec![0; n], hits_at: vec![0; n] }
    }

    fn push(&mut self, v: u64) {
        if self.vals.is_empty() {
            return;
        }
        match self.vals.iter().position(|&x| x == v) {
            Some(j) => {
                self.hits_at[j] += 1;
                self.vals[..=j].rotate_right(1);
            }
            None => {
                self.vals.rotate_right(1);
                self.vals[0] = v;
            }
        }
    }

    /// Hits a list of the first `n` entries would have scored.
    fn hits(&self, n: usize) -> u64 {
        self.hits_at[..n].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> StreamConfig {
        StreamConfig::default()
    }

    /// Reference for [`trial_scores`]: one candidate per pass, with a
    /// fresh predictor compressing into a real BL stack.
    fn trial_bits(values: &[u64], method: Method, table_bits: u32) -> (u64, u64, u64) {
        let w = method.window();
        let mut st = PredState::new(method, table_bits);
        let mut stack = BitStack::new();
        let mut ctx = [0u64; 4];
        let mut hits = 0u64;
        for (i, &v) in values.iter().enumerate() {
            for (j, c) in ctx.iter_mut().enumerate().take(w) {
                let d = j + 1;
                *c = if i >= d { values[i - d] } else { 0 };
            }
            hits += u64::from(st.compress(Side::Bl, &ctx, v, &mut stack));
        }
        (stack.len() as u64, hits, values.len() as u64 - hits)
    }

    /// [`choose_method`] over [`trial_bits`], one pass per candidate.
    fn choose_method_per_candidate(values: &[u64], cfg: &StreamConfig) -> Method {
        let candidates = if cfg.candidates.is_empty() { Method::default_candidates() } else { cfg.candidates.clone() };
        let prefix = &values[..values.len().min(cfg.trial_len.max(1))];
        let mut best = (u64::MAX, candidates[0]);
        for &m in &candidates {
            let (bits, hits, misses) = trial_bits(prefix, m, table_bits_for(values.len(), cfg.table_bits_max));
            if wet_obs::enabled() {
                wet_obs::counter_add("stream.trial_hits", &m.name(), hits);
                wet_obs::counter_add("stream.trial_misses", &m.name(), misses);
            }
            if bits < best.0 {
                best = (bits, m);
            }
        }
        best.1
    }

    /// The method `choose` picks and the counter increments it makes,
    /// in order, with profiling on for this thread.
    fn trial_counters(choose: impl FnOnce() -> Method) -> (Method, Vec<(String, u64)>) {
        let _on = wet_obs::scoped_enable();
        let cap = wet_obs::capture();
        let m = choose();
        (m, cap.events().0.into_iter().map(|e| (e.name.into_owned(), e.n)).collect())
    }

    /// Streams shaped like WET's: random, small-alphabet, noisy-stride
    /// and repeating-pattern values, long enough to outrun small
    /// tables and the MTF lists.
    fn values_strategy() -> impl Strategy<Value = Vec<u64>> {
        prop_oneof![
            prop::collection::vec(any::<u64>(), 0..200),
            prop::collection::vec(0u64..8, 0..600),
            prop::collection::vec(0u64..40, 0..600),
            (any::<u32>(), 1u64..100, prop::collection::vec(0u64..3, 0..600)).prop_map(|(base, stride, noise)| {
                let mut v = u64::from(base);
                noise
                    .into_iter()
                    .map(|n| {
                        v = v.wrapping_add(stride + n);
                        v
                    })
                    .collect()
            }),
            (prop::collection::vec(0u64..1000, 1..40), 0usize..900)
                .prop_map(|(pat, len)| (0..len).map(|i| pat[i % pat.len()]).collect()),
        ]
    }

    /// Candidate lists: the default one, a permutation of it, a
    /// shuffled subset (empty means the default), a list with duplicates, a list without FCM, and
    /// the extreme last-*n* sizes, over the default methods plus
    /// `last2`, `last32` and `stride64`.
    fn candidates_strategy() -> impl Strategy<Value = Vec<Method>> {
        (0u32..6, prop::collection::vec(any::<u64>(), 1..24)).prop_map(|(shape, picks)| {
            let mut pool = Method::default_candidates();
            pool.extend([Method::LastN { n: 2 }, Method::LastN { n: 32 }, Method::LastNStride { n: 64 }]);
            let shuffle = |mut list: Vec<Method>| {
                for i in (1..list.len()).rev() {
                    list.swap(i, (picks[i % picks.len()] % (i as u64 + 1)) as usize);
                }
                list
            };
            match shape {
                0 => Method::default_candidates(),
                1 => shuffle(Method::default_candidates()),
                2 => shuffle((0..pool.len()).filter(|i| picks[0] >> i & 1 == 1).map(|i| pool[i]).collect()),
                3 => picks.iter().map(|&p| pool[(p % pool.len() as u64) as usize]).collect(),
                4 => shuffle(pool.into_iter().filter(|m| !matches!(m, Method::Fcm { .. })).collect()),
                _ => vec![
                    Method::LastN { n: 2 },
                    Method::LastN { n: 32 },
                    Method::LastNStride { n: 64 },
                    Method::LastNStride { n: 4 },
                    Method::Dfcm { order: 2 },
                ],
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The fused pass scores every candidate exactly as its own
        /// trial pass does, and so picks the same method and reports
        /// the same trial counters.
        #[test]
        fn fused_selection_matches_per_candidate_trials(
            values in values_strategy(),
            candidates in candidates_strategy(),
            table_bits_max in 4u32..10,
            trial_len in prop_oneof![Just(1usize), Just(50), Just(256), Just(4096)],
        ) {
            let cfg = StreamConfig { table_bits_max, trial_len, candidates, num_threads: 1 };
            let prefix = &values[..values.len().min(trial_len)];
            let table_bits = table_bits_for(values.len(), table_bits_max);
            let fused = trial_scores(prefix, &cfg.candidates, table_bits);
            for (&m, &got) in cfg.candidates.iter().zip(&fused) {
                prop_assert_eq!(got, trial_bits(prefix, m, table_bits), "{}", m.name());
            }
            let want = trial_counters(|| choose_method_per_candidate(&values, &cfg));
            let got = trial_counters(|| choose_method(&values, &cfg));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn roundtrip_all_methods_small() {
        let values: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4];
        for m in Method::default_candidates() {
            let mut s = CompressedStream::compress(&values, m, &cfg());
            assert_eq!(s.decompress(), values, "method {}", m.name());
        }
    }

    #[test]
    fn roundtrip_empty_and_single() {
        for m in Method::default_candidates() {
            let mut s = CompressedStream::compress(&[], m, &cfg());
            assert!(s.is_empty());
            assert_eq!(s.decompress(), Vec::<u64>::new());
            let mut s = CompressedStream::compress(&[42], m, &cfg());
            assert_eq!(s.decompress(), vec![42]);
            assert_eq!(s.get(0), 42);
        }
    }

    #[test]
    fn backward_traversal_reads_same_values() {
        let values: Vec<u64> = (0..500).map(|i| (i * i) % 97).collect();
        let mut s = CompressedStream::compress_auto(&values, &cfg());
        // Walk to the right end, then read backwards.
        let mut back: Vec<u64> = (0..values.len()).rev().map(|i| s.get(i)).collect();
        back.reverse();
        assert_eq!(back, values);
    }

    #[test]
    fn forward_backward_is_identity() {
        let values: Vec<u64> = (0..200).map(|i| i % 7 * 1000).collect();
        for m in Method::default_candidates() {
            let mut s = CompressedStream::compress(&values, m, &cfg());
            s.rewind();
            for _ in 0..50 {
                s.step_forward();
            }
            let snapshot = s.clone();
            assert!(s.step_forward());
            assert!(s.step_backward());
            assert_eq!(s.fr, snapshot.fr, "{}: FR stack differs", m.name());
            assert_eq!(s.bl, snapshot.bl, "{}: BL stack differs", m.name());
            assert_eq!(s.window, snapshot.window, "{}", m.name());
            assert_eq!(s.pred, snapshot.pred, "{}: predictor state differs", m.name());
        }
    }

    #[test]
    fn random_walk_then_full_read() {
        let values: Vec<u64> = (0..300).map(|i| (i * 31 + 7) % 256).collect();
        let mut s = CompressedStream::compress_auto(&values, &cfg());
        // Deterministic pseudo-random walk.
        let mut x = 12345u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if x & 1 == 0 {
                s.step_forward();
            } else {
                s.step_backward();
            }
        }
        assert_eq!(s.decompress(), values, "stream corrupted by random walk");
    }

    #[test]
    fn constant_stream_compresses_hard() {
        let values = vec![7u64; 10_000];
        let s = CompressedStream::compress_auto(&values, &cfg());
        // ~1 bit per value after warmup.
        assert!(s.compressed_bits() < 16_000, "bits = {}", s.compressed_bits());
        assert!(s.stats().hits > 9_900);
    }

    #[test]
    fn stride_stream_prefers_stride_method() {
        let values: Vec<u64> = (0..5000).map(|i| 1_000_000 + 12 * i).collect();
        let m = choose_method(&values, &cfg());
        assert!(
            matches!(m, Method::Dfcm { .. } | Method::LastNStride { .. }),
            "expected a stride-based method, got {}",
            m.name()
        );
        let s = CompressedStream::compress(&values, m, &cfg());
        assert!(s.compressed_bits() < 10_000, "bits = {}", s.compressed_bits());
    }

    #[test]
    fn repeating_pattern_prefers_context_method() {
        let pat = [10u64, 20, 30, 40, 50, 60, 70];
        let values: Vec<u64> = (0..5000).map(|i| pat[i % pat.len()]).collect();
        let s = CompressedStream::compress_auto(&values, &cfg());
        assert!(s.compressed_bits() < 10_000, "bits = {}", s.compressed_bits());
    }

    #[test]
    fn random_stream_stays_near_raw_size() {
        let mut x = 99u64;
        let values: Vec<u64> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let s = CompressedStream::compress_auto(&values, &cfg());
        let raw_bits = 64 * 2000;
        assert!(
            s.compressed_bits() <= raw_bits + raw_bits / 32,
            "worst case within ~3% of raw: {} vs {}",
            s.compressed_bits(),
            raw_bits
        );
    }

    #[test]
    fn get_panics_out_of_bounds() {
        let mut s = CompressedStream::compress(&[1, 2, 3], Method::Fcm { order: 1 }, &cfg());
        assert_eq!(s.get(2), 3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.get(3)));
        assert!(r.is_err());
    }

    #[test]
    fn rewind_returns_to_left_end() {
        let values: Vec<u64> = (0..100).collect();
        let mut s = CompressedStream::compress_auto(&values, &cfg());
        s.get(99);
        s.rewind();
        assert_eq!(s.window_start(), -(s.method().window() as isize));
        assert_eq!(s.get(0), 0);
    }

    #[test]
    fn compressed_bytes_accounts_header() {
        let s = CompressedStream::compress(&[1, 2, 3], Method::LastN { n: 4 }, &cfg());
        assert!(s.compressed_bytes() >= 16);
        assert!(s.heap_bytes() >= s.compressed_bytes());
    }
}
