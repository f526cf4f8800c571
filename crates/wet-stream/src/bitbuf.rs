//! Bit-level stacks used to store compressed stream entries.
//!
//! The bidirectional stream keeps two bit stacks: `FR` (values left of
//! the uncompressed window, compressed with right context) and `BL`
//! (values right of the window, compressed with left context). Cursor
//! movement pushes entries onto one stack and pops from the other, so a
//! LIFO bit container is exactly what is needed.
//!
//! Entries are written *payload first, flag last*, so that popping reads
//! the 1-bit hit/miss flag first and then knows how many payload bits to
//! pop.
//!
//! A whole-stream decode pops every entry of a stack exactly once, so it
//! reads the stored words in place through a [`BitReader`] instead of
//! popping a copy of the stack.

/// Anything that accepts pushed bits: a [`BitStack`], or the
/// unidirectional baseline's forward bit vector.
pub trait BitSink {
    /// Pushes a single bit.
    fn push_bit(&mut self, bit: bool);
    /// Pushes the low `width` bits of `value` (LSB pushed first).
    ///
    /// # Panics
    /// [`BitStack`] panics if `width > 64`.
    fn push_bits(&mut self, value: u64, width: u32);
}

/// Anything entries can be popped from, top first: a [`BitStack`], which
/// releases what it pops, or a read-only [`BitReader`] over one.
pub trait BitSource {
    /// Pops a single bit; `None` when no bits are left.
    fn try_pop_bit(&mut self) -> Option<bool>;
    /// Pops `width` bits pushed by a matching
    /// [`push_bits`](BitSink::push_bits); `None`, with nothing popped,
    /// when fewer than `width` bits are left or `width > 64`.
    fn try_pop_bits(&mut self, width: u32) -> Option<u64>;
}

/// A growable stack of bits with LIFO semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitStack {
    words: Vec<u64>,
    len: usize,
}

impl BitStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pops a single bit.
    ///
    /// # Panics
    /// Panics if the stack is empty.
    #[inline]
    pub fn pop_bit(&mut self) -> bool {
        assert!(self.len > 0, "pop from empty BitStack");
        self.len -= 1;
        let (w, b) = (self.len / 64, self.len % 64);
        let bit = (self.words[w] >> b) & 1 == 1;
        // Clear so Eq/Debug stay canonical.
        self.words[w] &= !(1u64 << b);
        if b == 0 {
            self.words.pop();
        }
        bit
    }

    /// Pops `width` bits pushed by a matching
    /// [`push_bits`](BitSink::push_bits) call, reconstructing the value.
    ///
    /// # Panics
    /// Panics if fewer than `width` bits are stored or `width > 64`.
    #[inline]
    pub fn pop_bits(&mut self, width: u32) -> u64 {
        assert!(width <= 64);
        let width = width as usize;
        assert!(self.len >= width, "pop from empty BitStack");
        if width == 0 {
            return 0;
        }
        // push_bits put value bit i at index `len + i`, so the value is
        // the top `width` bits read upward from the new length; it
        // spans at most two words.
        let len = self.len - width;
        let (w, b) = (len / 64, len % 64);
        let mut v = self.words[w] >> b;
        if b + width > 64 {
            v |= self.words[w + 1] << (64 - b);
        }
        // Release emptied words and clear the rest above the new top,
        // so Eq/Debug stay canonical.
        self.words.truncate(len.div_ceil(64));
        if b != 0 {
            self.words[w] &= (1u64 << b) - 1;
        }
        self.len = len;
        v & (u64::MAX >> (64 - width))
    }

    /// A read-only reader that pops this stack's bits top first without
    /// changing it.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader { words: &self.words, len: self.len }
    }

    /// Heap bytes used by the backing storage.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// The backing words and bit length (for serialization).
    pub fn raw_parts(&self) -> (&[u64], usize) {
        (&self.words, self.len)
    }

    /// Rebuilds a stack from its raw parts.
    ///
    /// # Errors
    /// Fails if the word count does not match the bit length or the
    /// unused high bits are not zero (non-canonical form).
    pub fn from_raw_parts(words: Vec<u64>, len: usize) -> Result<Self, &'static str> {
        if words.len() != len.div_ceil(64) {
            return Err("bit length does not match word count");
        }
        if !len.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return Err("non-canonical bits above the stack top");
                }
            }
        }
        Ok(BitStack { words, len })
    }
}

/// The checked pops: the building block of the traversal path used on
/// untrusted (deserialized) streams.
impl BitSource for BitStack {
    #[inline]
    fn try_pop_bit(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        Some(self.pop_bit())
    }

    #[inline]
    fn try_pop_bits(&mut self, width: u32) -> Option<u64> {
        if width > 64 || self.len < width as usize {
            return None;
        }
        Some(self.pop_bits(width))
    }
}

/// Pops the bits of a borrowed [`BitStack`] top first, as the stack's own
/// pops would return them, while the stack stays unchanged.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    words: &'a [u64],
    /// Bits not yet popped; the next pop reads just below this index.
    len: usize,
}

impl BitSource for BitReader<'_> {
    #[inline]
    fn try_pop_bit(&mut self) -> Option<bool> {
        self.len = self.len.checked_sub(1)?;
        Some((self.words[self.len / 64] >> (self.len % 64)) & 1 == 1)
    }

    #[inline]
    fn try_pop_bits(&mut self, width: u32) -> Option<u64> {
        if width > 64 || self.len < width as usize {
            return None;
        }
        if width == 0 {
            return Some(0);
        }
        // The value is the top `width` bits read upward from the new
        // length; it spans at most two words. Bits above the stack's top
        // are zero in a canonical stack, and masked off in any case.
        self.len -= width as usize;
        let (w, b) = (self.len / 64, self.len % 64);
        let mut v = self.words[w] >> b;
        if b + width as usize > 64 {
            v |= self.words[w + 1] << (64 - b);
        }
        Some(v & (u64::MAX >> (64 - width)))
    }
}

impl BitSink for BitStack {
    #[inline]
    fn push_bit(&mut self, bit: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1u64 << b;
        }
        self.len += 1;
    }

    #[inline]
    fn push_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "push of more than 64 bits");
        if width == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - width));
        let b = self.len % 64;
        if b == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("a partial word is stored") |= value << b;
            if b + width as usize > 64 {
                self.words.push(value >> (64 - b));
            }
        }
        self.len += width as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bit_roundtrip_lifo() {
        let mut s = BitStack::new();
        s.push_bit(true);
        s.push_bit(false);
        s.push_bit(true);
        assert_eq!(s.len(), 3);
        assert!(s.pop_bit());
        assert!(!s.pop_bit());
        assert!(s.pop_bit());
        assert!(s.is_empty());
    }

    #[test]
    fn multibit_roundtrip() {
        let mut s = BitStack::new();
        s.push_bits(0xDEAD_BEEF_CAFE_F00D, 64);
        s.push_bits(0b101, 3);
        assert_eq!(s.pop_bits(3), 0b101);
        assert_eq!(s.pop_bits(64), 0xDEAD_BEEF_CAFE_F00D);
        assert!(s.is_empty());
    }

    #[test]
    fn interleaved_entries_pop_in_reverse() {
        // Simulates entry format: payload then flag.
        let mut s = BitStack::new();
        s.push_bits(42, 64);
        s.push_bit(false); // miss entry
        s.push_bit(true); // hit entry
        assert!(s.pop_bit()); // hit
        assert!(!s.pop_bit()); // miss flag
        assert_eq!(s.pop_bits(64), 42);
    }

    #[test]
    fn word_boundary_crossing() {
        let mut s = BitStack::new();
        for i in 0..200u64 {
            s.push_bits(i, 7);
        }
        assert_eq!(s.len(), 1400);
        for i in (0..200u64).rev() {
            assert_eq!(s.pop_bits(7), i & 0x7f);
        }
        assert!(s.is_empty());
        assert!(s.words.is_empty(), "popped words are released");
    }

    #[test]
    #[should_panic(expected = "pop from empty")]
    fn pop_empty_panics() {
        BitStack::new().pop_bit();
    }

    #[test]
    fn canonical_equality_after_pop() {
        let mut a = BitStack::new();
        a.push_bits(0xFFFF, 16);
        let mut b = a.clone();
        b.push_bit(true);
        b.pop_bit();
        assert_eq!(a, b, "popping restores canonical representation");
    }

    #[test]
    #[should_panic(expected = "more than 64 bits")]
    fn push_wider_than_a_word_panics() {
        BitStack::new().push_bits(u64::MAX, 65);
    }

    #[derive(Debug, Clone)]
    enum Op {
        PushBit(bool),
        PushBits(u64, u32),
        PopBit,
        PopBits(u32),
        TryPopBits(u32),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<bool>().prop_map(Op::PushBit),
            (any::<u64>(), 0u32..65).prop_map(|(v, w)| Op::PushBits(v, w)),
            Just(Op::PopBit),
            (0u32..65).prop_map(Op::PopBits),
            (0u32..66).prop_map(Op::TryPopBits),
        ]
    }

    /// The words a canonical stack holding `bits` must have.
    fn packed(bits: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
            words[i / 64] |= 1 << (i % 64);
        }
        words
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push/pop sequences agree with a `Vec<bool>` model on
        /// every popped value, the length and the canonical words.
        #[test]
        fn matches_a_bit_vector_model(ops in prop::collection::vec(op(), 0..300)) {
            let mut s = BitStack::new();
            let mut model: Vec<bool> = Vec::new();
            let pop_model = |model: &mut Vec<bool>, width: u32| {
                (0..width).rev().fold(0u64, |v, i| v | (u64::from(model.pop().unwrap()) << i))
            };
            for op in ops {
                match op {
                    Op::PushBit(b) => {
                        s.push_bit(b);
                        model.push(b);
                    }
                    Op::PushBits(v, w) => {
                        s.push_bits(v, w);
                        model.extend((0..w).map(|i| (v >> i) & 1 == 1));
                    }
                    Op::PopBit => {
                        if let Some(b) = model.pop() {
                            prop_assert_eq!(s.pop_bit(), b);
                        }
                    }
                    Op::PopBits(w) => {
                        if model.len() >= w as usize {
                            prop_assert_eq!(s.pop_bits(w), pop_model(&mut model, w));
                        }
                    }
                    Op::TryPopBits(w) => {
                        if w <= 64 && model.len() >= w as usize {
                            prop_assert_eq!(s.try_pop_bits(w), Some(pop_model(&mut model, w)));
                        } else {
                            let before = s.clone();
                            prop_assert_eq!(s.try_pop_bits(w), None);
                            prop_assert_eq!(&s, &before, "a failed try_pop_bits mutated the stack");
                        }
                    }
                }
                prop_assert_eq!(s.len(), model.len());
                let (words, len) = s.raw_parts();
                prop_assert_eq!(words, &packed(&model)[..]);
                prop_assert_eq!(BitStack::from_raw_parts(words.to_vec(), len), Ok(s.clone()));
            }
        }
    }
}
