//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) implemented
//! in-repo — the integrity check of every `.wetz` v2 container section.
//!
//! The build environment is offline, so no `crc32fast`. Two kernels
//! compute the same checksum:
//!
//! * **Carry-less multiply folding** (x86-64 with PCLMULQDQ, inputs of
//!   at least 128 bytes), chosen by a run-time CPU-feature check. Four
//!   128-bit accumulators fold 64 input bytes per step, then one, then
//!   a Barrett reduction leaves the 32-bit remainder (Gopal et al.,
//!   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction", Intel, 2009, in its bit-reflected form).
//! * **Slice-by-8**, the portable path and the tail of the folding one:
//!   eight 256-entry tables, computed at first use, fold eight input
//!   bytes per step. Table 0 is the classic bytewise table; table `k`
//!   advances a byte's contribution past `k` further zero bytes, so one
//!   step is the XOR of eight lookups.

use std::sync::OnceLock;

fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let c = t[k - 1][i];
                t[k][i] = t[0][(c & 0xFF) as usize] ^ (c >> 8);
            }
        }
        t
    })
}

/// A streaming CRC-32 accumulator.
#[derive(Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= 128 && clmul::available() {
            // SAFETY: `clmul::available()` has just checked at run time
            // that this CPU supports PCLMULQDQ, the one feature `fold`
            // enables beyond the x86-64 baseline.
            let (state, tail) = unsafe { clmul::fold(self.state, bytes) };
            self.state = slice_by_8(state, tail);
            return;
        }
        self.state = slice_by_8(self.state, bytes);
    }

    /// The final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// The portable kernel: advances the CRC register `c` over `bytes`.
fn slice_by_8(mut c: u32, bytes: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The folding kernel on x86-64.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128, _mm_loadu_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected polynomial, each
    // `[(x^n mod P(x)) << 32]'` bit-reflected and shifted left by one,
    // as in the Intel paper and the Linux kernel's `crc32-pclmul`. The
    // tests check every path against the bytewise table loop.
    /// `n = 4·128 + 32`: folds an accumulator 512 bits ahead (low half).
    const K1: i64 = 0x1_5444_2bd4;
    /// `n = 4·128 − 32` (high half).
    const K2: i64 = 0x1_c6e4_1596;
    /// `n = 128 + 32`: folds 128 bits ahead (low half).
    const K3: i64 = 0x1_7519_97d0;
    /// `n = 128 − 32` (high half).
    const K4: i64 = 0x0_ccaa_009e;
    /// `n = 64`: reduces the last 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// `P(x)` itself, reflected.
    const P_X: i64 = 0x1_DB71_0641;
    /// The Barrett quotient `x^64 / P(x)`, reflected.
    const U_PRIME: i64 = 0x1_F701_1641;

    /// True when this CPU has PCLMULQDQ.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    /// `a·x^n ⊕ b` for the `n` whose constants `keys` holds.
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        _mm_xor_si128(_mm_xor_si128(b, _mm_clmulepi64_si128(a, keys, 0x00)), _mm_clmulepi64_si128(a, keys, 0x11))
    }

    fn load(b: &[u8]) -> __m128i {
        assert!(b.len() >= 16);
        // SAFETY: `b` holds at least 16 readable bytes, and the
        // unaligned load has no alignment requirement.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// Advances the CRC register `c` over the longest multiple of 16
    /// bytes at the front of `bytes` (at least 64 long), returning the
    /// register and the unread tail.
    ///
    /// # Safety
    /// The caller must have checked that the CPU supports PCLMULQDQ
    /// ([`available`]).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(c: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (head, rest) = bytes.split_at(64);
        let mut x = [load(head), load(&head[16..]), load(&head[32..]), load(&head[48..])];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for b in &mut blocks {
            for (j, xj) in x.iter_mut().enumerate() {
                *xj = fold16(*xj, load(&b[16 * j..]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold16(fold16(fold16(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut blocks = blocks.remainder().chunks_exact(16);
        for b in &mut blocks {
            acc = fold16(acc, load(b), k3k4);
        }
        // 128 bits to 96, then to 64.
        let mask32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10), _mm_srli_si128(acc, 8));
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett reduction to 32 bits; the reflected remainder is the
        // second 32-bit lane.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, mask32), pu, 0x00);
        let c = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, t2), 4)) as u32;
        (c, blocks.remainder())
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table loop slice-by-8 replaces.
    fn bytewise(bytes: &[u8]) -> u32 {
        let t = &tables()[0];
        !bytes.iter().fold(!0u32, |c, &b| t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8))
    }

    fn data(n: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// The portable kernel, called directly so it runs on hosts where
    /// `update` picks the folding one.
    #[test]
    fn slice_by_8_matches_bytewise_at_every_length_and_offset() {
        let buf = data(308);
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(!slice_by_8(!0, bytes), bytewise(bytes), "start {start} len {len}");
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start} len {len}");
            }
        }
    }

    /// `update` (the folding kernel where the CPU has it) around every
    /// fold boundary: lengths next to each multiple of 16 and 64 from
    /// 112 to 320, at every start offset within a 16-byte block.
    #[test]
    fn update_matches_bytewise_around_fold_boundaries() {
        let buf = data(340);
        for start in 0..16 {
            for m in (112..=320).step_by(16) {
                for len in m - 1..=m + 1 {
                    let bytes = &buf[start..start + len];
                    assert_eq!(crc32(bytes), bytewise(bytes), "start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn update_matches_bytewise_on_a_mebibyte() {
        let bytes = data(1 << 20);
        assert_eq!(crc32(&bytes), bytewise(&bytes));
        assert_eq!(crc32(&bytes[3..]), bytewise(&bytes[3..]));
    }

    /// The folding kernel itself, wherever the CPU has it, with the
    /// register it leaves finished by the portable one.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_fold_matches_bytewise() {
        if !clmul::available() {
            return;
        }
        let buf = data(600);
        for len in 64..=580 {
            // SAFETY: `clmul::available()` returned true above.
            let (c, tail) = unsafe { clmul::fold(!0, &buf[..len]) };
            assert!(tail.len() < 16, "len {len}");
            assert_eq!(!slice_by_8(c, tail), bytewise(&buf[..len]), "len {len}");
        }
    }

    proptest! {
        /// Any chunking of the input gives the one-shot checksum.
        #[test]
        fn random_chunkings_match_bytewise(
            len in 0usize..4000,
            cuts in prop::collection::vec(0usize..4000, 0..12),
        ) {
            let bytes = data(len);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.push(0);
            cuts.push(len);
            cuts.sort_unstable();
            let mut c = Crc32::new();
            for w in cuts.windows(2) {
                c.update(&bytes[w[0]..w[1]]);
            }
            prop_assert_eq!(c.finish(), bytewise(&bytes));
        }
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(97) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 256];
        data.iter_mut().enumerate().for_each(|(i, b)| *b = (i * 7) as u8);
        let clean = crc32(&data);
        for i in [0usize, 100, 255] {
            for bit in [0u8, 3, 7] {
                let mut d = data.clone();
                d[i] ^= 1 << bit;
                assert_ne!(crc32(&d), clean, "flip at {i}.{bit} undetected");
            }
        }
    }
}
