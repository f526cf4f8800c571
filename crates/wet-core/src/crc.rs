//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) implemented
//! in-repo — the integrity check of every `.wetz` v2 container section.
//!
//! The build environment is offline, so no `crc32fast`. The checksum
//! runs slice-by-8: eight 256-entry tables, computed at first use, fold
//! eight input bytes per step. Table 0 is the classic bytewise table;
//! table `k` advances a byte's contribution past `k` further zero
//! bytes, so one step is the XOR of eight lookups.

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
        let t = tables();
        let mut c = self.state;
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
        self.state = c;
    }

    /// The final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
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

    #[test]
    fn slice_by_8_matches_bytewise_at_every_length_and_offset() {
        let buf = data(308);
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start} len {len}");
            }
        }
    }

    proptest! {
        /// Any chunking of the input gives the one-shot checksum.
        #[test]
        fn random_chunkings_match_bytewise(
            len in 0usize..2000,
            cuts in prop::collection::vec(0usize..2000, 0..12),
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
