//! Binary serialization of compressed streams.
//!
//! A [`CompressedStream`] is fully self-contained state — bit stacks,
//! window, predictor tables — so round-tripping it through bytes
//! preserves traversability exactly. Little-endian, length-prefixed,
//! no external dependencies.

use crate::bidi::CompressedStream;
use crate::bitbuf::BitStack;
use crate::predict::{Method, MtfTable, PredState, Table};
use std::io::{self, Read, Write};

/// Writes a `u8`.
pub fn w_u8(w: &mut impl Write, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

/// Writes a `u32` (LE).
pub fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a `u64` (LE).
pub fn w_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a length-prefixed `u64` slice.
pub fn w_u64s(w: &mut impl Write, vs: &[u64]) -> io::Result<()> {
    w_u64(w, vs.len() as u64)?;
    for &v in vs {
        w_u64(w, v)?;
    }
    Ok(())
}

/// Reads a `u8`.
pub fn r_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Reads a `u32` (LE).
pub fn r_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a `u64` (LE).
pub fn r_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Upper bound on the elements pre-allocated for any wire-supplied
/// length prefix (64 KiB of `u64`s). Vectors longer than this grow
/// incrementally, so allocation tracks bytes actually present in the
/// input — a forged 8-byte length can never request gigabytes up
/// front.
pub const PREALLOC_CAP: usize = 1 << 13;

/// Reads a length-prefixed `u64` vector, one `read_exact` per chunk of
/// up to 32 values into a small stack buffer. Pre-allocation is capped
/// at [`PREALLOC_CAP`] elements and the vector grows only by values
/// that actually arrived, so a forged length prefix costs at most the
/// bytes the reader can really produce plus one pre-allocated chunk.
/// Many vectors are short, so the buffer is small and on the stack: a
/// large one zeroed on every call, or a heap one, adds work per vector.
pub fn r_u64s(r: &mut impl Read) -> io::Result<Vec<u64>> {
    let n = r_u64(r)? as usize;
    if n > (1 << 34) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "length prefix too large"));
    }
    let mut v = Vec::with_capacity(n.min(PREALLOC_CAP));
    let mut buf = [0u8; 8 * 32];
    while v.len() < n {
        let chunk = &mut buf[..8 * (n - v.len()).min(32)];
        r.read_exact(chunk)?;
        v.extend(chunk.chunks_exact(8).map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk"))));
    }
    Ok(v)
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn w_method(w: &mut impl Write, m: Method) -> io::Result<()> {
    let (tag, arg) = match m {
        Method::Fcm { order } => (0u8, order),
        Method::Dfcm { order } => (1, order),
        Method::LastN { n } => (2, n),
        Method::LastNStride { n } => (3, n),
    };
    w_u8(w, tag)?;
    w_u32(w, arg)
}

fn r_method(r: &mut impl Read) -> io::Result<Method> {
    let tag = r_u8(r)?;
    let arg = r_u32(r)?;
    Method::checked(tag, arg).map_err(corrupt)
}

impl BitStack {
    /// Serializes the stack.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (words, len) = self.raw_parts();
        w_u64(w, len as u64)?;
        w_u64s(w, words)
    }

    /// Deserializes a stack written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    /// Fails on malformed input.
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let len = r_u64(r)? as usize;
        let words = r_u64s(r)?;
        BitStack::from_raw_parts(words, len).map_err(corrupt)
    }
}

impl Table {
    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w_u64s(w, self.raw_slots())
    }

    fn read_from(r: &mut impl Read) -> io::Result<Self> {
        Table::from_raw_slots(r_u64s(r)?).map_err(corrupt)
    }
}

impl MtfTable {
    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w_u64s(w, self.raw_vals())
    }

    fn read_from(r: &mut impl Read) -> io::Result<Self> {
        MtfTable::from_raw_vals(r_u64s(r)?).map_err(corrupt)
    }
}

impl PredState {
    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            PredState::Fcm { order, fr, bl } => {
                w_u8(w, 0)?;
                w_u32(w, *order)?;
                fr.write_to(w)?;
                bl.write_to(w)
            }
            PredState::Dfcm { order, fr, bl } => {
                w_u8(w, 1)?;
                w_u32(w, *order)?;
                fr.write_to(w)?;
                bl.write_to(w)
            }
            PredState::LastN { fr, bl } => {
                w_u8(w, 2)?;
                fr.write_to(w)?;
                bl.write_to(w)
            }
            PredState::LastNStride { fr, bl } => {
                w_u8(w, 3)?;
                fr.write_to(w)?;
                bl.write_to(w)
            }
        }
    }

    fn read_from(r: &mut impl Read) -> io::Result<Self> {
        Ok(match r_u8(r)? {
            0 => {
                let order = r_u32(r)?;
                PredState::Fcm { order, fr: Table::read_from(r)?, bl: Table::read_from(r)? }
            }
            1 => {
                let order = r_u32(r)?;
                PredState::Dfcm { order, fr: Table::read_from(r)?, bl: Table::read_from(r)? }
            }
            2 => PredState::LastN { fr: MtfTable::read_from(r)?, bl: MtfTable::read_from(r)? },
            3 => PredState::LastNStride { fr: MtfTable::read_from(r)?, bl: MtfTable::read_from(r)? },
            _ => return Err(corrupt("bad predictor tag")),
        })
    }
}

impl CompressedStream {
    /// Serializes the stream (including its cursor position and table
    /// state, so traversal resumes exactly where it left off).
    ///
    /// # Errors
    /// Propagates writer errors.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let p = self.raw_parts();
        w_method(w, p.method)?;
        w_u64(w, p.len as u64)?;
        w_u64(w, p.win_start as i64 as u64)?;
        w_u64s(w, &p.window)?;
        p.fr.write_to(w)?;
        p.bl.write_to(w)?;
        p.pred.write_to(w)?;
        w_u64(w, p.hits)?;
        w_u64(w, p.misses)
    }

    /// Deserializes a stream written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    /// Fails on malformed input.
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let method = r_method(r)?;
        let len = r_u64(r)? as usize;
        let win_start = r_u64(r)? as i64 as isize;
        let window = r_u64s(r)?;
        let fr = BitStack::read_from(r)?;
        let bl = BitStack::read_from(r)?;
        let pred = PredState::read_from(r)?;
        let hits = r_u64(r)?;
        let misses = r_u64(r)?;
        CompressedStream::from_raw_parts(method, len, win_start, window, fr, bl, pred, hits, misses)
            .map_err(corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamConfig;

    #[test]
    fn stream_roundtrips_through_bytes() {
        let data: Vec<u64> = (0..2000).map(|i| (i * 37) % 101).collect();
        for m in Method::default_candidates() {
            let mut s = CompressedStream::compress(&data, m, &StreamConfig::default());
            // Park the cursor somewhere nontrivial.
            s.get(1234);
            let mut bytes = Vec::new();
            s.write_to(&mut bytes).unwrap();
            let mut back = CompressedStream::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(back.method(), s.method());
            assert_eq!(back.len(), s.len());
            assert_eq!(back.window_start(), s.window_start());
            assert_eq!(back.decompress(), data, "{}", m.name());
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let data: Vec<u64> = (0..100).collect();
        let s = CompressedStream::compress(&data, Method::Fcm { order: 1 }, &StreamConfig::default());
        let mut bytes = Vec::new();
        s.write_to(&mut bytes).unwrap();
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                CompressedStream::read_from(&mut &bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn u64s_roundtrip_across_chunk_boundaries() {
        for n in [0, 1, 7, PREALLOC_CAP - 1, PREALLOC_CAP, PREALLOC_CAP + 1, 3 * PREALLOC_CAP + 5] {
            let vs: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            let mut bytes = Vec::new();
            w_u64s(&mut bytes, &vs).unwrap();
            bytes.push(0xAB);
            let mut r = bytes.as_slice();
            assert_eq!(r_u64s(&mut r).unwrap(), vs, "n = {n}");
            assert_eq!(r, [0xAB], "n = {n}: read past the vector");
            for cut in [8 + 8 * n - 1, 8 + 4 * n] {
                if n > 0 {
                    assert!(r_u64s(&mut &bytes[..cut]).is_err(), "n = {n} cut at {cut}");
                }
            }
        }
    }

    #[test]
    fn forged_u64s_length_fails_on_the_missing_bytes() {
        let mut bytes = Vec::new();
        w_u64(&mut bytes, 1 << 33).unwrap();
        bytes.extend_from_slice(&[7u8; 80]);
        let err = r_u64s(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn bitstack_roundtrip() {
        let mut s = BitStack::new();
        use crate::bitbuf::BitSink;
        for i in 0..300u64 {
            s.push_bits(i, 9);
        }
        let mut bytes = Vec::new();
        s.write_to(&mut bytes).unwrap();
        let back = BitStack::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, s);
    }
}
