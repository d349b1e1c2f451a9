//! The binary encoding of durable records.
//!
//! A deliberately small, schema-less, little-endian format in the spirit of
//! `bincode`: fixed-width integers, IEEE-754 doubles, length-prefixed
//! strings and sequences, one tag byte per enum variant.  The workspace's
//! vendored `serde` is a no-op stand-in (the build environment is offline),
//! so the record types in [`crate::records`] encode themselves explicitly
//! through [`Encoder`] / [`Decoder`] instead of deriving — which also keeps
//! the on-disk format an auditable, versioned contract rather than an
//! accident of struct layout.
//!
//! Integrity is a layer above: the WAL frames every encoded record with a
//! length prefix and a [`crc32`] checksum, and the snapshot file checksums
//! its whole payload.

use crate::{Result, StorageError};

/// Appends primitive values to a growing byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    #[inline]
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Consumes the encoder, returning the encoded bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an IEEE-754 double.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a boolean as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a sequence length prefix; the caller encodes the elements.
    #[inline]
    pub fn seq_len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Appends an unsigned LEB128 varint: seven bits per byte, low bits
    /// first, the high bit set on every byte but the last.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }
}

/// Reads primitive values back out of an encoded byte slice.  A clone is
/// an independent cursor over the same bytes.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`, positioned at the start.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not consumed yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.truncated(n));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[cold]
    fn truncated(&self, n: usize) -> StorageError {
        StorageError::Corrupt(format!(
            "record truncated: wanted {n} bytes at offset {} of {}",
            self.pos,
            self.buf.len()
        ))
    }

    /// Steps over `n` bytes.
    #[inline]
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(drop)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an IEEE-754 double.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a boolean byte, rejecting anything but 0 and 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StorageError::Corrupt(format!(
                "invalid boolean byte {other:#04x}"
            ))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<String> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StorageError::Corrupt(format!("invalid UTF-8 in string: {e}")))
    }

    /// Reads a sequence length prefix, bounds-checked against the bytes
    /// actually remaining so a corrupt length cannot trigger a huge
    /// allocation.  Sound because every encoded element, at every nesting
    /// level, takes at least one byte.
    #[inline]
    pub fn seq_len(&mut self) -> Result<usize> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(self.overlong(n));
        }
        Ok(n as usize)
    }

    /// Reads an unsigned LEB128 varint written by [`Encoder::varint`],
    /// rejecting one that does not fit a `u64`.
    #[inline]
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7F);
            if bits << shift >> shift != bits {
                break;
            }
            v |= bits << shift;
            if byte < 0x80 {
                return Ok(v);
            }
        }
        Err(StorageError::Corrupt(format!(
            "varint overflows 64 bits at offset {}",
            self.pos
        )))
    }

    #[cold]
    fn overlong(&self, n: u64) -> StorageError {
        StorageError::Corrupt(format!(
            "sequence length {n} exceeds the {} bytes remaining at offset {}",
            self.remaining(),
            self.pos
        ))
    }
}

/// The reflected CRC-32/IEEE polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 lookup tables, 8 KiB built at compile time.
/// `CRC32_TABLES[0][b]` is the CRC register after feeding byte `b` into a
/// zero register; `CRC32_TABLES[k][b]` is that register advanced by `k`
/// further zero bytes, so one lookup per table consumes eight bytes.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes`.
///
/// This one function is the checksum of every checksummed frame in the
/// workspace: the network wire frames (`crowddb_server::wire`'s
/// `write_frame` / `read_frame`), the [WAL](crate::wal) frames, the
/// [snapshot](crate::snapshot) payload and the [manifest](crate::manifest)
/// payload.  Two kernels compute the same bits, and the CPU picks which:
///
/// * on x86-64 with PCLMULQDQ and SSE4.1 (detected at run time, once per
///   process), an input of 64 bytes or more is folded with carry-less
///   multiplies, four 16-byte lanes at a time (`clmul::fold`), and only
///   the last 0–15 bytes go through the table;
/// * everywhere else, and for shorter inputs, slicing-by-8 over an 8 KiB
///   table built at compile time (`slicing_by_8`).
///
/// On a 37,843-byte buffer (the `crc32_38k` bench; release build, one core
/// of a 2-vCPU Xeon) the folding kernel takes about 2.1 µs, 0.055
/// ns/byte, where the table takes about 32 µs, 0.86 ns/byte, and the
/// bit-at-a-time loop 6.6 ns/byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF;
    let mut rest = bytes;
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        let (head, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `available()` has just confirmed that this CPU executes
        // PCLMULQDQ and SSE4.1, the features `fold` is compiled for, and
        // `head` is at least 64 bytes long and a multiple of 16, as `fold`
        // requires.
        crc = unsafe { clmul::fold(crc, head) };
        rest = tail;
    }
    !slicing_by_8(crc, rest)
}

/// Feeds `bytes` into the (pre-inverted) CRC register `crc`, eight table
/// lookups per eight input bytes.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 by carry-less multiplication: the folding method of Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009), with that paper's constants for the
/// reflected IEEE polynomial.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// The shortest input [`fold`] takes: one 64-byte block.
    pub(super) const MIN_LEN: usize = 64;

    // x^(4*128+32) mod P and x^(4*128-32) mod P, bit-reflected and shifted
    // left by one: the fold-by-4 distance of 512 bits.
    const K1K2: [u64; 2] = [0x0001_5444_2bd4, 0x0001_c6e4_1596];
    // The same for 128 bits: fold-by-1.
    const K3K4: [u64; 2] = [0x0001_7519_97d0, 0x0000_ccaa_009e];
    // x^64 mod P: folds the last 96 bits to 64.
    const K5: u64 = 0x0001_63cd_6124;
    // P' (the reflected polynomial with its x^32 term) and mu = x^64 / P,
    // both reflected: the Barrett reduction of 64 bits to 32.
    const POLY_MU: [u64; 2] = [0x0001_db71_0641, 0x0001_f701_1641];

    /// True when this CPU has both instructions [`fold`] uses.  The
    /// standard library caches the detection, so this is a load and a
    /// bit test after the first call.
    #[inline]
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load(bytes: &[u8]) -> __m128i {
        debug_assert!(bytes.len() >= 16);
        // SAFETY: `bytes` holds at least 16 bytes, and the unaligned load
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "sse2", enable = "pclmulqdq")]
    unsafe fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(x, k);
        let high = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(high, low), next)
    }

    /// Feeds `bytes` into the (pre-inverted) CRC register `crc` and
    /// returns the register, as `slicing_by_8` would.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1 ([`available`]), and
    /// `bytes.len()` must be at least [`MIN_LEN`] and a multiple of 16.
    #[target_feature(enable = "sse2", enable = "sse4.1", enable = "pclmulqdq")]
    pub(super) unsafe fn fold(crc: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= MIN_LEN && bytes.len().is_multiple_of(16));
        // SAFETY: every load below reads 16 bytes inside `bytes` (the
        // blocks are cut by `chunks_exact`), and the caller guarantees the
        // target features the intrinsics need.
        unsafe {
            let (first, rest) = bytes.split_at(64);
            let mut x1 = _mm_xor_si128(load(first), _mm_cvtsi32_si128(crc as i32));
            let mut x2 = load(&first[16..]);
            let mut x3 = load(&first[32..]);
            let mut x4 = load(&first[48..]);

            // Four lanes, 64 bytes per step.
            let k = _mm_loadu_si128(K1K2.as_ptr().cast());
            let mut blocks = rest.chunks_exact(64);
            for block in &mut blocks {
                x1 = fold_into(x1, k, load(block));
                x2 = fold_into(x2, k, load(&block[16..]));
                x3 = fold_into(x3, k, load(&block[32..]));
                x4 = fold_into(x4, k, load(&block[48..]));
            }

            // The four lanes into one, then one lane per 16 bytes left.
            let k = _mm_loadu_si128(K3K4.as_ptr().cast());
            x1 = fold_into(x1, k, x2);
            x1 = fold_into(x1, k, x3);
            x1 = fold_into(x1, k, x4);
            for block in blocks.remainder().chunks_exact(16) {
                x1 = fold_into(x1, k, load(block));
            }

            // 128 bits to 64.
            let low32 = _mm_setr_epi32(!0, 0, !0, 0);
            let x2 = _mm_clmulepi64_si128::<0x10>(x1, k);
            x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), x2);
            let k5 = _mm_set_epi64x(0, K5 as i64);
            let x2 = _mm_srli_si128::<4>(x1);
            x1 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), k5);
            x1 = _mm_xor_si128(x1, x2);

            // Barrett reduction to 32 bits.
            let poly_mu = _mm_loadu_si128(POLY_MU.as_ptr().cast());
            let mut x2 = _mm_and_si128(x1, low32);
            x2 = _mm_clmulepi64_si128::<0x10>(x2, poly_mu);
            x2 = _mm_and_si128(x2, low32);
            x2 = _mm_clmulepi64_si128::<0x00>(x2, poly_mu);
            x1 = _mm_xor_si128(x1, x2);
            _mm_extract_epi32::<1>(x1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_primitives() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(1.5);
        e.bool(true);
        e.str("crowd €£");
        for v in [0, 1, 127, 128, 300, u64::MAX] {
            e.varint(v);
        }
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 1.5);
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "crowd €£");
        for v in [0, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(d.varint().unwrap(), v);
        }
        assert!(d.is_exhausted());
    }

    #[test]
    fn truncation_and_bad_bytes_are_corruption() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(d.u32(), Err(StorageError::Corrupt(_))));
        let mut d = Decoder::new(&[9]);
        assert!(matches!(d.bool(), Err(StorageError::Corrupt(_))));
        // A varint cut short, and one past 64 bits.
        let mut d = Decoder::new(&[0x80]);
        assert!(matches!(d.varint(), Err(StorageError::Corrupt(_))));
        let mut d = Decoder::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02]);
        assert!(matches!(d.varint(), Err(StorageError::Corrupt(_))));
        // A length prefix claiming more bytes than the record holds.
        let mut e = Encoder::new();
        e.u64(1 << 40);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.seq_len(), Err(StorageError::Corrupt(_))));
        // A length prefix that fits the record but not the bytes after it.
        let mut e = Encoder::new();
        e.seq_len(10);
        e.u32(0);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.seq_len(), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    /// The bit-at-a-time CRC-32/IEEE: the reference the table-driven
    /// [`crc32`] must agree with on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in bytes {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        // Every length 0..=1024 at every start offset 0..8, so each tail
        // length and each alignment of the eight-byte chunks is covered.
        #[test]
        fn crc32_matches_reference_at_every_length_and_offset(
            buf in prop::collection::vec(0u8..=255, 1024 + 8)
        ) {
            for offset in 0..8 {
                for len in 0..=1024 {
                    let slice = &buf[offset..offset + len];
                    prop_assert_eq!(
                        crc32(slice),
                        crc32_bitwise(slice),
                        "offset {} length {}",
                        offset,
                        len
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        // `crc32` hands x86 inputs of 64 bytes or more to the folding
        // kernel, so the portable table kernel is checked on its own, at
        // every length and alignment the tests above cover.
        #[test]
        fn slicing_by_8_matches_reference_at_every_length_and_offset(
            buf in prop::collection::vec(0u8..=255, 1024 + 8)
        ) {
            for offset in 0..8 {
                for len in 0..=1024 {
                    let slice = &buf[offset..offset + len];
                    prop_assert_eq!(
                        !slicing_by_8(0xFFFF_FFFF, slice),
                        crc32_bitwise(slice),
                        "offset {} length {}",
                        offset,
                        len
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn crc32_matches_reference_on_random_buffers(
            buf in prop::collection::vec(0u8..=255, 0..=64 * 1024)
        ) {
            prop_assert_eq!(crc32(&buf), crc32_bitwise(&buf), "length {}", buf.len());
        }
    }

    #[test]
    fn crc32_detects_every_single_bit_flip() {
        let mut buf: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let clean = crc32(&buf);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                crc32(&buf),
                clean,
                "flipping bit {bit} left the checksum unchanged"
            );
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
