//! Delta-encoded, bitpacked CSR rows — the on-disk encoding of the sparse
//! artifacts.
//!
//! In memory every index is plain CSR (see [`crate::csr`]); the store
//! codecs in [`crate::store`] pack at encode time and unpack once at
//! decode time, so nothing on a query path ever touches packed bits.
//!
//! [`PackedRows`] stores the same logical content as a plain CSR pair
//! (`offsets` + flat `u32` values) at a fraction of the bytes: each row's
//! values are delta-encoded against their predecessor (the delta chain
//! restarts at every row), zigzag-mapped so descending rows cost no more
//! than ascending ones, and bitpacked in blocks of [`BLOCK`] elements with
//! one bit width per block. Posting lists are ascending entity ids with
//! small gaps, so most blocks need only a handful of bits per element.
//!
//! Layout invariants (upheld by [`PackedRows::from_rows`], re-validated by
//! [`PackedRows::from_raw`] when a persistent-store codec rebuilds rows
//! from disk):
//!
//! * `offsets` has `rows + 1` entries, starts at 0, is non-decreasing and
//!   ends at the element count.
//! * `widths` has one entry per block of [`BLOCK`] elements, each ≤ 33
//!   (a zigzag-mapped `u32` delta needs at most 33 bits).
//! * `block_bits[b]` is the bit offset of block `b`'s first element;
//!   every block reserves a uniform `BLOCK * widths[b]` bits (the final,
//!   possibly partial, block included) so element addressing is pure
//!   arithmetic.
//! * `bits` holds exactly `ceil(total_bits / 64) + 2` words — the trailing
//!   sentinel words let the unpacker read two words unconditionally, which
//!   keeps the per-element extraction branchless. Two words (not one)
//!   because a zero-width tail block addresses `pos == total_bits`, whose
//!   word index may already be one past the payload.

/// Elements per bitpacking block; one bit width is chosen per block.
pub const BLOCK: usize = 128;

/// The widest zigzag-mapped `u32`-to-`u32` delta: 33 bits.
const MAX_WIDTH: u8 = 33;

/// Bitpacked CSR rows (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRows {
    /// Row boundaries in element space: row `i` spans elements
    /// `offsets[i]..offsets[i + 1]`.
    offsets: Vec<u32>,
    /// Bit width per block of [`BLOCK`] elements.
    widths: Vec<u8>,
    /// Bit offset of each block's first element plus a final total-bits
    /// entry (`widths.len() + 1` entries, uniform `BLOCK * width` stride).
    block_bits: Vec<u64>,
    /// The packed zigzag deltas plus two sentinel pad words.
    bits: Vec<u64>,
}

#[inline]
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

#[inline]
fn unzigzag(zz: u64) -> i64 {
    ((zz >> 1) as i64) ^ -((zz & 1) as i64)
}

impl PackedRows {
    /// Packs plain CSR parts (`offsets` boundaries over flat `values`).
    /// Values may be arbitrary `u32`s — ascending rows pack smallest, but
    /// correctness does not depend on order.
    pub fn from_rows(offsets: &[u32], values: &[u32]) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets.first().copied(), Some(0));
        debug_assert_eq!(offsets.last().copied(), Some(values.len() as u32));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));

        // Zigzag deltas with a restart at every row boundary.
        let mut zz = Vec::with_capacity(values.len());
        for w in offsets.windows(2) {
            let mut prev = 0i64;
            for &v in &values[w[0] as usize..w[1] as usize] {
                zz.push(zigzag(v as i64 - prev));
                prev = v as i64;
            }
        }

        // One width per block: enough bits for the block's widest delta.
        let mut widths = Vec::with_capacity(zz.len().div_ceil(BLOCK));
        let mut block_bits = Vec::with_capacity(widths.capacity() + 1);
        block_bits.push(0u64);
        for block in zz.chunks(BLOCK) {
            let max = block.iter().copied().max().unwrap_or(0);
            let w = (64 - max.leading_zeros()) as u8;
            debug_assert!(w <= MAX_WIDTH);
            widths.push(w);
            block_bits.push(block_bits.last().unwrap() + (BLOCK as u64) * w as u64);
        }

        let total_bits = *block_bits.last().unwrap();
        let mut bits = vec![0u64; (total_bits.div_ceil(64) + 2) as usize];
        for (j, &v) in zz.iter().enumerate() {
            let w = widths[j / BLOCK] as u64;
            if w == 0 {
                continue;
            }
            let pos = block_bits[j / BLOCK] + ((j % BLOCK) as u64) * w;
            let word = (pos >> 6) as usize;
            let sh = (pos & 63) as u32;
            bits[word] |= v << sh;
            if sh as u64 + w > 64 {
                bits[word + 1] |= v >> (64 - sh);
            }
        }

        Self {
            offsets: offsets.to_vec(),
            widths,
            block_bits,
            bits,
        }
    }

    /// Rebuilds packed rows from their serialized arrays, re-checking every
    /// structural invariant the unpacker's unchecked indexing relies on.
    /// Row *values* are not ranged here — see [`PackedRows::validate`].
    pub fn from_raw(
        offsets: Vec<u32>,
        widths: Vec<u8>,
        block_bits: Vec<u64>,
        bits: Vec<u64>,
    ) -> Result<Self, String> {
        if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("packed rows: bad offsets".into());
        }
        let elems = *offsets.last().unwrap() as usize;
        if widths.len() != elems.div_ceil(BLOCK) {
            return Err("packed rows: width count mismatch".into());
        }
        if block_bits.len() != widths.len() + 1 || block_bits[0] != 0 {
            return Err("packed rows: bad block offsets".into());
        }
        for (b, &w) in widths.iter().enumerate() {
            if w > MAX_WIDTH {
                return Err(format!("packed rows: width {w} > {MAX_WIDTH}"));
            }
            if block_bits[b + 1] != block_bits[b] + (BLOCK as u64) * w as u64 {
                return Err("packed rows: block offset stride mismatch".into());
            }
        }
        let total_bits = *block_bits.last().unwrap();
        if bits.len() as u64 != total_bits.div_ceil(64) + 2 {
            return Err("packed rows: bit buffer length mismatch".into());
        }
        Ok(Self {
            offsets,
            widths,
            block_bits,
            bits,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total packed element count across all rows.
    pub fn elems(&self) -> usize {
        *self.offsets.last().unwrap() as usize
    }

    /// Exact payload in bytes of the packed arrays — what the store
    /// serializes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.widths.len() + (self.block_bits.len() + self.bits.len()) * 8
    }

    /// Bytes the same content occupies as plain CSR (`u32` offsets +
    /// `u32` values) — what the decoded rows occupy in memory, and
    /// the denominator of the ratio `er store inspect` reports.
    pub fn plain_bytes(&self) -> usize {
        (self.offsets.len() + self.elems()) * 4
    }

    /// The serialized arrays `(offsets, widths, block_bits, bits)`.
    pub fn raw_parts(&self) -> (&[u32], &[u8], &[u64], &[u64]) {
        (&self.offsets, &self.widths, &self.block_bits, &self.bits)
    }

    /// Unpacks row `i` into `buf` (cleared first) and returns it as a
    /// slice. Branchless per element: a uniform block stride turns
    /// addressing into arithmetic, and the sentinel pad words make the
    /// two-word extraction unconditional.
    #[inline]
    fn unpack_row_into<'a>(&self, i: usize, buf: &'a mut Vec<u32>) -> &'a [u32] {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        buf.clear();
        buf.reserve(end - start);
        let mut prev = 0i64;
        // SAFETY: `j < elems` bounds `widths`/`block_bits` indexing by
        // construction (`from_rows`) or validation (`from_raw`), which also
        // guarantee `word + 1 < bits.len()` via the two sentinel pad words
        // (`pos <= total_bits` even for zero-width tail blocks), and `buf`
        // was reserved for `end - start` writes.
        unsafe {
            let dst = buf.as_mut_ptr();
            for (k, j) in (start..end).enumerate() {
                let b = j / BLOCK;
                let w = *self.widths.get_unchecked(b) as u64;
                let pos = *self.block_bits.get_unchecked(b) + ((j % BLOCK) as u64) * w;
                let word = (pos >> 6) as usize;
                let sh = (pos & 63) as u32;
                let lo = *self.bits.get_unchecked(word) >> sh;
                let hi = (*self.bits.get_unchecked(word + 1) << 1) << (63 - sh);
                let zz = (lo | hi) & ((1u64 << w) - 1);
                prev = prev.wrapping_add(unzigzag(zz));
                dst.add(k).write(prev as u32);
            }
            buf.set_len(end - start);
        }
        buf
    }

    /// Decodes every row back to plain CSR `(offsets, values)` — the
    /// inverse of [`PackedRows::from_rows`].
    pub fn decode_all(&self) -> (Vec<u32>, Vec<u32>) {
        let mut values = Vec::with_capacity(self.elems());
        let mut buf = Vec::new();
        for i in 0..self.len() {
            values.extend_from_slice(self.unpack_row_into(i, &mut buf));
        }
        (self.offsets.clone(), values)
    }

    /// Range-checks the decoded values: every element must be `< bound`
    /// (and each row strictly ascending when `ascending` is set, the
    /// posting-list invariant). Store codecs call this once at decode time
    /// so the query paths can index count buffers unchecked.
    pub fn validate(&self, bound: u32, ascending: bool) -> Result<(), String> {
        let mut buf = Vec::new();
        for i in 0..self.len() {
            let row = self.unpack_row_into(i, &mut buf);
            for (k, &v) in row.iter().enumerate() {
                if v >= bound {
                    return Err(format!("packed rows: row {i} value {v} out of range"));
                }
                if ascending && k > 0 && row[k - 1] >= v {
                    return Err(format!("packed rows: row {i} not strictly ascending"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rows: &[Vec<u32>]) {
        let mut offsets = vec![0u32];
        let mut values = Vec::new();
        for r in rows {
            values.extend_from_slice(r);
            offsets.push(values.len() as u32);
        }
        let packed = PackedRows::from_rows(&offsets, &values);
        assert_eq!(packed.len(), rows.len());
        assert_eq!(packed.elems(), values.len());
        assert_eq!(packed.decode_all(), (offsets, values));

        // Serialized form survives the structural re-validation.
        let (o, w, bb, bits) = packed.raw_parts();
        let rebuilt =
            PackedRows::from_raw(o.to_vec(), w.to_vec(), bb.to_vec(), bits.to_vec()).unwrap();
        assert_eq!(rebuilt.decode_all(), packed.decode_all());
    }

    #[test]
    fn round_trips_representative_shapes() {
        roundtrip(&[]);
        roundtrip(&[vec![]]);
        roundtrip(&[vec![7]]);
        roundtrip(&[vec![0, 1, 2, 3], vec![], vec![u32::MAX], vec![5, 5, 5]]);
        roundtrip(&[vec![u32::MAX, 0, u32::MAX, 1]]); // worst-case zigzag swings
        roundtrip(&[(0..1000).step_by(3).collect(), (500..600).collect()]);
    }

    #[test]
    fn block_boundaries_are_exercised() {
        // One row spanning several blocks with a width change per block.
        let row: Vec<u32> = (0..(3 * BLOCK as u32 + 17))
            .map(|i| i * (1 + (i / BLOCK as u32) * 1000))
            .collect();
        roundtrip(&[row]);
    }

    #[test]
    fn ascending_lists_pack_small() {
        let row: Vec<u32> = (0..10_000).map(|i| i * 2).collect();
        let packed = PackedRows::from_rows(&[0, row.len() as u32], &row);
        assert!(
            packed.heap_bytes() * 2 < packed.plain_bytes(),
            "{} vs {}",
            packed.heap_bytes(),
            packed.plain_bytes()
        );
    }

    #[test]
    fn validate_catches_range_and_order() {
        let packed = PackedRows::from_rows(&[0, 3], &[1, 5, 5]);
        assert!(packed.validate(6, false).is_ok());
        assert!(packed.validate(5, false).is_err(), "bound");
        assert!(packed.validate(6, true).is_err(), "non-ascending");
        let asc = PackedRows::from_rows(&[0, 3], &[1, 5, 9]);
        assert!(asc.validate(10, true).is_ok());
    }

    #[test]
    fn from_raw_rejects_malformed_structure() {
        let packed = PackedRows::from_rows(&[0, 2, 5], &[3, 1, 4, 1, 5]);
        let (o, w, bb, bits) = packed.raw_parts();
        let (o, w, bb, bits) = (o.to_vec(), w.to_vec(), bb.to_vec(), bits.to_vec());
        assert!(PackedRows::from_raw(vec![1, 2], w.clone(), bb.clone(), bits.clone()).is_err());
        assert!(PackedRows::from_raw(o.clone(), vec![], bb.clone(), bits.clone()).is_err());
        assert!(PackedRows::from_raw(o.clone(), vec![64], bb.clone(), bits.clone()).is_err());
        assert!(PackedRows::from_raw(o.clone(), w.clone(), vec![0], bits.clone()).is_err());
        assert!(PackedRows::from_raw(o.clone(), w.clone(), bb.clone(), vec![]).is_err());
        assert!(PackedRows::from_raw(o, w, bb, bits).is_ok());
    }
}
