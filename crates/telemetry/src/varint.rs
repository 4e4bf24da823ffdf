//! LEB128 varints and zigzag deltas: the byte encoding both observer
//! stores keep their records in, the [`SeriesRing`](crate::SeriesRing)s
//! here and `ksa-desim`'s trace rings.

/// Longest encoded `u64`.
pub const MAX_BYTES: usize = 10;

/// Appends `v` to `buf` as a LEB128 varint.
#[inline]
pub fn put(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads one LEB128 varint at `*pos`, advancing past it.
#[inline]
pub fn get(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// A wrapping delta as an unsigned word: small steps either way stay
/// small.
#[inline]
pub fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_and_deltas_round_trip() {
        let words = [0, 1, 0x7f, 0x80, 300, 1 << 63, u64::MAX - 1, u64::MAX];
        let mut buf = Vec::new();
        for &w in &words {
            put(&mut buf, w);
            put(&mut buf, zigzag(w));
        }
        let mut pos = 0;
        for &w in &words {
            assert_eq!(get(&buf, &mut pos), w);
            assert_eq!(unzigzag(get(&buf, &mut pos)), w);
        }
        assert_eq!(pos, buf.len());
        // A small step back stays one byte.
        assert_eq!(zigzag(3u64.wrapping_sub(5)), 3);
        let mut one = Vec::new();
        put(&mut one, u64::MAX);
        assert_eq!(one.len(), MAX_BYTES);
    }
}
