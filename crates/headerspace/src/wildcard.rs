use std::error::Error;
use std::fmt;

/// Errors produced by header-space operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HeaderSpaceError {
    /// Two operands had different bit widths.
    WidthMismatch {
        /// Width of the left operand.
        left: usize,
        /// Width of the right operand.
        right: usize,
    },
    /// A string representation contained a character other than `0`, `1`,
    /// `*`, or an ignored separator (`_`, space).
    InvalidCharacter {
        /// The offending character.
        ch: char,
        /// Its position in the input string.
        position: usize,
    },
    /// A prefix length exceeded the header width.
    PrefixTooLong {
        /// Requested prefix length.
        prefix_len: usize,
        /// Header width.
        width: usize,
    },
}

impl fmt::Display for HeaderSpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderSpaceError::WidthMismatch { left, right } => {
                write!(f, "header widths differ: {left} vs {right}")
            }
            HeaderSpaceError::InvalidCharacter { ch, position } => {
                write!(f, "invalid character {ch:?} at position {position}")
            }
            HeaderSpaceError::PrefixTooLong { prefix_len, width } => {
                write!(f, "prefix length {prefix_len} exceeds header width {width}")
            }
        }
    }
}

impl Error for HeaderSpaceError {}

/// A ternary bit string over `{0, 1, *}` of fixed width, representing a set
/// of concrete packet headers.
///
/// Internally stored as two bit planes packed into `u64` blocks:
/// * `mask` — bit set ⇒ the position is exact (`0` or `1`);
/// * `value` — the bit's value where exact, always `0` where wildcarded.
///
/// Bit `0` is the **most significant** (leftmost) position, matching the
/// conventional left-to-right reading of IP prefixes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Wildcard {
    width: usize,
    mask: Vec<u64>,
    value: Vec<u64>,
}

const BLOCK: usize = 64;

fn blocks_for(width: usize) -> usize {
    width.div_ceil(BLOCK)
}

#[inline]
fn bit_index(pos: usize) -> (usize, u64) {
    (pos / BLOCK, 1u64 << (BLOCK - 1 - (pos % BLOCK)))
}

impl Wildcard {
    /// The all-wildcard header of the given width: matches every packet.
    /// This is the symbolic header ATPG injects at each terminal port.
    pub fn any(width: usize) -> Self {
        Wildcard {
            width,
            mask: vec![0; blocks_for(width)],
            value: vec![0; blocks_for(width)],
        }
    }

    /// An exact header: every bit concrete, taken from the low `width` bits
    /// of `bits` (bit `width-1` of `bits` becomes position 0, i.e. the value
    /// is read as an unsigned integer of `width` bits).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` (use [`Wildcard::from_str_bits`] for wider
    /// headers) or if `bits` does not fit in `width` bits.
    pub fn exact(width: usize, bits: u64) -> Self {
        assert!(width <= 64, "exact() supports widths up to 64 bits");
        assert!(
            width == 64 || bits < (1u64 << width),
            "value {bits} does not fit in {width} bits"
        );
        let mut w = Wildcard::any(width);
        for pos in 0..width {
            let bit = (bits >> (width - 1 - pos)) & 1;
            w.set_bit(pos, Some(bit == 1));
        }
        w
    }

    /// A prefix match: the first `prefix_len` bits are exact (taken from the
    /// top of `bits` interpreted as a `width`-bit integer), the rest
    /// wildcarded. This models IPv4-style `addr/len` rules.
    ///
    /// # Errors
    ///
    /// Returns [`HeaderSpaceError::PrefixTooLong`] if `prefix_len > width`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn prefix(width: usize, bits: u64, prefix_len: usize) -> Result<Self, HeaderSpaceError> {
        assert!(width <= 64, "prefix() supports widths up to 64 bits");
        if prefix_len > width {
            return Err(HeaderSpaceError::PrefixTooLong { prefix_len, width });
        }
        let mut w = Wildcard::any(width);
        for pos in 0..prefix_len {
            let bit = (bits >> (width - 1 - pos)) & 1;
            w.set_bit(pos, Some(bit == 1));
        }
        Ok(w)
    }

    /// Parses a ternary string of `0`, `1`, `*`; `_` and spaces are ignored
    /// separators.
    ///
    /// # Errors
    ///
    /// Returns [`HeaderSpaceError::InvalidCharacter`] on anything else.
    pub fn from_str_bits(s: &str) -> Result<Self, HeaderSpaceError> {
        let mut bits = Vec::new();
        for (i, ch) in s.chars().enumerate() {
            match ch {
                '0' => bits.push(Some(false)),
                '1' => bits.push(Some(true)),
                '*' => bits.push(None),
                '_' | ' ' => {}
                other => {
                    return Err(HeaderSpaceError::InvalidCharacter {
                        ch: other,
                        position: i,
                    })
                }
            }
        }
        let mut w = Wildcard::any(bits.len());
        for (pos, b) in bits.into_iter().enumerate() {
            w.set_bit(pos, b);
        }
        Ok(w)
    }

    /// Header width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reads bit `pos`: `Some(true)`/`Some(false)` if exact, `None` if `*`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= width`.
    pub fn bit(&self, pos: usize) -> Option<bool> {
        assert!(pos < self.width, "bit {pos} out of range");
        let (blk, m) = bit_index(pos);
        if self.mask[blk] & m != 0 {
            Some(self.value[blk] & m != 0)
        } else {
            None
        }
    }

    /// Sets bit `pos` to an exact value or wildcard.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= width`.
    pub fn set_bit(&mut self, pos: usize, bit: Option<bool>) {
        assert!(pos < self.width, "bit {pos} out of range");
        let (blk, m) = bit_index(pos);
        match bit {
            Some(v) => {
                self.mask[blk] |= m;
                if v {
                    self.value[blk] |= m;
                } else {
                    self.value[blk] &= !m;
                }
            }
            None => {
                self.mask[blk] &= !m;
                self.value[blk] &= !m;
            }
        }
    }

    /// Number of exact (non-wildcard) bits.
    pub fn exact_bits(&self) -> usize {
        self.mask.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Intersection of two header regions; `None` when they are disjoint
    /// (some bit exact in both with different values).
    ///
    /// # Panics
    ///
    /// Panics if widths differ — rules and headers in one network always
    /// share the header layout; a mismatch is a programming error.
    pub fn intersect(&self, other: &Wildcard) -> Option<Wildcard> {
        assert_eq!(
            self.width, other.width,
            "intersect: widths {} vs {}",
            self.width, other.width
        );
        let mut out = Wildcard::any(self.width);
        for blk in 0..self.mask.len() {
            let both = self.mask[blk] & other.mask[blk];
            if (self.value[blk] ^ other.value[blk]) & both != 0 {
                return None; // conflicting exact bits
            }
            out.mask[blk] = self.mask[blk] | other.mask[blk];
            out.value[blk] =
                (self.value[blk] & self.mask[blk]) | (other.value[blk] & other.mask[blk]);
        }
        Some(out)
    }

    /// Tests whether `self` ⊆ `other` as sets of concrete headers.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn is_subset_of(&self, other: &Wildcard) -> bool {
        assert_eq!(
            self.width, other.width,
            "is_subset_of: widths {} vs {}",
            self.width, other.width
        );
        for blk in 0..self.mask.len() {
            // Every bit exact in `other` must be exact in `self` with the
            // same value.
            if other.mask[blk] & !self.mask[blk] != 0 {
                return false;
            }
            if (self.value[blk] ^ other.value[blk]) & other.mask[blk] != 0 {
                return false;
            }
        }
        true
    }

    /// Tests whether the regions overlap (share at least one header).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn overlaps(&self, other: &Wildcard) -> bool {
        assert_eq!(
            self.width, other.width,
            "overlaps: widths {} vs {}",
            self.width, other.width
        );
        // Disjoint iff some bit is exact in both with different values;
        // value bits are zero wherever the mask is, so one masked XOR per
        // block decides it without building the intersection.
        self.mask
            .iter()
            .zip(&self.value)
            .zip(other.mask.iter().zip(&other.value))
            .all(|((ma, va), (mb, vb))| (va ^ vb) & ma & mb == 0)
    }

    /// Orders two regions as their ternary strings compare: position by
    /// position from bit 0, with `*` < `0` < `1` — the order of the
    /// [`Display`](fmt::Display) strings, without formatting them.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn cmp_ternary(&self, other: &Wildcard) -> std::cmp::Ordering {
        assert_eq!(
            self.width, other.width,
            "cmp_ternary: widths {} vs {}",
            self.width, other.width
        );
        for blk in 0..self.mask.len() {
            let diff = (self.mask[blk] ^ other.mask[blk]) | (self.value[blk] ^ other.value[blk]);
            if diff != 0 {
                // The first differing position; rank `*` = 0, `0` = 1,
                // `1` = 2 as mask bit + value bit.
                let bit = 1u64 << (BLOCK - 1 - diff.leading_zeros() as usize);
                let rank = |w: &Wildcard| {
                    u8::from(w.mask[blk] & bit != 0) + u8::from(w.value[blk] & bit != 0)
                };
                return rank(self).cmp(&rank(other));
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Set difference `self \ other` as a union of **pairwise-disjoint**
    /// wildcards (the standard header-space subtraction): one piece per
    /// position where `other` pins a bit that `self` leaves free, each
    /// piece agreeing with `other` on the earlier free positions and
    /// differing at its own. An empty result means `self ⊆ other`; a
    /// disjoint `other` returns `self` unchanged as the single piece.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn difference(&self, other: &Wildcard) -> Vec<Wildcard> {
        assert_eq!(
            self.width, other.width,
            "difference: widths {} vs {}",
            self.width, other.width
        );
        if !self.overlaps(other) {
            return vec![self.clone()];
        }
        let mut out = Vec::new();
        // `base` accumulates agreement with `other` on the free positions
        // already split off, so the emitted pieces are pairwise disjoint.
        let mut base = self.clone();
        for pos in 0..self.width {
            if self.bit(pos).is_none() {
                if let Some(v) = other.bit(pos) {
                    let mut piece = base.clone();
                    piece.set_bit(pos, Some(!v));
                    out.push(piece);
                    base.set_bit(pos, Some(v));
                }
            }
        }
        out
    }

    /// Subtracts every region in `others` from `self`, returning the
    /// residual as a union of pairwise-disjoint wildcards (empty ⇔ `self`
    /// is fully covered by the union of `others`). This is the exact
    /// emptiness test the single-negative containment heuristic in the
    /// ATPG tracer approximates.
    ///
    /// # Panics
    ///
    /// Panics if any width differs.
    pub fn subtract_all(&self, others: &[Wildcard]) -> Vec<Wildcard> {
        let mut pieces = vec![self.clone()];
        for o in others {
            if pieces.is_empty() {
                break;
            }
            pieces = pieces.iter().flat_map(|p| p.difference(o)).collect();
        }
        pieces
    }

    /// Applies a rewrite: wherever `rewrite` has an exact bit, that bit is
    /// forced in the output; wildcard positions in `rewrite` pass `self`'s
    /// bit through unchanged. This models OpenFlow set-field actions.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn rewrite(&self, rewrite: &Wildcard) -> Wildcard {
        assert_eq!(
            self.width, rewrite.width,
            "rewrite: widths {} vs {}",
            self.width, rewrite.width
        );
        let mut out = self.clone();
        for blk in 0..self.mask.len() {
            out.mask[blk] |= rewrite.mask[blk];
            out.value[blk] =
                (out.value[blk] & !rewrite.mask[blk]) | (rewrite.value[blk] & rewrite.mask[blk]);
        }
        out
    }

    /// Tests whether a concrete header (low `width` bits of `bits`) is in
    /// this region. Bits of `bits` above `width` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn matches_concrete(&self, bits: u64) -> bool {
        assert!(
            self.width <= 64,
            "matches_concrete supports widths up to 64"
        );
        if self.width == 0 {
            return true;
        }
        // Shift the header's low `width` bits into block layout (position
        // 0 at the top); the shift drops everything above `width`.
        let header = bits << (BLOCK - self.width);
        (header ^ self.value[0]) & self.mask[0] == 0
    }

    /// Number of concrete headers in this region (`2^wildcard_bits`), as
    /// `f64` to avoid overflow on wide headers.
    pub fn cardinality(&self) -> f64 {
        2f64.powi((self.width - self.exact_bits()) as i32)
    }

    /// A representative concrete header of the region: every wildcard bit
    /// resolved to `0`. Useful for turning a symbolic counterexample into
    /// a concrete injectable packet.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn representative(&self) -> u64 {
        assert!(self.width <= 64, "representative supports widths up to 64");
        if self.width == 0 {
            return 0;
        }
        self.value[0] >> (BLOCK - self.width)
    }

    /// Returns `true` when this region is the full space (all wildcards).
    pub fn is_any(&self) -> bool {
        self.mask.iter().all(|&b| b == 0)
    }

    /// The raw bit planes `(mask, value)` — for wire serialization.
    /// `mask` bit set ⇒ position exact; `value` holds the bit where exact.
    pub fn planes(&self) -> (&[u64], &[u64]) {
        (&self.mask, &self.value)
    }

    /// Reconstructs a wildcard from raw planes (inverse of
    /// [`Wildcard::planes`]). Bits beyond `width` and value bits on
    /// wildcarded positions are cleared, so any plane content yields a
    /// well-formed region.
    ///
    /// # Errors
    ///
    /// Returns [`HeaderSpaceError::WidthMismatch`] if the plane lengths do
    /// not match each other or the width's block count.
    pub fn from_planes(
        width: usize,
        mask: &[u64],
        value: &[u64],
    ) -> Result<Self, HeaderSpaceError> {
        let blocks = blocks_for(width);
        if mask.len() != blocks || value.len() != blocks {
            return Err(HeaderSpaceError::WidthMismatch {
                left: mask.len().max(value.len()),
                right: blocks,
            });
        }
        let mut w = Wildcard {
            width,
            mask: mask.to_vec(),
            value: value.to_vec(),
        };
        // Normalize: clear tail bits beyond `width` and value bits where
        // the mask is 0, so equality and hashing behave.
        if !width.is_multiple_of(BLOCK) && blocks > 0 {
            let used = width % BLOCK;
            let keep = !0u64 << (BLOCK - used);
            w.mask[blocks - 1] &= keep;
            w.value[blocks - 1] &= keep;
        }
        for (v, m) in w.value.iter_mut().zip(&w.mask) {
            *v &= m;
        }
        Ok(w)
    }
}

/// Tests whether the union of `cover` contains every header of `target`
/// (`target ⊆ ∪ cover`): the residual of subtracting each cover region
/// from `target` must be empty. This is the coverage oracle behind
/// shadowed/dead-rule detection: a rule is dead iff the higher-priority
/// matches jointly cover it.
///
/// # Panics
///
/// Panics if any width differs from `target`'s.
pub fn covers(cover: &[Wildcard], target: &Wildcard) -> bool {
    target.subtract_all(cover).is_empty()
}

fn fmt_ternary(w: &Wildcard, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    for pos in 0..w.width {
        let c = match w.bit(pos) {
            Some(true) => '1',
            Some(false) => '0',
            None => '*',
        };
        write!(f, "{c}")?;
        if pos % 8 == 7 && pos + 1 < w.width {
            write!(f, "_")?;
        }
    }
    if w.width == 0 {
        write!(f, "<empty>")?;
    }
    Ok(())
}

impl fmt::Debug for Wildcard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ternary(self, f)
    }
}

impl fmt::Display for Wildcard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ternary(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_matches_everything() {
        let w = Wildcard::any(16);
        assert!(w.is_any());
        assert!(w.matches_concrete(0));
        assert!(w.matches_concrete(0xFFFF));
        assert_eq!(w.exact_bits(), 0);
        assert_eq!(w.cardinality(), 65536.0);
    }

    #[test]
    fn exact_matches_only_itself() {
        let w = Wildcard::exact(8, 0b1010_0001);
        assert!(w.matches_concrete(0b1010_0001));
        assert!(!w.matches_concrete(0b1010_0000));
        assert_eq!(w.exact_bits(), 8);
        assert_eq!(w.cardinality(), 1.0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn exact_rejects_oversized_value() {
        Wildcard::exact(4, 16);
    }

    #[test]
    fn prefix_fixes_leading_bits() {
        let w = Wildcard::prefix(8, 0b1100_0000, 2).unwrap();
        assert!(w.matches_concrete(0b1101_0101));
        assert!(!w.matches_concrete(0b1001_0101));
        assert_eq!(w.exact_bits(), 2);
        assert!(matches!(
            Wildcard::prefix(8, 0, 9),
            Err(HeaderSpaceError::PrefixTooLong { .. })
        ));
    }

    #[test]
    fn parse_and_display_round_trip() {
        let s = "10**0101_1*******";
        let w = Wildcard::from_str_bits(s).unwrap();
        assert_eq!(w.width(), 16);
        assert_eq!(format!("{w}"), "10**0101_1*******");
        assert!(matches!(
            Wildcard::from_str_bits("10x"),
            Err(HeaderSpaceError::InvalidCharacter {
                ch: 'x',
                position: 2
            })
        ));
    }

    #[test]
    fn intersect_disjoint_is_none() {
        let a = Wildcard::from_str_bits("1***").unwrap();
        let b = Wildcard::from_str_bits("0***").unwrap();
        assert!(a.intersect(&b).is_none());
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn intersect_combines_constraints() {
        let a = Wildcard::from_str_bits("1**0").unwrap();
        let b = Wildcard::from_str_bits("*1**").unwrap();
        let c = a.intersect(&b).unwrap();
        assert_eq!(format!("{c}"), "11*0");
    }

    #[test]
    fn intersect_is_commutative_and_idempotent() {
        let a = Wildcard::from_str_bits("10**").unwrap();
        let b = Wildcard::from_str_bits("1*1*").unwrap();
        assert_eq!(a.intersect(&b), b.intersect(&a));
        assert_eq!(a.intersect(&a), Some(a.clone()));
    }

    #[test]
    fn subset_relations() {
        let narrow = Wildcard::from_str_bits("101*").unwrap();
        let wide = Wildcard::from_str_bits("10**").unwrap();
        assert!(narrow.is_subset_of(&wide));
        assert!(!wide.is_subset_of(&narrow));
        assert!(narrow.is_subset_of(&narrow));
        assert!(wide.is_subset_of(&Wildcard::any(4)));
    }

    #[test]
    fn rewrite_forces_bits() {
        let h = Wildcard::from_str_bits("10**").unwrap();
        let rw = Wildcard::from_str_bits("**01").unwrap();
        let out = h.rewrite(&rw);
        assert_eq!(format!("{out}"), "1001");
        // Wildcard rewrite is identity.
        assert_eq!(h.rewrite(&Wildcard::any(4)), h);
    }

    #[test]
    fn rewrite_then_match() {
        // A rule that rewrites the first 2 bits to 01.
        let rw = Wildcard::from_str_bits("01**").unwrap();
        let pkt = Wildcard::exact(4, 0b1111);
        let out = pkt.rewrite(&rw);
        assert!(out.matches_concrete(0b0111));
        assert!(!out.matches_concrete(0b1111));
    }

    #[test]
    fn wide_headers_cross_block_boundary() {
        // 100-bit header exercises the multi-u64 path.
        let mut w = Wildcard::any(100);
        w.set_bit(0, Some(true));
        w.set_bit(63, Some(false));
        w.set_bit(64, Some(true));
        w.set_bit(99, Some(true));
        assert_eq!(w.bit(0), Some(true));
        assert_eq!(w.bit(63), Some(false));
        assert_eq!(w.bit(64), Some(true));
        assert_eq!(w.bit(99), Some(true));
        assert_eq!(w.bit(50), None);
        assert_eq!(w.exact_bits(), 4);

        let other = {
            let mut o = Wildcard::any(100);
            o.set_bit(64, Some(false));
            o
        };
        assert!(w.intersect(&other).is_none());
    }

    #[test]
    fn set_bit_back_to_wildcard() {
        let mut w = Wildcard::exact(4, 0b1111);
        w.set_bit(2, None);
        assert_eq!(w.bit(2), None);
        assert_eq!(w.exact_bits(), 3);
        assert!(w.matches_concrete(0b1101));
        assert!(w.matches_concrete(0b1111));
    }

    #[test]
    #[should_panic(expected = "intersect: widths")]
    fn width_mismatch_panics() {
        let a = Wildcard::any(4);
        let b = Wildcard::any(8);
        a.intersect(&b);
    }

    /// Brute-force set semantics of a small-width wildcard.
    fn members(w: &Wildcard) -> Vec<u64> {
        (0..(1u64 << w.width()))
            .filter(|&h| w.matches_concrete(h))
            .collect()
    }

    #[test]
    fn difference_disjoint_returns_self() {
        let a = Wildcard::from_str_bits("1***").unwrap();
        let b = Wildcard::from_str_bits("0***").unwrap();
        assert_eq!(a.difference(&b), vec![a.clone()]);
    }

    #[test]
    fn difference_of_subset_is_empty() {
        let narrow = Wildcard::from_str_bits("101*").unwrap();
        let wide = Wildcard::from_str_bits("10**").unwrap();
        assert!(narrow.difference(&wide).is_empty());
        assert!(narrow.difference(&narrow).is_empty());
    }

    #[test]
    fn difference_pieces_are_disjoint_and_exact() {
        for (a, b) in [
            ("****", "10*1"),
            ("1***", "1*00"),
            ("**0*", "1***"),
            ("*0*1", "00**"),
        ] {
            let a = Wildcard::from_str_bits(a).unwrap();
            let b = Wildcard::from_str_bits(b).unwrap();
            let pieces = a.difference(&b);
            // Pairwise disjoint.
            for (i, p) in pieces.iter().enumerate() {
                for q in &pieces[i + 1..] {
                    assert!(!p.overlaps(q), "{p} overlaps {q}");
                }
            }
            // Union is exactly a \ b.
            let mut got: Vec<u64> = pieces.iter().flat_map(members).collect();
            got.sort_unstable();
            let want: Vec<u64> = members(&a)
                .into_iter()
                .filter(|h| !b.matches_concrete(*h))
                .collect();
            assert_eq!(got, want, "{a} \\ {b}");
        }
    }

    #[test]
    fn subtract_all_and_covers_agree_with_brute_force() {
        let target = Wildcard::from_str_bits("1***").unwrap();
        let halves = [
            Wildcard::from_str_bits("10**").unwrap(),
            Wildcard::from_str_bits("11**").unwrap(),
        ];
        assert!(target.subtract_all(&halves).is_empty());
        assert!(covers(&halves, &target));
        // Remove one quarter: residual is exactly that quarter.
        let partial = [
            Wildcard::from_str_bits("10**").unwrap(),
            Wildcard::from_str_bits("110*").unwrap(),
        ];
        assert!(!covers(&partial, &target));
        let residual = target.subtract_all(&partial);
        let mut got: Vec<u64> = residual.iter().flat_map(members).collect();
        got.sort_unstable();
        assert_eq!(got, members(&Wildcard::from_str_bits("111*").unwrap()));
        // Covering nothing covers only the empty set.
        assert!(!covers(&[], &target));
    }

    #[test]
    fn representative_is_a_member() {
        for s in ["10**0101", "********", "11111111", "1*0*1*0*"] {
            let w = Wildcard::from_str_bits(s).unwrap();
            assert!(w.matches_concrete(w.representative()), "{s}");
        }
        assert_eq!(
            Wildcard::from_str_bits("1*1*").unwrap().representative(),
            0b1010
        );
    }

    #[test]
    fn display_of_zero_width() {
        assert_eq!(format!("{}", Wildcard::any(0)), "<empty>");
    }

    #[test]
    fn planes_round_trip() {
        for s in ["10**0101", "********", "11111111", "1*0*1*0*"] {
            let w = Wildcard::from_str_bits(s).unwrap();
            let (m, v) = w.planes();
            let back = Wildcard::from_planes(8, m, v).unwrap();
            assert_eq!(w, back, "{s}");
        }
        // Multi-block widths too.
        let mut wide = Wildcard::any(100);
        wide.set_bit(0, Some(true));
        wide.set_bit(99, Some(false));
        let (m, v) = wide.planes();
        assert_eq!(Wildcard::from_planes(100, m, v).unwrap(), wide);
    }

    #[test]
    fn from_planes_normalizes_garbage() {
        // Value bits on wildcarded positions and tail bits beyond width
        // must be scrubbed.
        let w = Wildcard::from_planes(4, &[0xF000_0000_0000_0000], &[!0u64]).unwrap();
        assert_eq!(format!("{w}"), "1111");
        let w2 = Wildcard::from_planes(4, &[0], &[!0u64]).unwrap();
        assert!(w2.is_any());
        assert_eq!(w2, Wildcard::any(4));
    }

    #[test]
    fn from_planes_validates_lengths() {
        assert!(matches!(
            Wildcard::from_planes(100, &[0], &[0]),
            Err(HeaderSpaceError::WidthMismatch { .. })
        ));
    }
}
