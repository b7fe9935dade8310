//! Property tests: the ternary algebra must satisfy the laws of set algebra
//! on the regions it denotes. We check against a brute-force concrete-header
//! enumeration for 8-bit headers, which is exhaustive (256 headers).

use foces_headerspace::{covers, Wildcard};
use proptest::prelude::*;

const WIDTH: usize = 8;

fn wildcard_strategy() -> impl Strategy<Value = Wildcard> {
    proptest::collection::vec(0u8..3, WIDTH).prop_map(|tri| {
        let mut w = Wildcard::any(WIDTH);
        for (pos, t) in tri.iter().enumerate() {
            w.set_bit(
                pos,
                match t {
                    0 => Some(false),
                    1 => Some(true),
                    _ => None,
                },
            );
        }
        w
    })
}

/// The set of concrete headers a wildcard denotes.
fn denote(w: &Wildcard) -> Vec<u64> {
    (0..(1u64 << WIDTH))
        .filter(|&h| w.matches_concrete(h))
        .collect()
}

proptest! {
    /// intersect denotes set intersection.
    #[test]
    fn intersection_is_set_intersection(a in wildcard_strategy(), b in wildcard_strategy()) {
        let lhs: Vec<u64> = match a.intersect(&b) {
            Some(c) => denote(&c),
            None => vec![],
        };
        let rhs: Vec<u64> = denote(&a).into_iter().filter(|h| b.matches_concrete(*h)).collect();
        prop_assert_eq!(lhs, rhs);
    }

    /// subset test agrees with the denotations.
    #[test]
    fn subset_is_set_inclusion(a in wildcard_strategy(), b in wildcard_strategy()) {
        let claimed = a.is_subset_of(&b);
        let actual = denote(&a).iter().all(|h| b.matches_concrete(*h));
        prop_assert_eq!(claimed, actual);
    }

    /// cardinality matches the denotation size.
    #[test]
    fn cardinality_matches_enumeration(a in wildcard_strategy()) {
        prop_assert_eq!(a.cardinality() as usize, denote(&a).len());
    }

    /// rewrite then match: rewriting a concrete member of `a` produces a
    /// member of `a.rewrite(rw)`.
    #[test]
    fn rewrite_commutes_with_membership(a in wildcard_strategy(), rw in wildcard_strategy()) {
        let out = a.rewrite(&rw);
        for h in denote(&a).into_iter().take(16) {
            // Apply the rewrite to the concrete header.
            let mut rewritten = h;
            for pos in 0..WIDTH {
                if let Some(v) = rw.bit(pos) {
                    let m = 1u64 << (WIDTH - 1 - pos);
                    if v { rewritten |= m } else { rewritten &= !m }
                }
            }
            prop_assert!(out.matches_concrete(rewritten));
        }
    }

    /// intersect is commutative, associative (where defined), with `any` as
    /// the identity.
    #[test]
    fn intersect_algebraic_laws(a in wildcard_strategy(), b in wildcard_strategy(), c in wildcard_strategy()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.intersect(&Wildcard::any(WIDTH)), Some(a.clone()));
        let left = a.intersect(&b).and_then(|ab| ab.intersect(&c));
        let right = b.intersect(&c).and_then(|bc| a.intersect(&bc));
        prop_assert_eq!(left, right);
    }

    /// difference denotes set difference, with pairwise-disjoint pieces.
    #[test]
    fn difference_is_set_difference(a in wildcard_strategy(), b in wildcard_strategy()) {
        let pieces = a.difference(&b);
        for (i, p) in pieces.iter().enumerate() {
            for q in &pieces[i + 1..] {
                prop_assert!(!p.overlaps(q), "pieces {p} and {q} overlap");
            }
        }
        let mut lhs: Vec<u64> = pieces.iter().flat_map(denote).collect();
        lhs.sort_unstable();
        let rhs: Vec<u64> = denote(&a).into_iter().filter(|h| !b.matches_concrete(*h)).collect();
        prop_assert_eq!(lhs, rhs);
    }

    /// subtract_all denotes iterated set difference; covers agrees with the
    /// brute-force union-inclusion test.
    #[test]
    fn subtract_all_and_covers_are_exact(
        a in wildcard_strategy(),
        cover in proptest::collection::vec(wildcard_strategy(), 0..4),
    ) {
        let residual = a.subtract_all(&cover);
        let mut lhs: Vec<u64> = residual.iter().flat_map(denote).collect();
        lhs.sort_unstable();
        let rhs: Vec<u64> = denote(&a)
            .into_iter()
            .filter(|h| !cover.iter().any(|c| c.matches_concrete(*h)))
            .collect();
        prop_assert_eq!(&lhs, &rhs);
        prop_assert_eq!(covers(&cover, &a), rhs.is_empty());
    }

    /// Parsing the Display form round-trips.
    #[test]
    fn display_parse_round_trip(a in wildcard_strategy()) {
        let s = format!("{a}");
        let back = Wildcard::from_str_bits(&s).unwrap();
        prop_assert_eq!(a, back);
    }
}

/// Widths the block-wise fast paths must get right: a single bit, either
/// side of the 32-bit header, and either side of a full block.
const FAST_PATH_WIDTHS: [usize; 5] = [1, 31, 32, 63, 64];

/// A wildcard of `width` bits read from the first `width` trits.
fn from_trits(width: usize, tri: &[u8]) -> Wildcard {
    let mut w = Wildcard::any(width);
    for (pos, t) in tri.iter().take(width).enumerate() {
        w.set_bit(
            pos,
            match t {
                0 => Some(false),
                1 => Some(true),
                _ => None,
            },
        );
    }
    w
}

/// `a` and a copy of it with a few positions redrawn: overlapping and
/// disjoint pairs both come up often, at every width.
fn near_pair() -> impl Strategy<Value = (Wildcard, Wildcard)> {
    (
        0..FAST_PATH_WIDTHS.len(),
        proptest::collection::vec(0u8..3, 64),
        proptest::collection::vec((0usize..64, 0u8..3), 0..4),
    )
        .prop_map(|(wi, tri, flips)| {
            let width = FAST_PATH_WIDTHS[wi];
            let mut other = tri.clone();
            for (pos, t) in flips {
                other[pos] = t;
            }
            (from_trits(width, &tri), from_trits(width, &other))
        })
}

/// The per-bit membership test the masked compare replaced.
fn matches_per_bit(w: &Wildcard, bits: u64) -> bool {
    (0..w.width()).all(|pos| {
        w.bit(pos)
            .is_none_or(|v| ((bits >> (w.width() - 1 - pos)) & 1 == 1) == v)
    })
}

proptest! {
    /// The block-wise overlap test agrees with building the intersection.
    #[test]
    fn overlaps_agrees_with_intersect((a, b) in near_pair()) {
        prop_assert_eq!(a.overlaps(&b), a.intersect(&b).is_some());
        prop_assert_eq!(b.overlaps(&a), a.overlaps(&b));
    }

    /// The masked membership test agrees with the per-bit reference, on
    /// a member (free bits drawn at random) and on a random header, with
    /// garbage above `width` in both.
    #[test]
    fn matches_concrete_agrees_with_per_bit_reference(
        (a, _) in near_pair(),
        noise in any::<u64>(),
        garbage in any::<u64>(),
    ) {
        let width = a.width();
        let high = if width == 64 { 0 } else { garbage << width };
        let member = (0..width).fold(0u64, |h, pos| {
            let shift = width - 1 - pos;
            let bit = a.bit(pos).map_or((noise >> shift) & 1, u64::from);
            h | (bit << shift)
        }) | high;
        prop_assert!(a.matches_concrete(member));
        prop_assert!(matches_per_bit(&a, member));
        prop_assert_eq!(a.matches_concrete(noise | high), matches_per_bit(&a, noise | high));
        prop_assert_eq!(a.representative(), (0..width).fold(0u64, |h, pos| {
            h | (u64::from(a.bit(pos) == Some(true)) << (width - 1 - pos))
        }));
    }

    /// The ternary comparator orders regions as their Display strings do.
    #[test]
    fn cmp_ternary_is_display_order((a, b) in near_pair()) {
        prop_assert_eq!(a.cmp_ternary(&b), a.to_string().cmp(&b.to_string()));
        prop_assert_eq!(a.cmp_ternary(&a), std::cmp::Ordering::Equal);
    }
}
