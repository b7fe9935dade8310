use crate::rule::{Action, Rule, HEADER_WIDTH};
use foces_headerspace::Wildcard;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;

// The index keys a rule by its match planes, which fit one `u64` block.
const _: () = assert!(HEADER_WIDTH > 0 && HEADER_WIDTH <= 64);

/// A single switch's flow table: an ordered set of [`Rule`]s with
/// OpenFlow-style lookup (highest priority wins, insertion order breaks
/// ties).
///
/// The table keeps one index, updated by every [`FlowTable::push`]: rules
/// are grouped by their match's mask plane, and each group maps a value
/// plane to the ascending indices of the rules carrying it. A query
/// ([`FlowTable::lookup`], [`FlowTable::overlapping`]) visits each group
/// once — one hash probe when the header or region pins every bit of the
/// group's mask, an overlap scan of that group's distinct matches
/// otherwise — so it touches only the rules that can match. A rule's match
/// and priority never change once pushed ([`FlowTable::set_action`] is the
/// only edit), so the index is never stale.
///
/// # Example
///
/// ```
/// use foces_dataplane::{Action, FlowTable, Rule};
/// use foces_headerspace::Wildcard;
/// use foces_net::Port;
///
/// # fn main() -> Result<(), foces_headerspace::HeaderSpaceError> {
/// let mut t = FlowTable::new();
/// t.push(Rule::new(Wildcard::any(32), 0, Action::Drop));              // default
/// t.push(Rule::new(Wildcard::prefix(32, 0, 1)?, 10, Action::Forward(Port(0))));
/// let (idx, rule) = t.lookup(0x0000_0001).unwrap();
/// assert_eq!(idx, 1); // the higher-priority prefix rule
/// assert_eq!(rule.action(), Action::Forward(Port(0)));
/// assert_eq!(t.overlapping(&Wildcard::any(32)), vec![1, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct FlowTable {
    rules: Vec<Rule>,
    /// Rules grouped by mask plane, in order of each mask's first use.
    groups: Vec<MaskGroup>,
    /// For each rule, the next higher index with the same match; `0` ends
    /// the chain (a successor's index is never 0).
    next_same: Vec<u32>,
}

/// The rules whose match pins exactly the bits of `mask`.
#[derive(Clone)]
struct MaskGroup {
    mask: u64,
    /// Value plane → the first and last index of the rules with that
    /// match, chained in ascending order through `FlowTable::next_same`.
    by_value: HashMap<u64, (u32, u32)>,
}

/// A match's `(mask, value)` planes; positions sit at the top of the block.
fn planes_of(w: &Wildcard) -> (u64, u64) {
    let (mask, value) = w.planes();
    (mask[0], value[0])
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Appends a rule, returning its stable index. Indices never shift;
    /// after the push only the rule's action may change
    /// ([`FlowTable::set_action`], the adversary model), or the whole table
    /// is replaced (controller reconfiguration).
    ///
    /// # Panics
    ///
    /// Panics if the table already holds 2³² rules.
    pub fn push(&mut self, rule: Rule) -> usize {
        let index = self.rules.len();
        let slot = u32::try_from(index).expect("a flow table holds fewer than 2^32 rules");
        let (mask, value) = planes_of(rule.match_fields());
        let group = match self.groups.iter().position(|g| g.mask == mask) {
            Some(g) => &mut self.groups[g],
            None => {
                self.groups.push(MaskGroup {
                    mask,
                    by_value: HashMap::new(),
                });
                self.groups.last_mut().expect("just pushed")
            }
        };
        match group.by_value.entry(value) {
            Entry::Occupied(mut chain) => {
                let last = &mut chain.get_mut().1;
                self.next_same[*last as usize] = slot;
                *last = slot;
            }
            Entry::Vacant(chain) => {
                chain.insert((slot, slot));
            }
        }
        self.next_same.push(0);
        self.rules.push(rule);
        index
    }

    /// The ascending indices of one match's rules, from the `(first, last)`
    /// ends of their chain.
    fn same_match(&self, (first, _): (u32, u32)) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(first as usize), |&i| match self.next_same[i] {
            0 => None,
            next => Some(next as usize),
        })
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rule at `index`, if present.
    pub fn get(&self, index: usize) -> Option<&Rule> {
        self.rules.get(index)
    }

    /// Replaces the action of the rule at `index`, returning the previous
    /// one, or `None` if there is no such rule. The match and priority stay
    /// as pushed.
    pub fn set_action(&mut self, index: usize, action: Action) -> Option<Action> {
        let rule = self.rules.get_mut(index)?;
        let old = rule.action();
        rule.set_action(action);
        Some(old)
    }

    /// Iterates over `(index, rule)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Rule)> {
        self.rules.iter().enumerate()
    }

    /// The sort key of effective precedence: priority descending, then
    /// index ascending — the order [`FlowTable::lookup`] resolves in.
    fn precedence_key(&self, index: usize) -> (Reverse<u16>, usize) {
        (Reverse(self.rules[index].priority()), index)
    }

    /// Every rule index in precedence order (priority descending, index
    /// ascending on ties).
    pub fn precedence(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rules.len()).collect();
        order.sort_unstable_by_key(|&i| self.precedence_key(i));
        order
    }

    /// The rules whose match shares at least one header with `region`, in
    /// precedence order. Rules disjoint from `region` are never visited.
    ///
    /// # Panics
    ///
    /// Panics if `region` is not [`HEADER_WIDTH`] bits wide.
    pub fn overlapping(&self, region: &Wildcard) -> Vec<usize> {
        assert_eq!(
            region.width(),
            HEADER_WIDTH,
            "overlapping: region width {} != header width {HEADER_WIDTH}",
            region.width()
        );
        let (rmask, rvalue) = planes_of(region);
        let mut out = Vec::new();
        for g in &self.groups {
            if g.mask & !rmask == 0 {
                // The region pins every bit the group matches on.
                if let Some(&chain) = g.by_value.get(&(rvalue & g.mask)) {
                    out.extend(self.same_match(chain));
                }
            } else {
                let shared = g.mask & rmask;
                for (value, &chain) in &g.by_value {
                    if (value ^ rvalue) & shared == 0 {
                        out.extend(self.same_match(chain));
                    }
                }
            }
        }
        out.sort_unstable_by_key(|&i| self.precedence_key(i));
        out
    }

    /// OpenFlow lookup: among rules matching `header`, returns the one with
    /// the highest priority; ties break toward the earliest-installed rule.
    /// Returns `None` on a table miss (the simulator treats misses as drops,
    /// matching a default-drop OpenFlow pipeline). Bits of `header` above
    /// [`HEADER_WIDTH`] are ignored.
    pub fn lookup(&self, header: u64) -> Option<(usize, &Rule)> {
        let header = header << (u64::BITS as usize - HEADER_WIDTH);
        let best = self
            .groups
            .iter()
            .filter_map(|g| g.by_value.get(&(header & g.mask)))
            .flat_map(|&chain| self.same_match(chain))
            .min_by_key(|&i| self.precedence_key(i))?;
        Some((best, &self.rules[best]))
    }

    /// Whether every two rules' matches are disjoint or nested (one
    /// contains the other) — the precondition of the ATPG tracer's
    /// single-negative emptiness test. Decided over the mask groups: two
    /// rules of one group overlap only when their matches are equal, and
    /// between groups whose masks are nested every overlap is a nesting.
    /// Only groups with incomparable masks are probed, on their shared bits:
    /// any overlap there is partial.
    pub fn is_disjoint_or_nested(&self) -> bool {
        self.groups.iter().enumerate().all(|(i, a)| {
            self.groups[i + 1..].iter().all(|b| {
                let shared = a.mask & b.mask;
                if shared == a.mask || shared == b.mask {
                    return true;
                }
                let seen: HashSet<u64> = a.by_value.keys().map(|v| v & shared).collect();
                !b.by_value.keys().any(|v| seen.contains(&(v & shared)))
            })
        })
    }
}

/// Tables are equal when their rules are; the index is derived from them.
impl PartialEq for FlowTable {
    fn eq(&self, other: &Self) -> bool {
        self.rules == other.rules
    }
}

impl Eq for FlowTable {}

impl fmt::Debug for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowTable")
            .field("rules", &self.rules)
            .finish()
    }
}

impl fmt::Display for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "flow table ({} rules):", self.rules.len())?;
        for (i, r) in self.iter() {
            writeln!(f, "  {i}: {r}")?;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for FlowTable {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Self {
        let mut table = FlowTable::new();
        table.extend(iter);
        table
    }
}

impl Extend<Rule> for FlowTable {
    fn extend<T: IntoIterator<Item = Rule>>(&mut self, iter: T) {
        for rule in iter {
            self.push(rule);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dst_match, pair_header, pair_match};
    use foces_net::{HostId, Port};

    fn fwd(p: usize) -> Action {
        Action::Forward(Port(p))
    }

    #[test]
    fn lookup_prefers_priority() {
        let mut t = FlowTable::new();
        t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 1, fwd(0)));
        t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 9, fwd(1)));
        t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 5, fwd(2)));
        let (idx, r) = t.lookup(42).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(r.action(), fwd(1));
    }

    #[test]
    fn lookup_ties_break_by_insertion_order() {
        let mut t = FlowTable::new();
        t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 5, fwd(0)));
        t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 5, fwd(1)));
        assert_eq!(t.lookup(0).unwrap().0, 0);
    }

    #[test]
    fn lookup_respects_match_fields() {
        let mut t = FlowTable::new();
        let one = Wildcard::exact(HEADER_WIDTH, 1);
        let two = Wildcard::exact(HEADER_WIDTH, 2);
        t.push(Rule::new(one, 5, fwd(0)));
        t.push(Rule::new(two, 5, fwd(1)));
        assert_eq!(t.lookup(1).unwrap().0, 0);
        assert_eq!(t.lookup(2).unwrap().0, 1);
        assert!(t.lookup(3).is_none());
    }

    #[test]
    fn empty_table_misses() {
        assert!(FlowTable::new().lookup(0).is_none());
        assert!(FlowTable::new().is_empty());
    }

    #[test]
    fn indices_are_stable() {
        let mut t = FlowTable::new();
        let i0 = t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 0, fwd(0)));
        let i1 = t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 0, fwd(1)));
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(t.set_action(0, Action::Drop), Some(fwd(0)));
        assert_eq!(t.get(0).unwrap().action(), Action::Drop);
        assert_eq!(t.set_action(2, Action::Drop), None);
        assert_eq!(t.get(1).unwrap().action(), fwd(1));
        assert!(t.get(2).is_none());
    }

    #[test]
    fn collect_and_extend() {
        let rules = vec![
            Rule::new(Wildcard::any(HEADER_WIDTH), 0, fwd(0)),
            Rule::new(Wildcard::any(HEADER_WIDTH), 1, fwd(1)),
        ];
        let mut t: FlowTable = rules.clone().into_iter().collect();
        assert_eq!(t.len(), 2);
        t.extend(rules);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn overlapping_lists_meeting_rules_in_precedence_order() {
        let mut t = FlowTable::new();
        t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 0, Action::Drop));
        t.push(Rule::new(dst_match(HostId(1)), 5, fwd(0)));
        t.push(Rule::new(dst_match(HostId(2)), 5, fwd(1)));
        t.push(Rule::new(pair_match(HostId(0), HostId(1)), 9, fwd(2)));
        // Free destination: the scan visits every per-destination rule.
        let mut from_h0 = Wildcard::any(HEADER_WIDTH);
        for bit in 0..16 {
            from_h0.set_bit(bit, Some(false));
        }
        assert_eq!(t.overlapping(&from_h0), vec![3, 1, 2, 0]);
        // Pinned destination: one probe per group.
        let to_h2 = from_h0.intersect(&dst_match(HostId(2))).unwrap();
        assert_eq!(t.overlapping(&to_h2), vec![2, 0]);
        assert_eq!(t.precedence(), vec![3, 1, 2, 0]);
        assert_eq!(t.lookup(pair_header(HostId(0), HostId(1))).unwrap().0, 3);
        assert_eq!(t.lookup(pair_header(HostId(7), HostId(1))).unwrap().0, 1);
    }

    #[test]
    fn lookup_ignores_bits_above_the_header() {
        let mut t = FlowTable::new();
        t.push(Rule::new(Wildcard::exact(HEADER_WIDTH, 7), 1, fwd(0)));
        assert_eq!(t.lookup(7 | 0xdead << HEADER_WIDTH).unwrap().0, 0);
    }

    #[test]
    fn partial_overlap_breaks_disjoint_or_nested() {
        // Per-destination and per-pair rules nest.
        let mut t = FlowTable::new();
        t.push(Rule::new(dst_match(HostId(1)), 5, fwd(0)));
        t.push(Rule::new(dst_match(HostId(2)), 5, fwd(1)));
        t.push(Rule::new(pair_match(HostId(3), HostId(1)), 9, fwd(2)));
        t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 0, Action::Drop));
        assert!(t.is_disjoint_or_nested());
        // A hardening-style source-prefix rule pins bits the destination
        // rules leave free and frees bits they pin: it cuts each of them
        // in half, a partial overlap.
        let mut hardened = t.clone();
        let src_prefix = Wildcard::prefix(HEADER_WIDTH, 0x8000_0000, 1).unwrap();
        hardened.push(Rule::new(src_prefix, 20, Action::Drop));
        assert!(!hardened.is_disjoint_or_nested());
    }

    #[test]
    fn display_lists_rules() {
        let mut t = FlowTable::new();
        t.push(Rule::new(Wildcard::any(HEADER_WIDTH), 3, Action::Drop));
        let s = t.to_string();
        assert!(s.contains("1 rules"));
        assert!(s.contains("drop"));
    }
}
