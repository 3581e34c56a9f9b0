//! Sharing infrastructure for the sparse analyzer: persistent interval
//! maps, a hash-consing arena, and the deterministic worklist.
//!
//! Three cooperating pieces (the Monniaux 2024 pragmatics, *Pragmatics of
//! Formally Verified Yet Efficient Static Analysis*, adapted to this
//! repository's zero-dependency rules):
//!
//! * [`PMap`] — a **persistent, canonically shaped treap** from `u32` keys
//!   to [`Interval`]s. Node priorities are a pure hash of the key, so a
//!   given key *set* always produces one unique tree shape, independent of
//!   insertion order. Clones are `O(1)` (`Arc` bumps), and the sharing-aware
//!   [`PMap::merge_shared`] join touches only subtrees that actually differ
//!   — identical subtrees are recognized by pointer equality and returned
//!   as-is.
//! * [`Arena`] — a **hash-consing table** that interns tree nodes bottom-up.
//!   States stored at block boundaries are canonized, so equal states become
//!   the *same* `Arc` and the fixpoint's convergence test is a pointer
//!   comparison. Node ids are monotonically increasing and never reused
//!   (even across capacity clears), so an id match always proves equality;
//!   an id mismatch proves nothing and falls back to the structural walk.
//! * [`Worklist`] — a **round-based reverse-postorder worklist** that
//!   replays the dense analyzer's iteration order exactly (see
//!   `DESIGN.md` §11): within a round blocks are processed in ascending RPO
//!   index; a successor whose index is behind the cursor is deferred to the
//!   next round, precisely like a dense sweep would revisit it on the next
//!   pass. Only blocks whose inputs changed are ever revisited, which is
//!   what makes the fixpoint sparse without perturbing widening order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::value::Interval;

/// Deterministic per-key treap priority (splitmix64 finalizer). Pure and
/// process-independent, so tree shapes — and therefore every downstream
/// digest — are reproducible everywhere.
fn prio_of(key: u32) -> u64 {
    let mut z = u64::from(key).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One treap node. `id == 0` means "not interned"; interned ids start at 1
/// and are unique for the lifetime of the arena that issued them.
#[derive(Debug)]
struct Node {
    key: u32,
    val: Interval,
    prio: u64,
    size: u32,
    left: Link,
    right: Link,
    id: AtomicU64,
}

type Link = Option<Arc<Node>>;

fn size(l: &Link) -> u32 {
    l.as_ref().map_or(0, |n| n.size)
}

fn mk(key: u32, val: Interval, left: Link, right: Link) -> Arc<Node> {
    Arc::new(Node {
        key,
        val,
        prio: prio_of(key),
        size: 1 + size(&left) + size(&right),
        left,
        right,
        id: AtomicU64::new(0),
    })
}

/// Max-heap ordering on (priority, key); keys are unique, so this is a
/// total order and the treap shape is canonical.
fn higher(a: &Node, b: &Node) -> bool {
    (a.prio, a.key) > (b.prio, b.key)
}

/// Splits into keys `< k` and keys `>= k`.
fn split_at(t: &Link, k: u32) -> (Link, Link) {
    let Some(n) = t else {
        return (None, None);
    };
    if n.key < k {
        let (a, b) = split_at(&n.right, k);
        (Some(mk(n.key, n.val, n.left.clone(), a)), b)
    } else {
        let (a, b) = split_at(&n.left, k);
        (a, Some(mk(n.key, n.val, b, n.right.clone())))
    }
}

/// Joins two treaps where every key of `l` is smaller than every key of `r`.
fn merge2(l: &Link, r: &Link) -> Link {
    match (l, r) {
        (None, _) => r.clone(),
        (_, None) => l.clone(),
        (Some(a), Some(b)) => {
            if higher(a, b) {
                Some(mk(a.key, a.val, a.left.clone(), merge2(&a.right, r)))
            } else {
                Some(mk(b.key, b.val, merge2(l, &b.left), b.right.clone()))
            }
        }
    }
}

/// Joins `l`, a middle element, and `r` (keys of `l` < `key` < keys of `r`).
fn join3(l: Link, key: u32, val: Interval, r: Link) -> Link {
    let pk = (prio_of(key), key);
    match (&l, &r) {
        (Some(a), _) if (a.prio, a.key) > pk && r.as_ref().is_none_or(|b| higher(a, b)) => {
            Some(mk(
                a.key,
                a.val,
                a.left.clone(),
                join3(a.right.clone(), key, val, r),
            ))
        }
        (_, Some(b)) if (b.prio, b.key) > pk => Some(mk(
            b.key,
            b.val,
            join3(l, key, val, b.left.clone()),
            b.right.clone(),
        )),
        _ => Some(mk(key, val, l, r)),
    }
}

fn get(t: &Link, k: u32) -> Option<Interval> {
    let mut cur = t;
    while let Some(n) = cur {
        cur = match k.cmp(&n.key) {
            std::cmp::Ordering::Less => &n.left,
            std::cmp::Ordering::Greater => &n.right,
            std::cmp::Ordering::Equal => return Some(n.val),
        };
    }
    None
}

/// Structural equality with two fast paths: pointer equality, and equal
/// nonzero interned ids. Canonical shaping means equal contents always have
/// node-wise equal structure, so the walk never needs to re-sort.
fn link_eq(a: &Link, b: &Link) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            if Arc::ptr_eq(x, y) {
                return true;
            }
            let (ix, iy) = (x.id.load(Ordering::Relaxed), y.id.load(Ordering::Relaxed));
            if ix != 0 && ix == iy {
                return true;
            }
            x.key == y.key
                && x.val == y.val
                && link_eq(&x.left, &y.left)
                && link_eq(&x.right, &y.right)
        }
        _ => false,
    }
}

/// Whether any key in `[lo, hi)` is present.
fn any_in_range(t: &Link, lo: u32, hi: u32) -> bool {
    let Some(n) = t else {
        return false;
    };
    if n.key >= lo && n.key < hi {
        return true;
    }
    (n.key > lo && any_in_range(&n.left, lo, hi)) || (n.key < hi && any_in_range(&n.right, lo, hi))
}

/// Whether any key lies *outside* `[lo, hi)`.
fn any_outside_range(t: &Link, lo: u32, hi: u32) -> bool {
    let Some(n) = t else {
        return false;
    };
    if n.key < lo || n.key >= hi {
        return true;
    }
    any_outside_range(&n.left, lo, hi) || any_outside_range(&n.right, lo, hi)
}

/// A persistent canonical map from `u32` to [`Interval`].
///
/// Absent keys mean ⊤ (no information) throughout the value analysis, so
/// the map only ever stores informative intervals. Cloning is `O(1)`.
#[derive(Debug, Clone, Default)]
pub struct PMap {
    root: Link,
}

impl PMap {
    /// The empty map.
    #[must_use]
    pub fn new() -> PMap {
        PMap::default()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        size(&self.root) as usize
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Looks up a key.
    #[must_use]
    pub fn get(&self, k: u32) -> Option<Interval> {
        get(&self.root, k)
    }

    /// Inserts (or replaces) a binding. Inserting the value already present
    /// is a no-op that preserves sharing.
    pub fn insert(&mut self, k: u32, v: Interval) {
        if self.get(k) == Some(v) {
            return;
        }
        let (l, r) = split_at(&self.root, k);
        let (_, r) = split_at(&r, k + 1);
        self.root = join3(l, k, v, r);
    }

    /// Removes a binding if present; absent keys preserve sharing.
    pub fn remove(&mut self, k: u32) {
        if self.get(k).is_none() {
            return;
        }
        let (l, r) = split_at(&self.root, k);
        let (_, r) = split_at(&r, k + 1);
        self.root = merge2(&l, &r);
    }

    /// Drops every binding.
    pub fn clear(&mut self) {
        self.root = None;
    }

    /// Keeps only keys in `[lo, hi)` (the call-clobber shape: only the live
    /// stack window survives). `O(log n)` when nothing is dropped.
    pub fn range_restrict(&mut self, lo: u32, hi: u32) {
        if lo >= hi {
            self.root = None;
            return;
        }
        if !any_outside_range(&self.root, lo, hi) {
            return;
        }
        let (_, r) = split_at(&self.root, lo);
        let (mid, _) = split_at(&r, hi);
        self.root = mid;
    }

    /// Removes every key in `[lo, hi)` (the ranged-store clobber shape).
    /// `O(log n)` when nothing is in the range.
    pub fn range_remove(&mut self, lo: u32, hi: u32) {
        if lo >= hi || !any_in_range(&self.root, lo, hi) {
            return;
        }
        let (l, r) = split_at(&self.root, lo);
        let (_, r) = split_at(&r, hi);
        self.root = merge2(&l, &r);
    }

    /// Key/value pairs in ascending key order.
    pub fn iter(&self) -> PMapIter<'_> {
        let mut stack = Vec::new();
        push_left(&self.root, &mut stack);
        PMapIter { stack }
    }

    /// Sharing-aware intersection merge: the result binds exactly the keys
    /// present in **both** maps, to `f(a, b)`, with ⊤ results dropped.
    /// Subtrees shared by pointer are returned unchanged, so the cost is
    /// proportional to the *difference* between the maps — this requires
    /// `f(v, v) == v` (true for both join and widen), which the caller
    /// guarantees.
    #[must_use]
    pub fn merge_shared(
        &self,
        other: &PMap,
        f: impl Fn(Interval, Interval) -> Interval + Copy,
    ) -> PMap {
        fn go(a: &Link, b: &Link, f: impl Fn(Interval, Interval) -> Interval + Copy) -> Link {
            match (a, b) {
                (None, _) | (_, None) => None,
                (Some(x), Some(y)) => {
                    if Arc::ptr_eq(x, y) {
                        return a.clone();
                    }
                    let (bl, br) = split_at(b, x.key);
                    let bv = get(&br, x.key);
                    let (_, br) = split_at(&br, x.key + 1);
                    let l = go(&x.left, &bl, f);
                    let r = go(&x.right, &br, f);
                    match bv {
                        Some(v) => {
                            let nv = f(x.val, v);
                            if nv.is_top() {
                                merge2(&l, &r)
                            } else {
                                join3(l, x.key, nv, r)
                            }
                        }
                        None => merge2(&l, &r),
                    }
                }
            }
        }
        PMap {
            root: go(&self.root, &other.root, f),
        }
    }
}

impl PartialEq for PMap {
    fn eq(&self, other: &PMap) -> bool {
        size(&self.root) == size(&other.root) && link_eq(&self.root, &other.root)
    }
}

impl Eq for PMap {}

fn push_left<'a>(mut t: &'a Link, stack: &mut Vec<&'a Node>) {
    while let Some(n) = t {
        stack.push(n);
        t = &n.left;
    }
}

/// In-order iterator over a [`PMap`].
#[derive(Debug)]
pub struct PMapIter<'a> {
    stack: Vec<&'a Node>,
}

impl Iterator for PMapIter<'_> {
    type Item = (u32, Interval);

    fn next(&mut self) -> Option<(u32, Interval)> {
        let n = self.stack.pop()?;
        push_left(&n.right, &mut self.stack);
        Some((n.key, n.val))
    }
}

/// Hash-consing arena: interns [`PMap`] nodes so structurally equal trees
/// become pointer-equal, making the fixpoint's state comparison `O(1)` on
/// everything previously seen.
///
/// The arena is single-threaded by design (the session [`Analyzer`]
/// (`crate::Analyzer`) keeps a pool and checks one out per call); node ids
/// are globally meaningful only as "equal ids ⇒ equal trees".
#[derive(Debug, Default)]
pub struct Arena {
    table: HashMap<(u32, i64, i64, u64, u64), Arc<Node>>,
    next_id: u64,
}

/// Arenas beyond this many live interned nodes are cleared wholesale; ids
/// keep increasing so stale ids can never alias fresh ones.
const ARENA_CAP: usize = 1 << 20;

impl Arena {
    /// A fresh arena.
    #[must_use]
    pub fn new() -> Arena {
        Arena::default()
    }

    fn canonize_link(&mut self, t: &Link) -> Link {
        let n = t.as_ref()?;
        if n.id.load(Ordering::Relaxed) != 0 {
            return t.clone();
        }
        let left = self.canonize_link(&n.left);
        let right = self.canonize_link(&n.right);
        let lid = left.as_ref().map_or(0, |c| c.id.load(Ordering::Relaxed));
        let rid = right.as_ref().map_or(0, |c| c.id.load(Ordering::Relaxed));
        let key = (n.key, n.val.lo, n.val.hi, lid, rid);
        if let Some(c) = self.table.get(&key) {
            return Some(Arc::clone(c));
        }
        if self.table.len() >= ARENA_CAP {
            // Deterministic pressure valve: sharing restarts, ids do not.
            self.table.clear();
        }
        self.next_id += 1;
        let fresh = Arc::new(Node {
            key: n.key,
            val: n.val,
            prio: n.prio,
            size: n.size,
            left,
            right,
            id: AtomicU64::new(self.next_id),
        });
        self.table.insert(key, Arc::clone(&fresh));
        Some(fresh)
    }

    /// Returns the canonical representative of `m`: equal maps canonized by
    /// the same arena share one root `Arc`.
    #[must_use]
    pub fn canonize(&mut self, m: &PMap) -> PMap {
        PMap {
            root: self.canonize_link(&m.root),
        }
    }
}

/// Round-based reverse-postorder worklist over block indices.
///
/// `pop` yields the smallest pending index at or after the cursor; when none
/// remains, the round wraps to the smallest pending index overall. This is
/// exactly the visit order of a dense RPO sweep restricted to blocks whose
/// inputs changed, so sparse iteration preserves the dense analyzer's
/// widening decisions bit for bit.
#[derive(Debug, Default)]
pub struct Worklist {
    pending: std::collections::BTreeSet<u32>,
    cursor: u32,
}

impl Worklist {
    /// A worklist seeded with one index.
    #[must_use]
    pub fn seeded(i: u32) -> Worklist {
        let mut w = Worklist::default();
        w.push(i);
        w
    }

    /// Enqueues an index (idempotent).
    pub fn push(&mut self, i: u32) {
        self.pending.insert(i);
    }

    /// Dequeues the next index in round order.
    pub fn pop(&mut self) -> Option<u32> {
        let i = self
            .pending
            .range(self.cursor..)
            .next()
            .copied()
            .or_else(|| self.pending.iter().next().copied())?;
        self.pending.remove(&i);
        self.cursor = i + 1;
        Some(i)
    }
}

/// Incremental 128-bit FNV-1a with length-prefixed field framing, so
/// `("ab", "c")` and `("a", "bc")` hash differently — the workspace's one
/// stable content hash. It keys the analyzer's per-function facts here,
/// and `vericomp-pipeline` re-exports it as `Hasher` for cache keys and
/// every determinism digest, so its output must never change: a new
/// value would invalidate every `.vcart` file on disk.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u128,
}

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint { state: FNV_OFFSET }
    }
}

impl Fingerprint {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Fingerprint {
        Fingerprint::default()
    }

    /// Absorbs raw bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorbs a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorbs a bool.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.bytes(&[u8::from(v)])
    }

    /// Absorbs a string, length-prefixed so concatenations cannot collide.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes())
    }

    /// The digest.
    #[must_use]
    pub fn finish(&self) -> u128 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: i64, hi: i64) -> Interval {
        Interval { lo, hi }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = PMap::new();
        assert!(m.is_empty());
        for k in [5u32, 1, 9, 3, 7] {
            m.insert(k, iv(i64::from(k), i64::from(k) + 1));
        }
        assert_eq!(m.len(), 5);
        assert_eq!(m.get(3), Some(iv(3, 4)));
        assert_eq!(m.get(4), None);
        m.remove(3);
        assert_eq!(m.get(3), None);
        assert_eq!(m.len(), 4);
        let keys: Vec<u32> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 5, 7, 9]);
    }

    #[test]
    fn shape_is_canonical_regardless_of_insertion_order() {
        let mut a = PMap::new();
        let mut b = PMap::new();
        for k in 0..64u32 {
            a.insert(k, iv(0, i64::from(k)));
        }
        for k in (0..64u32).rev() {
            b.insert(k, iv(0, i64::from(k)));
        }
        assert_eq!(a, b);
        // canonization maps both to the same root pointer
        let mut arena = Arena::new();
        let ca = arena.canonize(&a);
        let cb = arena.canonize(&b);
        assert!(match (&ca.root, &cb.root) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        });
    }

    #[test]
    fn merge_shared_intersects_and_drops_top() {
        let mut a = PMap::new();
        let mut b = PMap::new();
        a.insert(1, iv(0, 10));
        a.insert(2, iv(5, 6));
        b.insert(2, iv(7, 9));
        b.insert(3, iv(0, 0));
        let j = a.merge_shared(&b, Interval::join);
        assert_eq!(j.get(1), None, "only-in-a is dropped (⊤ join)");
        assert_eq!(j.get(2), Some(iv(5, 9)));
        assert_eq!(j.get(3), None);
        // joining to the full range drops the key entirely
        let mut c = PMap::new();
        c.insert(
            2,
            Interval {
                lo: i64::from(i32::MIN),
                hi: 0,
            },
        );
        let mut d = PMap::new();
        d.insert(
            2,
            Interval {
                lo: 0,
                hi: i64::from(i32::MAX),
            },
        );
        assert!(c.merge_shared(&d, Interval::join).is_empty());
    }

    #[test]
    fn merge_shared_preserves_sharing_on_identical_maps() {
        let mut a = PMap::new();
        for k in 0..32u32 {
            a.insert(k * 4, iv(0, 1));
        }
        let b = a.clone();
        let j = a.merge_shared(&b, Interval::join);
        assert!(match (&a.root, &j.root) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        });
    }

    #[test]
    fn range_ops_match_filtering() {
        let mut m = PMap::new();
        for k in (0..40u32).step_by(4) {
            m.insert(k, iv(1, 2));
        }
        let mut r = m.clone();
        r.range_restrict(8, 24);
        let keys: Vec<u32> = r.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![8, 12, 16, 20]);
        let mut d = m.clone();
        d.range_remove(8, 24);
        let keys: Vec<u32> = d.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, 4, 24, 28, 32, 36]);
        // no-op range ops preserve the root pointer (sharing)
        let mut n = m.clone();
        n.range_remove(100, 200);
        assert!(match (&m.root, &n.root) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        });
    }

    #[test]
    fn worklist_replays_round_order() {
        let mut w = Worklist::seeded(0);
        assert_eq!(w.pop(), Some(0));
        // forward target runs this round; backward target waits for the next
        w.push(2);
        w.push(1);
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), Some(2));
        w.push(1); // behind the cursor: next round
        w.push(3);
        assert_eq!(w.pop(), Some(3), "finish the round first");
        assert_eq!(w.pop(), Some(1), "then wrap");
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn fingerprint_is_pinned_and_framed() {
        // pinned: changing the hash function invalidates every cache on
        // disk, which must be a deliberate store FORMAT_VERSION bump instead
        assert_eq!(Fingerprint::new().finish(), FNV_OFFSET);
        let mut h = Fingerprint::new();
        h.str("vericomp").u32(2011).bool(true);
        assert_eq!(
            format!("{:032x}", h.finish()),
            "71f879af8427691b9529c65bd1957e1b"
        );
        let mut a = Fingerprint::new();
        a.str("ab").str("c");
        let mut b = Fingerprint::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefix framing");
    }
}
