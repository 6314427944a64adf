// Package btree implements an in-memory B+tree over unique int64 keys with
// small fixed-size values.
//
// It is the storage substrate for the per-database history table
// sys.pause_resume_history described in Section 5 of the ProRP paper: the
// paper requires a clustered B-tree index on the time_snapshot column so
// that point lookups and inserts are O(log n) and range queries are
// O(log n + m). Keys are epoch-second timestamps; values are event types.
//
// The tree is not safe for concurrent use; the history store serializes
// access, mirroring the single-writer stored-procedure model of the paper.
package btree

import "fmt"

// degree is the branching factor: every node except the root holds between
// degree-1 and 2*degree-1 keys. 32 keeps nodes around two cache lines of
// keys while staying shallow for the few-thousand-tuple histories the paper
// reports (Figure 10(a)).
const degree = 32

const (
	maxKeys = 2*degree - 1
	minKeys = degree - 1
)

// Tree is a B+tree mapping unique int64 keys to byte values. Leaves are
// linked for ordered range scans. The zero value is not usable; call New.
type Tree struct {
	root   *node
	size   int
	height int
}

type node struct {
	// keys holds the node's keys in ascending order. In an internal node
	// keys[i] is the smallest key reachable under children[i+1], so a
	// search for k descends into children[j] where j is the number of
	// keys <= k.
	keys []int64
	// vals is parallel to keys in leaf nodes and nil in internal nodes.
	vals []byte
	// children is nil in leaf nodes; len(children) == len(keys)+1 otherwise.
	children []*node
	// next links leaves left-to-right for range scans.
	next *node
}

func (n *node) leaf() bool { return n.children == nil }

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: newLeaf(), height: 1}
}

func newLeaf() *node {
	return &node{
		keys: make([]int64, 0, maxKeys),
		vals: make([]byte, 0, maxKeys),
	}
}

func newInternal() *node {
	return &node{
		keys:     make([]int64, 0, maxKeys),
		children: make([]*node, 0, maxKeys+1),
	}
}

// Len reports the number of keys stored.
func (t *Tree) Len() int { return t.size }

// Height reports the number of levels, including the leaf level.
func (t *Tree) Height() int { return t.height }

// search returns the index of the first key >= k in ks, i.e. the insertion
// point that keeps ks sorted.
func search(ks []int64, k int64) int {
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child of an internal node covers key k.
func (n *node) childIndex(k int64) int {
	// keys[i] is the min key of children[i+1]; descend right of every
	// separator <= k.
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		return i + 1
	}
	return i
}

// Get returns the value stored under k.
func (t *Tree) Get(k int64) (byte, bool) {
	n := t.leafFor(k)
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		return n.vals[i], true
	}
	return 0, false
}

// Has reports whether k is present.
func (t *Tree) Has(k int64) bool {
	_, ok := t.Get(k)
	return ok
}

// Insert stores v under k if k is absent and reports whether it inserted.
// An existing key is left untouched, matching the IF NOT EXISTS guard of
// Algorithm 2 in the paper.
func (t *Tree) Insert(k int64, v byte) bool {
	inserted, split, sepKey := t.insert(t.root, k, v)
	if !inserted {
		return false
	}
	if split != nil {
		oldRoot := t.root
		t.root = newInternal()
		t.root.keys = append(t.root.keys, sepKey)
		t.root.children = append(t.root.children, oldRoot, split)
		t.height++
	}
	t.size++
	return true
}

// insert adds k to the subtree rooted at n. If n overflows it splits,
// returning the new right sibling and the separator key the parent must
// adopt.
func (t *Tree) insert(n *node, k int64, v byte) (inserted bool, split *node, sepKey int64) {
	if n.leaf() {
		i := search(n.keys, k)
		if i < len(n.keys) && n.keys[i] == k {
			return false, nil, 0
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
		if len(n.keys) > maxKeys {
			right := t.splitLeaf(n)
			return true, right, right.keys[0]
		}
		return true, nil, 0
	}

	ci := n.childIndex(k)
	inserted, childSplit, childSep := t.insert(n.children[ci], k, v)
	if childSplit != nil {
		n.keys = append(n.keys, 0)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = childSep
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = childSplit
		if len(n.keys) > maxKeys {
			right, sep := t.splitInternal(n)
			return inserted, right, sep
		}
	}
	return inserted, nil, 0
}

// splitLeaf moves the upper half of n into a new right sibling. The
// separator the parent adopts is the first key of the new sibling (B+tree
// style: all keys remain in leaves).
func (t *Tree) splitLeaf(n *node) *node {
	mid := len(n.keys) / 2
	right := newLeaf()
	right.keys = append(right.keys, n.keys[mid:]...)
	right.vals = append(right.vals, n.vals[mid:]...)
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	right.next = n.next
	n.next = right
	return right
}

// splitInternal moves the upper half of n into a new right sibling and
// returns it along with the separator key promoted to the parent.
func (t *Tree) splitInternal(n *node) (*node, int64) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := newInternal()
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return right, sep
}

// Min returns the smallest key.
func (t *Tree) Min() (int64, bool) {
	if t.size == 0 {
		return 0, false
	}
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0], true
}

// Max returns the largest key.
func (t *Tree) Max() (int64, bool) {
	if t.size == 0 {
		return 0, false
	}
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1], true
}

// leafFor returns the leaf whose key range covers k.
func (t *Tree) leafFor(k int64) *node {
	n := t.root
	for !n.leaf() {
		n = n.children[n.childIndex(k)]
	}
	return n
}

// Ascend calls fn for every key in [lo, hi] in ascending order, stopping
// early if fn returns false. This is the range query of Algorithm 4
// (lines 19-24): O(log n) to locate lo, then O(m) along the leaf chain.
func (t *Tree) Ascend(lo, hi int64, fn func(k int64, v byte) bool) {
	n := t.leafFor(lo)
	for i := search(n.keys, lo); n != nil; n, i = n.next, 0 {
		for ; i < len(n.keys); i++ {
			k := n.keys[i]
			if k > hi || !fn(k, n.vals[i]) {
				return
			}
		}
	}
}

// Cursor is a position on the leaf chain: Ascend as a resumable scan, for
// callers that interleave several range reads. Any Insert or Delete
// invalidates it.
type Cursor struct {
	n *node
	i int
}

// SeekGE returns a cursor on the first key >= k.
func (t *Tree) SeekGE(k int64) Cursor {
	n := t.leafFor(k)
	c := Cursor{n: n, i: search(n.keys, k)}
	c.settle()
	return c
}

// settle moves a cursor that stands past the last key of its leaf to the
// first key of the next leaf. Only the root of an empty tree is a leaf
// without keys, and it has no successor, so one step is enough.
func (c *Cursor) settle() {
	if c.i == len(c.n.keys) {
		c.n, c.i = c.n.next, 0
	}
}

// Valid reports whether the cursor addresses a key; false past the last.
func (c Cursor) Valid() bool { return c.n != nil }

// Key returns the key under a valid cursor.
func (c Cursor) Key() int64 { return c.n.keys[c.i] }

// Val returns the value under a valid cursor.
func (c Cursor) Val() byte { return c.n.vals[c.i] }

// Next advances a valid cursor to the following key in ascending order.
func (c *Cursor) Next() {
	c.i++
	c.settle()
}

// Delete removes k and reports whether it was present.
func (t *Tree) Delete(k int64) bool {
	deleted := t.delete(t.root, k)
	if !deleted {
		return false
	}
	t.size--
	// Collapse a root that lost its last separator.
	if !t.root.leaf() && len(t.root.children) == 1 {
		t.root = t.root.children[0]
		t.height--
	}
	return true
}

// delete removes k from the subtree rooted at n, rebalancing children that
// underflow. The caller rebalances n itself.
func (t *Tree) delete(n *node, k int64) bool {
	if n.leaf() {
		i := search(n.keys, k)
		if i >= len(n.keys) || n.keys[i] != k {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return true
	}
	ci := n.childIndex(k)
	if !t.delete(n.children[ci], k) {
		return false
	}
	if len(n.children[ci].keys) < minKeys {
		t.rebalance(n, ci)
	}
	return true
}

// rebalance fixes an underflowing child at index ci of parent p by
// borrowing from a sibling or merging with one.
func (t *Tree) rebalance(p *node, ci int) {
	child := p.children[ci]

	// Borrow from the left sibling if it can spare a key.
	if ci > 0 {
		left := p.children[ci-1]
		if len(left.keys) > minKeys {
			if child.leaf() {
				last := len(left.keys) - 1
				child.keys = append(child.keys, 0)
				copy(child.keys[1:], child.keys)
				child.keys[0] = left.keys[last]
				child.vals = append(child.vals, 0)
				copy(child.vals[1:], child.vals)
				child.vals[0] = left.vals[last]
				left.keys = left.keys[:last]
				left.vals = left.vals[:last]
				p.keys[ci-1] = child.keys[0]
			} else {
				// Rotate through the separator.
				child.keys = append(child.keys, 0)
				copy(child.keys[1:], child.keys)
				child.keys[0] = p.keys[ci-1]
				child.children = append(child.children, nil)
				copy(child.children[1:], child.children)
				child.children[0] = left.children[len(left.children)-1]
				p.keys[ci-1] = left.keys[len(left.keys)-1]
				left.keys = left.keys[:len(left.keys)-1]
				left.children = left.children[:len(left.children)-1]
			}
			return
		}
	}

	// Borrow from the right sibling.
	if ci < len(p.children)-1 {
		right := p.children[ci+1]
		if len(right.keys) > minKeys {
			if child.leaf() {
				child.keys = append(child.keys, right.keys[0])
				child.vals = append(child.vals, right.vals[0])
				right.keys = append(right.keys[:0], right.keys[1:]...)
				right.vals = append(right.vals[:0], right.vals[1:]...)
				p.keys[ci] = right.keys[0]
			} else {
				child.keys = append(child.keys, p.keys[ci])
				child.children = append(child.children, right.children[0])
				p.keys[ci] = right.keys[0]
				right.keys = append(right.keys[:0], right.keys[1:]...)
				right.children = append(right.children[:0], right.children[1:]...)
			}
			return
		}
	}

	// Merge with a sibling; prefer merging child into its left sibling.
	if ci > 0 {
		t.merge(p, ci-1)
	} else {
		t.merge(p, ci)
	}
}

// merge folds p.children[i+1] into p.children[i] and drops separator i.
func (t *Tree) merge(p *node, i int) {
	left, right := p.children[i], p.children[i+1]
	if left.leaf() {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, p.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	p.keys = append(p.keys[:i], p.keys[i+1:]...)
	p.children = append(p.children[:i+1], p.children[i+2:]...)
}

// DeleteRange removes every key in [lo, hi] and returns how many were
// removed. It locates the range in O(log n) and deletes key by key, so the
// total cost is O(m log n) for m removed keys; the histories trimmed by
// Algorithm 3 keep m small (Figure 10(a)).
func (t *Tree) DeleteRange(lo, hi int64) int {
	// Collect first: deleting while walking the leaf chain would invalidate
	// the iterator when leaves merge.
	var doomed []int64
	t.Ascend(lo, hi, func(k int64, _ byte) bool {
		doomed = append(doomed, k)
		return true
	})
	for _, k := range doomed {
		t.Delete(k)
	}
	return len(doomed)
}

// checkInvariants validates structural invariants; used by tests.
func (t *Tree) checkInvariants() error {
	count, _, err := t.check(t.root, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d keys reachable", t.size, count)
	}
	return nil
}

func (t *Tree) check(n *node, isRoot bool) (count int, depth int, err error) {
	for i := 1; i < len(n.keys); i++ {
		if n.keys[i-1] >= n.keys[i] {
			return 0, 0, fmt.Errorf("keys out of order: %d >= %d", n.keys[i-1], n.keys[i])
		}
	}
	if len(n.keys) > maxKeys {
		return 0, 0, fmt.Errorf("node overflow: %d keys", len(n.keys))
	}
	if !isRoot && len(n.keys) < minKeys {
		return 0, 0, fmt.Errorf("node underflow: %d keys", len(n.keys))
	}
	if n.leaf() {
		if len(n.vals) != len(n.keys) {
			return 0, 0, fmt.Errorf("leaf with %d keys but %d vals", len(n.keys), len(n.vals))
		}
		return len(n.keys), 1, nil
	}
	if len(n.children) != len(n.keys)+1 {
		return 0, 0, fmt.Errorf("internal with %d keys but %d children", len(n.keys), len(n.children))
	}
	childDepth := -1
	for i, c := range n.children {
		cc, d, err := t.check(c, false)
		if err != nil {
			return 0, 0, err
		}
		if childDepth == -1 {
			childDepth = d
		} else if d != childDepth {
			return 0, 0, fmt.Errorf("uneven depth: %d vs %d", d, childDepth)
		}
		count += cc
		// Deletions may leave separators stale, so the invariant is the
		// search-correctness one: separator i-1 <= every key under child i,
		// and separator i > every key under child i.
		if i > 0 {
			if mink := minKeyUnder(c); mink < n.keys[i-1] {
				return 0, 0, fmt.Errorf("separator %d > min key %d of child %d", n.keys[i-1], mink, i)
			}
		}
		if i < len(n.keys) {
			if maxk := maxKeyUnder(c); maxk >= n.keys[i] {
				return 0, 0, fmt.Errorf("separator %d <= max key %d of child %d", n.keys[i], maxk, i)
			}
		}
	}
	return count, childDepth + 1, nil
}

func minKeyUnder(n *node) int64 {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0]
}

func maxKeyUnder(n *node) int64 {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1]
}
