package btree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", tr.Len())
	}
	if _, ok := tr.Min(); ok {
		t.Error("Min() ok on empty tree")
	}
	if _, ok := tr.Max(); ok {
		t.Error("Max() ok on empty tree")
	}
	if _, ok := tr.Get(42); ok {
		t.Error("Get(42) ok on empty tree")
	}
	if tr.Delete(42) {
		t.Error("Delete(42) reported true on empty tree")
	}
	calls := 0
	tr.Ascend(0, 100, func(int64, byte) bool { calls++; return true })
	if calls != 0 {
		t.Errorf("Ascend visited %d keys on empty tree", calls)
	}
}

func TestInsertGet(t *testing.T) {
	tr := New()
	if !tr.Insert(10, 1) {
		t.Fatal("first Insert(10) returned false")
	}
	if tr.Insert(10, 0) {
		t.Fatal("duplicate Insert(10) returned true")
	}
	v, ok := tr.Get(10)
	if !ok || v != 1 {
		t.Fatalf("Get(10) = %d,%v, want 1,true", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", tr.Len())
	}
	// The duplicate insert must not clobber the stored value.
	tr.Insert(10, 9)
	if v, _ := tr.Get(10); v != 1 {
		t.Fatalf("duplicate insert clobbered value: got %d", v)
	}
}

func TestInsertAscendingKeys(t *testing.T) {
	tr := New()
	const n = 10_000
	for i := int64(0); i < n; i++ {
		if !tr.Insert(i, byte(i%2)) {
			t.Fatalf("Insert(%d) returned false", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len() = %d, want %d", tr.Len(), n)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		v, ok := tr.Get(i)
		if !ok || v != byte(i%2) {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	if mn, _ := tr.Min(); mn != 0 {
		t.Errorf("Min() = %d, want 0", mn)
	}
	if mx, _ := tr.Max(); mx != n-1 {
		t.Errorf("Max() = %d, want %d", mx, n-1)
	}
}

func TestInsertDescendingKeys(t *testing.T) {
	tr := New()
	const n = 5_000
	for i := int64(n - 1); i >= 0; i-- {
		tr.Insert(i, 1)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []int64
	tr.Ascend(0, n, func(k int64, _ byte) bool { got = append(got, k); return true })
	if len(got) != n {
		t.Fatalf("Ascend visited %d keys, want %d", len(got), n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("Ascend output not sorted")
	}
}

func TestAscendBounds(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i += 10 {
		tr.Insert(i, byte(i/10))
	}
	cases := []struct {
		lo, hi int64
		want   []int64
	}{
		{0, 90, []int64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}},
		{5, 25, []int64{10, 20}},
		{10, 10, []int64{10}},
		{11, 19, nil},
		{91, 200, nil},
		{-50, -1, nil},
		{50, 40, nil}, // inverted range
		{85, 1000, []int64{90}},
	}
	for _, c := range cases {
		var got []int64
		tr.Ascend(c.lo, c.hi, func(k int64, _ byte) bool { got = append(got, k); return true })
		if len(got) != len(c.want) {
			t.Errorf("Ascend(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Ascend(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
				break
			}
		}
	}
}

// TestAscendFromEveryLeafPosition starts range scans at every position a
// lower bound can take relative to a leaf — its first key, a key in the
// middle, the gap between two keys, its last key, and just past its last
// key (where the scan must begin in the next leaf) — and walks a Cursor
// from the same spot.
func TestAscendFromEveryLeafPosition(t *testing.T) {
	tr := New()
	var all []int64
	for k := int64(0); k < 5000; k += 10 {
		tr.Insert(k, byte(k/10%2))
		all = append(all, k)
	}
	leaf := tr.root
	for !leaf.leaf() {
		leaf = leaf.children[0]
	}
	leaves := 0
	for ; leaf != nil; leaf = leaf.next {
		leaves++
		first, mid, last := leaf.keys[0], leaf.keys[len(leaf.keys)/2], leaf.keys[len(leaf.keys)-1]
		for _, lo := range []int64{first - 1, first, mid - 3, mid, mid + 1, last, last + 1} {
			want := all[sort.Search(len(all), func(i int) bool { return all[i] >= lo }):]
			hi := lo + 1000 // several leaves on
			var got []int64
			tr.Ascend(lo, hi, func(k int64, v byte) bool {
				if v != byte(k/10%2) {
					t.Fatalf("Ascend(%d,%d): key %d carries value %d", lo, hi, k, v)
				}
				got = append(got, k)
				return true
			})
			wantRange := want[:sort.Search(len(want), func(i int) bool { return want[i] > hi })]
			if !slices.Equal(got, wantRange) {
				t.Fatalf("Ascend(%d,%d) = %v, want %v", lo, hi, got, wantRange)
			}
			got = got[:0]
			for c := tr.SeekGE(lo); c.Valid(); c.Next() {
				got = append(got, c.Key())
			}
			if !slices.Equal(got, want) {
				t.Fatalf("cursor from SeekGE(%d) visited %d keys starting %v, want %d starting %v",
					lo, len(got), got[:min(3, len(got))], len(want), want[:min(3, len(want))])
			}
		}
	}
	if leaves < 3 {
		t.Fatalf("tree has %d leaves; the test needs several", leaves)
	}
	if c := tr.SeekGE(5000); c.Valid() {
		t.Fatalf("Seek past the largest key is valid at %d", c.Key())
	}
	if c := New().SeekGE(0); c.Valid() {
		t.Fatal("Seek on an empty tree is valid")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := int64(0); i < 1000; i++ {
		tr.Insert(i, 0)
	}
	visited := 0
	tr.Ascend(0, 999, func(int64, byte) bool {
		visited++
		return visited < 7
	})
	if visited != 7 {
		t.Fatalf("visited %d keys, want 7", visited)
	}
}

func TestDeleteSimple(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(i, 0)
	}
	if !tr.Delete(50) {
		t.Fatal("Delete(50) returned false")
	}
	if tr.Delete(50) {
		t.Fatal("second Delete(50) returned true")
	}
	if tr.Has(50) {
		t.Fatal("Has(50) after delete")
	}
	if tr.Len() != 99 {
		t.Fatalf("Len() = %d, want 99", tr.Len())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllAscending(t *testing.T) {
	tr := New()
	const n = 3_000
	for i := int64(0); i < n; i++ {
		tr.Insert(i, 0)
	}
	for i := int64(0); i < n; i++ {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) returned false", i)
		}
		if i%257 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("after Delete(%d): %v", i, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d after deleting everything", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("Height() = %d after deleting everything, want 1", tr.Height())
	}
}

func TestDeleteAllDescending(t *testing.T) {
	tr := New()
	const n = 3_000
	for i := int64(0); i < n; i++ {
		tr.Insert(i, 0)
	}
	for i := int64(n - 1); i >= 0; i-- {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) returned false", i)
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRange(t *testing.T) {
	tr := New()
	for i := int64(0); i < 1000; i++ {
		tr.Insert(i, 0)
	}
	got := tr.DeleteRange(100, 899)
	if got != 800 {
		t.Fatalf("DeleteRange removed %d keys, want 800", got)
	}
	if tr.Len() != 200 {
		t.Fatalf("Len() = %d, want 200", tr.Len())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		want := i < 100 || i > 899
		if tr.Has(i) != want {
			t.Fatalf("Has(%d) = %v, want %v", i, tr.Has(i), want)
		}
	}
	if tr.DeleteRange(5000, 6000) != 0 {
		t.Error("DeleteRange of empty range removed keys")
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	model := map[int64]byte{}
	const ops = 50_000
	for op := 0; op < ops; op++ {
		k := int64(rng.Intn(5_000))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // insert-biased so the tree grows
			v := byte(rng.Intn(2))
			_, existed := model[k]
			if tr.Insert(k, v) == existed {
				t.Fatalf("op %d: Insert(%d) disagrees with model (existed=%v)", op, k, existed)
			}
			if !existed {
				model[k] = v
			}
		case 6, 7:
			_, existed := model[k]
			if tr.Delete(k) != existed {
				t.Fatalf("op %d: Delete(%d) disagrees with model (existed=%v)", op, k, existed)
			}
			delete(model, k)
		case 8:
			v, ok := tr.Get(k)
			mv, mok := model[k]
			if ok != mok || (ok && v != mv) {
				t.Fatalf("op %d: Get(%d) = %d,%v; model %d,%v", op, k, v, ok, mv, mok)
			}
		case 9:
			lo := int64(rng.Intn(5_000))
			hi := lo + int64(rng.Intn(500))
			n := tr.DeleteRange(lo, hi)
			mn := 0
			for mk := range model {
				if mk >= lo && mk <= hi {
					delete(model, mk)
					mn++
				}
			}
			if n != mn {
				t.Fatalf("op %d: DeleteRange(%d,%d) = %d, model %d", op, lo, hi, n, mn)
			}
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("final Len() = %d, model %d", tr.Len(), len(model))
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Full ordered scan must match the sorted model.
	var want []int64
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	i := 0
	tr.Ascend(-1, 1<<62, func(k int64, v byte) bool {
		if i >= len(want) || k != want[i] || v != model[k] {
			t.Fatalf("scan mismatch at %d: key %d", i, k)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("scan visited %d keys, want %d", i, len(want))
	}
}

// Property: for any key set, inserting all keys then scanning yields the
// sorted deduplicated input.
func TestQuickInsertScanSorted(t *testing.T) {
	f := func(keys []int64) bool {
		tr := New()
		uniq := map[int64]bool{}
		for _, k := range keys {
			tr.Insert(k, 1)
			uniq[k] = true
		}
		if tr.Len() != len(uniq) {
			return false
		}
		var prev int64
		first := true
		ok := true
		n := 0
		tr.Ascend(math.MinInt64, math.MaxInt64, func(k int64, _ byte) bool {
			if !first && k <= prev {
				ok = false
				return false
			}
			if !uniq[k] {
				ok = false
				return false
			}
			prev, first = k, false
			n++
			return true
		})
		return ok && n == len(uniq) && tr.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: delete of an arbitrary subset leaves exactly the complement.
func TestQuickDeleteComplement(t *testing.T) {
	f := func(keys []int64, delMask []bool) bool {
		tr := New()
		uniq := map[int64]bool{}
		for _, k := range keys {
			tr.Insert(k, 0)
			uniq[k] = true
		}
		i := 0
		for k := range uniq {
			if i < len(delMask) && delMask[i] {
				if !tr.Delete(k) {
					return false
				}
				delete(uniq, k)
			}
			i++
		}
		if tr.Len() != len(uniq) {
			return false
		}
		for k := range uniq {
			if !tr.Has(k) {
				return false
			}
		}
		return tr.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Min/Max always agree with a linear scan.
func TestQuickMinMax(t *testing.T) {
	f := func(keys []int64) bool {
		tr := New()
		for _, k := range keys {
			tr.Insert(k, 0)
		}
		if len(keys) == 0 {
			_, okMin := tr.Min()
			_, okMax := tr.Max()
			return !okMin && !okMax
		}
		wantMin, wantMax := keys[0], keys[0]
		for _, k := range keys {
			if k < wantMin {
				wantMin = k
			}
			if k > wantMax {
				wantMax = k
			}
		}
		gotMin, _ := tr.Min()
		gotMax, _ := tr.Max()
		return gotMin == wantMin && gotMax == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	tr := New()
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		tr.Insert(rng.Int63(), 0)
	}
	// With degree 32 a 200k-key tree must stay very shallow.
	if tr.Height() > 5 {
		t.Fatalf("Height() = %d for %d keys, want <= 5", tr.Height(), tr.Len())
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(int64(i), 0)
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, b.N)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(keys[i], 0)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	const n = 100_000
	for i := int64(0); i < n; i++ {
		tr.Insert(i, 0)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(int64(i % n))
	}
}

func BenchmarkAscend100(b *testing.B) {
	tr := New()
	const n = 100_000
	for i := int64(0); i < n; i++ {
		tr.Insert(i, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i % (n - 100))
		count := 0
		tr.Ascend(lo, lo+99, func(int64, byte) bool { count++; return true })
	}
}
