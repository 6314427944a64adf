package btree

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzTreeOps interprets the fuzz input as a sequence of operations and
// cross-checks the tree against a map model plus structural invariants.
// Run with `go test -fuzz FuzzTreeOps ./internal/btree`; the seed corpus
// keeps it exercising as a normal test.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 254, 253, 1, 1, 1, 0, 0})
	seed := make([]byte, 300)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New()
		model := map[int64]byte{}
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 4
			k := int64(binary.LittleEndian.Uint16(data[i+1 : i+3]))
			switch op {
			case 0, 1: // insert
				_, existed := model[k]
				if tr.Insert(k, byte(op)) == existed {
					t.Fatalf("Insert(%d) disagrees with model", k)
				}
				if !existed {
					model[k] = byte(op)
				}
			case 2: // delete
				_, existed := model[k]
				if tr.Delete(k) != existed {
					t.Fatalf("Delete(%d) disagrees with model", k)
				}
				delete(model, k)
			case 3: // range delete
				hi := k + int64(data[i]%64)
				n := tr.DeleteRange(k, hi)
				m := 0
				for mk := range model {
					if mk >= k && mk <= hi {
						delete(model, mk)
						m++
					}
				}
				if n != m {
					t.Fatalf("DeleteRange(%d,%d) = %d, model %d", k, hi, n, m)
				}
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("Len %d, model %d", tr.Len(), len(model))
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatal(err)
		}

		// Range scans from lower bounds the input picks: with 16-bit keys
		// and multi-leaf trees they land on keys, between keys, and past
		// the last key of a leaf.
		keys := make([]int64, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for i := 0; i+2 < len(data) && i < 3*16; i += 3 {
			lo := int64(binary.LittleEndian.Uint16(data[i+1:i+3])) - 1
			hi := lo + int64(data[i])*8
			from, _ := slices.BinarySearch(keys, lo)
			to, _ := slices.BinarySearch(keys, hi+1)
			var got []int64
			tr.Ascend(lo, hi, func(k int64, v byte) bool {
				if v != model[k] {
					t.Fatalf("Ascend(%d,%d): key %d carries %d, model %d", lo, hi, k, v, model[k])
				}
				got = append(got, k)
				return true
			})
			if !slices.Equal(got, keys[from:to]) {
				t.Fatalf("Ascend(%d,%d) = %v, model %v", lo, hi, got, keys[from:to])
			}
			n := from
			for c := tr.SeekGE(lo); c.Valid(); c.Next() {
				if n >= len(keys) || c.Key() != keys[n] {
					t.Fatalf("cursor from SeekGE(%d): key %d at position %d, model %v", lo, c.Key(), n-from, keys[from:])
				}
				n++
			}
			if n != len(keys) {
				t.Fatalf("cursor from SeekGE(%d) stopped after %d keys, model has %d", lo, n-from, len(keys)-from)
			}
		}
	})
}
