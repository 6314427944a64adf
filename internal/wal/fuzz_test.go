package wal

import (
	"bytes"
	"testing"
)

// FuzzScanFrames hammers the frame decoder with arbitrary segment record
// areas. Whatever the bytes, the decoder must not panic, must consume a
// prefix of the input, and the records it yields must re-encode to exactly
// the bytes it consumed — the round-trip property that makes torn-tail
// truncation safe (everything before the tear is provably intact data).
func FuzzScanFrames(f *testing.F) {
	// Seed with valid record areas, a torn tail, and assorted damage.
	var valid []byte
	for i, typ := range []RecordType{RecordCreate, RecordLogin, RecordLogout, RecordDelete} {
		valid = appendFrame(valid, Record{Type: typ, ID: int64(i), Unix: int64(1700000000 + i)})
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // torn mid-frame
	f.Add([]byte{})
	f.Add([]byte{0x11})
	flipped := bytes.Clone(valid)
	flipped[9] ^= 0x01 // payload bit rot
	f.Add(flipped)
	huge := bytes.Clone(valid)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f // absurd length
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		var records []Record
		consumed, torn, _ := ScanStream(data, func(rec Record) error {
			records = append(records, rec)
			return nil
		})
		if consumed < 0 || consumed > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if !torn && consumed != int64(len(data)) {
			t.Fatalf("clean scan consumed %d of %d bytes", consumed, len(data))
		}
		// Round trip: re-encoding the records must reproduce the consumed
		// prefix byte for byte.
		var re bytes.Buffer
		for _, rec := range records {
			if !rec.Type.valid() {
				t.Fatalf("decoder yielded invalid record %+v", rec)
			}
			re.Write(appendFrame(nil, rec))
		}
		if !bytes.Equal(re.Bytes(), data[:consumed]) {
			t.Fatalf("re-encoded %d records != consumed prefix (%d bytes)", len(records), consumed)
		}
		// Determinism: a second scan agrees.
		consumed2, torn2, _ := ScanStream(data, func(Record) error { return nil })
		if consumed2 != consumed || torn2 != torn {
			t.Fatalf("scan not deterministic: (%d,%v) vs (%d,%v)", consumed, torn, consumed2, torn2)
		}
	})
}
