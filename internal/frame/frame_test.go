package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

func allKinds() []Kind {
	var ks []Kind
	for k := Kind(1); k.valid(); k++ {
		ks = append(ks, k)
	}
	return ks
}

func sealed(kind Kind, body []byte) []byte {
	return Seal(kind, append(make([]byte, HeaderSize), body...))
}

func TestRoundTrip(t *testing.T) {
	for _, k := range allKinds() {
		for _, body := range [][]byte{nil, {0}, []byte("a body of some length")} {
			got, err := Decode(k, sealed(k, body))
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("%v: Decode = %q, %v; want %q", k, got, err, body)
			}
		}
	}
}

// TestCrossKind feeds one valid frame of every kind to every other kind's
// Decode, and each kind's frame with its version bumped to its own.
func TestCrossKind(t *testing.T) {
	for _, from := range allKinds() {
		b := sealed(from, []byte("payload"))
		for _, to := range allKinds() {
			if to == from {
				continue
			}
			if _, err := Decode(to, b); !errors.Is(err, ErrKind) || !errors.Is(err, ErrCorrupt) {
				t.Errorf("%v frame decoded as %v: err = %v, want ErrKind", from, to, err)
			}
		}
		bumped := bytes.Clone(b)
		binary.LittleEndian.PutUint32(bumped[4:8], kinds[from].version+1)
		if _, err := Decode(from, bumped); !errors.Is(err, ErrVersion) || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v at version %d: err = %v, want ErrVersion", from, kinds[from].version+1, err)
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	good := sealed(KindSnapshot, []byte("some snapshot body"))
	cases := map[string]struct {
		b    []byte
		want error
	}{
		"empty":          {nil, ErrShort},
		"header only":    {good[:HeaderSize], ErrShort},
		"truncated body": {good[:len(good)-1], ErrShort},
		"trailing bytes": {append(bytes.Clone(good), 0), ErrShort},
		"unknown magic":  {append([]byte("XXXX"), good[4:]...), ErrKind},
		// The parent's snapshot container: "PRS2" little-endian.
		"legacy magic": {append([]byte{0x32, 0x53, 0x52, 0x50}, good[4:]...), ErrKind},
	}
	for i := range good {
		flipped := bytes.Clone(good)
		flipped[i] ^= 0x10
		want := ErrChecksum
		switch {
		case i < 4:
			want = ErrKind
		case i < 8:
			want = ErrVersion
		case i < 16:
			want = ErrShort
		}
		cases[fmt.Sprintf("flip byte %d", i)] = struct {
			b    []byte
			want error
		}{flipped, want}
	}
	for name, tc := range cases {
		if _, err := Decode(KindSnapshot, tc.b); !errors.Is(err, tc.want) || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

func TestWriteRead(t *testing.T) {
	var out bytes.Buffer
	n, err := Write(&out, KindDatabase, func(b *bytes.Buffer) error {
		b.WriteString("body")
		return nil
	})
	if err != nil || n != int64(HeaderSize+4) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	body, err := Read(KindDatabase, &out)
	if err != nil || string(body) != "body" {
		t.Fatalf("Read = %q, %v", body, err)
	}
	fail := errors.New("fill failed")
	if _, err := Write(&out, KindDatabase, func(*bytes.Buffer) error { return fail }); err != fail {
		t.Fatalf("Write with a failing fill = %v", err)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to every kind's Decode. It must
// never panic, every refusal must be ErrCorrupt, and an accepted input must
// re-seal to the same bytes. testdata holds one frame of each kind, as the
// stack writes it.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		accepted := 0
		for _, k := range allKinds() {
			body, err := Decode(k, data)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%v: untyped error %v", k, err)
				}
				continue
			}
			accepted++
			if again := sealed(k, body); !bytes.Equal(again, data) {
				t.Fatalf("%v: accepted frame re-seals differently", k)
			}
		}
		if accepted > 1 {
			t.Fatalf("one frame decoded as %d kinds", accepted)
		}
	})
}
