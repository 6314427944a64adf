// Package frame is the one checksummed container for every byte the
// serving stack persists or ships. Each payload is a Kind with its own
// magic and one current version; a frame is
//
//	magic   [4]byte  per kind, ASCII
//	version u32 LE   the kind's current version
//	length  u64 LE   body bytes that follow the header
//	crc     u32 LE   CRC-32C (Castagnoli) of the body
//	body    length bytes
//
// Frames do not nest frames: a kind whose body carries another kind's
// payload (a snapshot's fleet archive, a transfer's shard map) carries that
// payload's bare body, so the outermost CRC is the only one over it. A
// version bump deletes the previous reader: bytes of any other version are
// refused with ErrVersion, never read.
//
// Sum runs on the module's one CRC-32C table; the WAL's record frames,
// shardmap.SlotOf and the replication text sums use it too.
package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the length of a frame header.
const HeaderSize = 20

// Kind names what a frame holds.
type Kind uint8

// The kinds. The zero Kind is invalid.
const (
	KindSegment  Kind = iota + 1 // WAL segment header: the segment seq
	KindSnapshot                 // snapshot file: WAL boundary + fleet archive body
	KindArchive                  // fleet archive (ShardedFleet.WriteTo)
	KindDatabase                 // one database (Database.WriteTo)
	KindShardMap                 // shard map file and peer map fetch
	KindTransfer                 // slot transfer (POST /v1/shard/adopt)
)

var kinds = [...]struct {
	magic   string
	version uint32
	name    string
}{
	KindSegment:  {"PRWL", 1, "wal-segment"},
	KindSnapshot: {"PRSN", 1, "snapshot"},
	KindArchive:  {"PRFA", 1, "fleet-archive"},
	KindDatabase: {"PRDB", 1, "database"},
	KindShardMap: {"PRSM", 1, "shard-map"},
	KindTransfer: {"PRST", 1, "slot-transfer"},
}

func (k Kind) valid() bool { return k > 0 && int(k) < len(kinds) }

func (k Kind) String() string { return kinds[k].name + " (" + kinds[k].magic + ")" }

// ErrCorrupt is wrapped by every error Decode returns and by every body
// decoder's structural error: the bytes are damaged, truncated or not what
// the reader expects, so a caller falls back or refuses — it never retries.
var ErrCorrupt = errors.New("corrupt frame")

// The typed reasons, each wrapping ErrCorrupt.
var (
	ErrKind     = fmt.Errorf("%w: wrong kind", ErrCorrupt)
	ErrVersion  = fmt.Errorf("%w: unsupported version", ErrCorrupt)
	ErrShort    = fmt.Errorf("%w: length mismatch", ErrCorrupt)
	ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
)

var table = crc32.MakeTable(crc32.Castagnoli)

// Sum is the CRC-32C of b.
func Sum(b []byte) uint32 { return crc32.Checksum(b, table) }

// Seal writes the header of a kind frame into b[:HeaderSize], over the body
// b[HeaderSize:], and returns b. Writers reserve the header's bytes first
// and append the body after them, so sealing copies nothing.
func Seal(kind Kind, b []byte) []byte {
	k := kinds[kind]
	body := b[HeaderSize:]
	copy(b[0:4], k.magic)
	binary.LittleEndian.PutUint32(b[4:8], k.version)
	binary.LittleEndian.PutUint64(b[8:16], uint64(len(body)))
	binary.LittleEndian.PutUint32(b[16:20], Sum(body))
	return b
}

// Header is a frame header as read, before anything is verified.
type Header struct {
	Kind    Kind
	Version uint32
	Len     uint64
	Sum     uint32
}

// Parse reads the header at the front of b: ErrShort when b cannot hold
// one, ErrKind when the magic names no kind.
func Parse(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: %d bytes, a header takes %d", ErrShort, len(b), HeaderSize)
	}
	h := Header{
		Version: binary.LittleEndian.Uint32(b[4:8]),
		Len:     binary.LittleEndian.Uint64(b[8:16]),
		Sum:     binary.LittleEndian.Uint32(b[16:20]),
	}
	for k := range kinds {
		if Kind(k).valid() && string(b[0:4]) == kinds[k].magic {
			h.Kind = Kind(k)
			return h, nil
		}
	}
	return h, fmt.Errorf("%w: unknown magic %q", ErrKind, b[0:4])
}

// Decode verifies that b is exactly one frame of kind at its current
// version and returns the body, a subslice of b.
func Decode(kind Kind, b []byte) ([]byte, error) {
	h, err := Parse(b)
	if err != nil {
		return nil, err
	}
	if h.Kind != kind {
		return nil, fmt.Errorf("%w: %v frame, want %v", ErrKind, h.Kind, kind)
	}
	if want := kinds[kind].version; h.Version != want {
		return nil, fmt.Errorf("%w: %v version %d, want %d", ErrVersion, kind, h.Version, want)
	}
	body := b[HeaderSize:]
	if uint64(len(body)) != h.Len {
		return nil, fmt.Errorf("%w: %v body is %d bytes, header says %d", ErrShort, kind, len(body), h.Len)
	}
	if got := Sum(body); got != h.Sum {
		return nil, fmt.Errorf("%w: %v crc %#08x, header says %#08x", ErrChecksum, kind, got, h.Sum)
	}
	return body, nil
}

// Write seals the body fill writes as one kind frame and writes it to w.
func Write(w io.Writer, kind Kind, fill func(*bytes.Buffer) error) (int64, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, HeaderSize))
	if err := fill(&buf); err != nil {
		return 0, err
	}
	n, err := w.Write(Seal(kind, buf.Bytes()))
	return int64(n), err
}

// Read reads r to its end and decodes it as one kind frame.
func Read(kind Kind, r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, err
	}
	return Decode(kind, buf.Bytes())
}
