// Package shardmap implements the versioned slot-range map that partitions
// database ids across named primary groups.
//
// Database ids hash into a fixed number of slots (consistent hashing: the
// slot of an id never changes, only the slot's owner does), and each slot is
// assigned to exactly one group. The map carries a monotonically increasing
// version that acts like a replication epoch for routing: a router holding
// an older version is stale and must adopt the newer map before serving, so
// a migrated slot can never be written through its previous owner.
//
// On disk and between peers the map is one internal/frame KindShardMap
// frame, so torn or bit-flipped images are detected on load; a slot
// transfer nests the bare body. Persistence is atomic and durable
// (faults.WriteFileAtomic), the write the snapshot store uses.
package shardmap

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"

	"prorp/internal/faults"
	"prorp/internal/frame"
)

// NumSlots is the fixed size of the hash ring. Every map owns exactly this
// many slots; re-sharding moves slots between groups, never changes the
// slot count (which would re-home every database).
const NumSlots = 64

// MaxGroups bounds the group count; owners are stored as one byte per slot.
const MaxGroups = 255

// SlotOf hashes a database id onto the ring. The hash must be stable across
// processes and releases: CRC-32C over the id's 8 little-endian bytes.
func SlotOf(id int) int {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(id))
	return int(frame.Sum(b[:]) % NumSlots)
}

// Map is an immutable slot-ownership table. Mutations return a new Map with
// a bumped version; routers swap the whole pointer.
type Map struct {
	version uint64
	groups  []string // sorted, unique
	owner   []uint8  // len NumSlots, index into groups
}

// New builds a version-1 map assigning slots round-robin across the given
// groups (sorted first, so the assignment is independent of argument order).
func New(groups []string) (*Map, error) {
	if len(groups) == 0 {
		return nil, errors.New("shardmap: no groups")
	}
	if len(groups) > MaxGroups {
		return nil, fmt.Errorf("shardmap: %d groups exceeds max %d", len(groups), MaxGroups)
	}
	gs := append([]string(nil), groups...)
	sort.Strings(gs)
	for i, g := range gs {
		if g == "" {
			return nil, errors.New("shardmap: empty group name")
		}
		if i > 0 && gs[i-1] == g {
			return nil, fmt.Errorf("shardmap: duplicate group %q", g)
		}
	}
	owner := make([]uint8, NumSlots)
	for slot := range owner {
		owner[slot] = uint8(slot % len(gs))
	}
	return &Map{version: 1, groups: gs, owner: owner}, nil
}

// Version reports the map's epoch-style version.
func (m *Map) Version() uint64 { return m.version }

// Groups returns the sorted group names (a copy).
func (m *Map) Groups() []string { return append([]string(nil), m.groups...) }

// HasGroup reports whether the named group exists in the map.
func (m *Map) HasGroup(g string) bool {
	i := sort.SearchStrings(m.groups, g)
	return i < len(m.groups) && m.groups[i] == g
}

// Owner reports which group owns a slot.
func (m *Map) Owner(slot int) string {
	if slot < 0 || slot >= NumSlots {
		return ""
	}
	return m.groups[m.owner[slot]]
}

// OwnerOf reports which group owns a database id.
func (m *Map) OwnerOf(id int) string { return m.groups[m.owner[SlotOf(id)]] }

// OwnedSlots returns the slots owned by a group, sorted.
func (m *Map) OwnedSlots(group string) []int {
	var slots []int
	for slot, gi := range m.owner {
		if m.groups[gi] == group {
			slots = append(slots, slot)
		}
	}
	return slots
}

// Range is a maximal run of consecutive slots with one owner.
type Range struct {
	Start int    `json:"start"`
	End   int    `json:"end"` // inclusive
	Group string `json:"group"`
}

// Ranges compresses the ownership table into contiguous slot ranges.
func (m *Map) Ranges() []Range {
	var out []Range
	for slot := 0; slot < NumSlots; {
		gi := m.owner[slot]
		end := slot
		for end+1 < NumSlots && m.owner[end+1] == gi {
			end++
		}
		out = append(out, Range{Start: slot, End: end, Group: m.groups[gi]})
		slot = end + 1
	}
	return out
}

// WithOwner returns a new map, one version newer, with the slot reassigned
// to the given (existing) group.
func (m *Map) WithOwner(slot int, group string) (*Map, error) {
	if slot < 0 || slot >= NumSlots {
		return nil, fmt.Errorf("shardmap: slot %d out of range [0,%d)", slot, NumSlots)
	}
	gi := sort.SearchStrings(m.groups, group)
	if gi >= len(m.groups) || m.groups[gi] != group {
		return nil, fmt.Errorf("shardmap: unknown group %q", group)
	}
	owner := append([]uint8(nil), m.owner...)
	owner[slot] = uint8(gi)
	return &Map{version: m.version + 1, groups: m.groups, owner: owner}, nil
}

// Equal reports whether two maps agree on version, groups, and ownership.
func (m *Map) Equal(o *Map) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.version != o.version || len(m.groups) != len(o.groups) {
		return false
	}
	for i := range m.groups {
		if m.groups[i] != o.groups[i] {
			return false
		}
	}
	for i := range m.owner {
		if m.owner[i] != o.owner[i] {
			return false
		}
	}
	return true
}

// The map body (little endian):
//
//	version u64
//	nGroups u16, then per group: u16 length + bytes
//	nSlots  u16  = NumSlots
//	owner   u8 × nSlots

// Encode frames the map as a KindShardMap image.
func (m *Map) Encode() []byte {
	return frame.Seal(frame.KindShardMap, m.AppendBody(make([]byte, frame.HeaderSize)))
}

// AppendBody appends the map's bare body to b.
func (m *Map) AppendBody(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, m.version)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.groups)))
	for _, g := range m.groups {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(g)))
		b = append(b, g...)
	}
	b = binary.LittleEndian.AppendUint16(b, NumSlots)
	return append(b, m.owner...)
}

// Decode verifies and parses a KindShardMap image.
func Decode(b []byte) (*Map, error) {
	body, err := frame.Decode(frame.KindShardMap, b)
	if err != nil {
		return nil, err
	}
	return DecodeBody(body)
}

// DecodeBody parses a bare map body, which must fill p exactly. Damage
// wraps frame.ErrCorrupt.
func DecodeBody(p []byte) (*Map, error) {
	corrupt := func(format string, args ...any) (*Map, error) {
		return nil, fmt.Errorf("%w: shard map: "+format, append([]any{frame.ErrCorrupt}, args...)...)
	}
	if len(p) < 8+2 {
		return corrupt("%d bytes", len(p))
	}
	version := binary.LittleEndian.Uint64(p[0:8])
	n := int(binary.LittleEndian.Uint16(p[8:10]))
	p = p[10:]
	if n == 0 || n > MaxGroups {
		return corrupt("%d groups", n)
	}
	groups := make([]string, n)
	for i := range groups {
		if len(p) < 2 {
			return corrupt("truncated group table")
		}
		l := int(binary.LittleEndian.Uint16(p[0:2]))
		p = p[2:]
		if len(p) < l {
			return corrupt("truncated group name")
		}
		groups[i] = string(p[:l])
		p = p[l:]
		if groups[i] == "" || (i > 0 && groups[i-1] >= groups[i]) {
			return corrupt("group table not sorted-unique")
		}
	}
	if len(p) < 2 {
		return corrupt("missing slot count")
	}
	slots := int(binary.LittleEndian.Uint16(p[0:2]))
	p = p[2:]
	if slots != NumSlots {
		return corrupt("%d slots, want %d", slots, NumSlots)
	}
	if len(p) != NumSlots {
		return corrupt("%d owner bytes, want %d", len(p), NumSlots)
	}
	owner := make([]uint8, NumSlots)
	for i, gi := range p {
		if int(gi) >= n {
			return corrupt("slot %d owner index %d out of range", i, gi)
		}
		owner[i] = gi
	}
	return &Map{version: version, groups: groups, owner: owner}, nil
}

// mapJSON is the human/HTTP wire shape.
type mapJSON struct {
	Version uint64   `json:"version"`
	Groups  []string `json:"groups"`
	Slots   []Range  `json:"slots"`
}

// MarshalJSON renders the map as {version, groups, slots:[{start,end,group}]}.
func (m *Map) MarshalJSON() ([]byte, error) {
	return json.Marshal(mapJSON{Version: m.version, Groups: m.groups, Slots: m.Ranges()})
}

// UnmarshalJSON parses the wire shape back into a full ownership table.
func (m *Map) UnmarshalJSON(b []byte) error {
	var j mapJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if len(j.Groups) == 0 || len(j.Groups) > MaxGroups {
		return fmt.Errorf("shardmap: bad group count %d", len(j.Groups))
	}
	idx := make(map[string]uint8, len(j.Groups))
	for i, g := range j.Groups {
		if g == "" || (i > 0 && j.Groups[i-1] >= g) {
			return errors.New("shardmap: groups not sorted-unique")
		}
		idx[g] = uint8(i)
	}
	owner := make([]uint8, NumSlots)
	seen := make([]bool, NumSlots)
	for _, r := range j.Slots {
		gi, ok := idx[r.Group]
		if !ok {
			return fmt.Errorf("shardmap: range owner %q not in groups", r.Group)
		}
		if r.Start < 0 || r.End >= NumSlots || r.Start > r.End {
			return fmt.Errorf("shardmap: bad range [%d,%d]", r.Start, r.End)
		}
		for s := r.Start; s <= r.End; s++ {
			if seen[s] {
				return fmt.Errorf("shardmap: slot %d assigned twice", s)
			}
			seen[s] = true
			owner[s] = gi
		}
	}
	for s, ok := range seen {
		if !ok {
			return fmt.Errorf("shardmap: slot %d unassigned", s)
		}
	}
	m.version = j.Version
	m.groups = append([]string(nil), j.Groups...)
	m.owner = owner
	return nil
}

// Save durably persists the map (faults.WriteFileAtomic: temp file in the
// same directory, fsync, rename over the target, directory fsync).
func Save(fsys faults.FS, path string, m *Map) error {
	if fsys == nil {
		fsys = faults.OS
	}
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("shardmap: mkdir: %w", err)
	}
	if _, err := faults.WriteFileAtomic(fsys, path, m.Encode(), ""); err != nil {
		return fmt.Errorf("shardmap: save: %w", err)
	}
	return nil
}

// Load reads and verifies a persisted map. A missing file surfaces as
// fs.ErrNotExist so boot can fall back to building a fresh map; damage as
// frame.ErrCorrupt.
func Load(fsys faults.FS, path string) (*Map, error) {
	if fsys == nil {
		fsys = faults.OS
	}
	f, err := fsys.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("shardmap: open %s: %w", path, err)
	}
	b, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("shardmap: read %s: %w", path, err)
	}
	return Decode(b)
}
