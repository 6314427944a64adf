package shardmap

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"testing"

	"prorp/internal/faults"
	"prorp/internal/frame"
)

func mustNew(t *testing.T, groups ...string) *Map {
	t.Helper()
	m, err := New(groups)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSlotOfStableAndCovered(t *testing.T) {
	// The hash must be deterministic (pin literal values so a change of
	// table or byte order shows up as a test failure, not a silent re-home
	// of every database) and must land inside the ring.
	for id, want := range map[int]int{0: 10, 1: 45, 2: 4, 123456: 2, 1 << 40: 52, -1: 7} {
		if got := SlotOf(id); got != want || got < 0 || got >= NumSlots {
			t.Fatalf("SlotOf(%d) = %d (unstable or out of range)", id, got)
		}
	}
	// Every slot should be reachable over a modest id space, otherwise
	// migration tests could never exercise some slots.
	hit := make(map[int]bool)
	for id := 0; id < 4096; id++ {
		hit[SlotOf(id)] = true
	}
	if len(hit) != NumSlots {
		t.Fatalf("only %d/%d slots reachable over 4096 ids", len(hit), NumSlots)
	}
}

func TestNewAssignsRoundRobinSorted(t *testing.T) {
	m := mustNew(t, "west", "east") // unsorted on purpose
	if got := m.Groups(); got[0] != "east" || got[1] != "west" {
		t.Fatalf("groups not sorted: %v", got)
	}
	if m.Version() != 1 {
		t.Fatalf("fresh map version = %d, want 1", m.Version())
	}
	east, west := len(m.OwnedSlots("east")), len(m.OwnedSlots("west"))
	if east+west != NumSlots || east != west {
		t.Fatalf("round-robin split = %d/%d over %d slots", east, west, NumSlots)
	}
	for _, bad := range [][]string{nil, {"a", "a"}, {""}} {
		if _, err := New(bad); err == nil {
			t.Fatalf("New(%q) accepted", bad)
		}
	}
}

func TestWithOwnerBumpsVersion(t *testing.T) {
	m := mustNew(t, "a", "b")
	slot := m.OwnedSlots("a")[0]
	m2, err := m.WithOwner(slot, "b")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version() != m.Version()+1 {
		t.Fatalf("version = %d, want %d", m2.Version(), m.Version()+1)
	}
	if m2.Owner(slot) != "b" || m.Owner(slot) != "a" {
		t.Fatalf("ownership: old=%q new=%q (immutability broken?)", m.Owner(slot), m2.Owner(slot))
	}
	if _, err := m.WithOwner(slot, "nope"); err == nil {
		t.Fatal("unknown group accepted")
	}
	if _, err := m.WithOwner(NumSlots, "b"); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if m.Equal(m2) || !m.Equal(m) {
		t.Fatal("Equal is wrong")
	}
}

func TestRangesCoverRing(t *testing.T) {
	m := mustNew(t, "a", "b", "c")
	covered := 0
	for _, r := range m.Ranges() {
		if r.Start > r.End || m.Owner(r.Start) != r.Group || m.Owner(r.End) != r.Group {
			t.Fatalf("bad range %+v", r)
		}
		covered += r.End - r.Start + 1
	}
	if covered != NumSlots {
		t.Fatalf("ranges cover %d slots, want %d", covered, NumSlots)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := mustNew(t, "alpha", "beta", "gamma")
	m, err := m.WithOwner(5, "gamma")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	img := mustNew(t, "a", "b").Encode()
	// Flip one bit in every byte position: the CRC (or a structural
	// check, for bytes inside the header) must catch each one.
	for i := range img {
		bad := append([]byte(nil), img...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		} else if !errors.Is(err, frame.ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: err %v not ErrCorrupt", i, err)
		}
	}
	for cut := 0; cut < len(img); cut += 7 {
		if _, err := Decode(img[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestSaveLoadInspect(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "shard.map")
	if _, err := Load(nil, path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("load missing = %v, want fs.ErrNotExist", err)
	}
	m := mustNew(t, "g1", "g2")
	if err := Save(nil, path, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(nil, path)
	if err != nil || !got.Equal(m) {
		t.Fatalf("Load = %+v, %v", got, err)
	}
	// Overwrite with a newer version; no temp litter left behind.
	m2, _ := m.WithOwner(0, "g2")
	if err := Save(nil, path, m2); err != nil {
		t.Fatal(err)
	}
	if got, _ := Load(nil, path); got.Version() != m2.Version() {
		t.Fatalf("reload version = %d, want %d", got.Version(), m2.Version())
	}
	litter, _ := filepath.Glob(filepath.Join(dir, "sub", "*.tmp-*"))
	if len(litter) != 0 {
		t.Fatalf("temp litter: %v", litter)
	}
}

func TestSaveFaultLeavesOldMap(t *testing.T) {
	inj := faults.NewInjector(1)
	fsys := faults.NewFaultFS(faults.OS, inj, nil)
	path := filepath.Join(t.TempDir(), "shard.map")
	m := mustNew(t, "a", "b")
	if err := Save(fsys, path, m); err != nil {
		t.Fatal(err)
	}
	m2, _ := m.WithOwner(0, "b")
	inj.FailProb("fs.rename", 1, nil)
	if err := Save(fsys, path, m2); err == nil {
		t.Fatal("save with failing rename succeeded")
	}
	inj.HealAll()
	got, err := Load(fsys, path)
	if err != nil || !got.Equal(m) {
		t.Fatalf("old map not intact after failed save: %+v, %v", got, err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := mustNew(t, "a", "b", "c")
	m, _ = m.WithOwner(10, "a")
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var got Map
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("json round trip mismatch:\n%s", b)
	}
	for _, bad := range []string{
		`{"version":1,"groups":[],"slots":[]}`,
		`{"version":1,"groups":["a"],"slots":[]}`,
		`{"version":1,"groups":["a"],"slots":[{"start":0,"end":63,"group":"x"}]}`,
		`{"version":1,"groups":["a"],"slots":[{"start":0,"end":63,"group":"a"},{"start":5,"end":5,"group":"a"}]}`,
		`{"version":1,"groups":["b","a"],"slots":[{"start":0,"end":63,"group":"a"}]}`,
	} {
		var m2 Map
		if err := json.Unmarshal([]byte(bad), &m2); err == nil {
			t.Fatalf("bad JSON accepted: %s", bad)
		}
	}
}

func TestLookupHelpers(t *testing.T) {
	m := mustNew(t, "b", "a")
	if !m.HasGroup("a") || !m.HasGroup("b") {
		t.Fatalf("HasGroup lost a member: %v", m.Groups())
	}
	if m.HasGroup("c") || m.HasGroup("") {
		t.Fatal("HasGroup invented a member")
	}
	if got := m.Owner(-1); got != "" {
		t.Fatalf("Owner(-1) = %q", got)
	}
	if got := m.Owner(NumSlots); got != "" {
		t.Fatalf("Owner(%d) = %q", NumSlots, got)
	}
	for id := 0; id < 100; id++ {
		if m.OwnerOf(id) != m.Owner(SlotOf(id)) {
			t.Fatalf("OwnerOf(%d) disagrees with Owner(SlotOf)", id)
		}
	}
}

func TestNewRejectsTooManyGroups(t *testing.T) {
	groups := make([]string, MaxGroups+1)
	for i := range groups {
		groups[i] = fmt.Sprintf("g%03d", i)
	}
	if _, err := New(groups); err == nil {
		t.Fatal("New accepted more than MaxGroups groups")
	}
}

func TestEqualBranches(t *testing.T) {
	base := mustNew(t, "a", "b")
	moved, err := base.WithOwner(0, "b")
	if err != nil {
		t.Fatal(err)
	}
	sameShapeMoved, err := mustNew(t, "a", "b").WithOwner(1, "a")
	if err != nil {
		t.Fatal(err)
	}
	var nilMap *Map
	cases := []struct {
		name string
		a, b *Map
		want bool
	}{
		{"both nil", nilMap, nilMap, true},
		{"nil vs map", nilMap, base, false},
		{"map vs nil", base, nilMap, false},
		{"same", base, mustNew(t, "b", "a"), true},
		{"version differs", base, moved, false},
		{"groups differ", mustNew(t, "a", "b"), mustNew(t, "a", "c"), false},
		{"group count differs", mustNew(t, "a"), base, false},
		{"owners differ", moved, sameShapeMoved, false},
	}
	for _, tc := range cases {
		if got := tc.a.Equal(tc.b); got != tc.want {
			t.Errorf("%s: Equal = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDecodeStructuralChecks(t *testing.T) {
	le := binary.LittleEndian
	u16 := func(v int) []byte { return le.AppendUint16(nil, uint16(v)) }
	group := func(name string) []byte { return append(u16(len(name)), name...) }
	var version [8]byte
	le.PutUint64(version[:], 1)
	body := func(parts ...[]byte) []byte {
		out := append([]byte(nil), version[:]...)
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	owners := func(n int, gi byte) []byte {
		return bytes.Repeat([]byte{gi}, n)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"zero groups", body(u16(0))},
		{"empty group name", body(u16(1), group(""), u16(NumSlots), owners(NumSlots, 0))},
		{"unsorted groups", body(u16(2), group("b"), group("a"), u16(NumSlots), owners(NumSlots, 0))},
		{"truncated group table", body(u16(2), group("a"))},
		{"truncated group name", body(u16(1), u16(10), []byte("abc"))},
		{"missing slot count", body(u16(1), group("a"))},
		{"wrong slot count", body(u16(1), group("a"), u16(32), owners(32, 0))},
		{"short owner table", body(u16(1), group("a"), u16(NumSlots), owners(NumSlots-1, 0))},
		{"owner index out of range", body(u16(2), group("a"), group("b"), u16(NumSlots), owners(NumSlots, 2))},
	}
	for _, tc := range cases {
		if _, err := DecodeBody(tc.body); !errors.Is(err, frame.ErrCorrupt) {
			t.Errorf("%s: DecodeBody err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}
