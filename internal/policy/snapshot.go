package policy

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"prorp/internal/historystore"
	"prorp/internal/predictor"
)

// Snapshots make the per-database controller durable: when a database
// moves across nodes to balance load, its history — and the live policy
// state — must move with it (Section 3.3 of the paper), and a control
// plane restart must not forget pause bookkeeping. This is the body of a
// database frame (internal/frame KindDatabase) or of an archive entry, so
// it carries no magic or checksum of its own:
//
//	state    uint8
//	flags    uint8 (bit0 active, bit1 old, bit2 prewarmed)
//	nextStart, nextEnd, pauseStart int64
//	predictions int64
//	history    (historystore wire format)
//
// Configuration is deliberately not serialized: the restoring side supplies
// it, so fleet-wide knob re-training (Section 8) applies to restored
// databases too.

const snapshotHeader = 34

// WriteTo serializes the machine. It implements io.WriterTo.
func (m *Machine) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var hdr [snapshotHeader]byte
	hdr[0] = byte(m.state)
	var flags byte
	if m.active {
		flags |= 1
	}
	if m.old {
		flags |= 2
	}
	if m.prewarmed {
		flags |= 4
	}
	hdr[1] = flags
	binary.LittleEndian.PutUint64(hdr[2:10], uint64(m.next.Start))
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(m.next.End))
	binary.LittleEndian.PutUint64(hdr[18:26], uint64(m.pauseStart))
	binary.LittleEndian.PutUint64(hdr[26:34], uint64(m.predictions))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := m.hist.WriteTo(bw)
	if err != nil {
		return int64(len(hdr)) + n, err
	}
	return int64(len(hdr)) + n, bw.Flush()
}

// Restore reconstructs a machine from a snapshot under the given (possibly
// re-trained) configuration. r must end where the snapshot does.
func Restore(cfg Config, r io.Reader) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	var hdr [snapshotHeader]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("policy: reading snapshot header: %w", err)
	}
	state := State(hdr[0])
	if state != Resumed && state != LogicallyPaused && state != PhysicallyPaused {
		return nil, fmt.Errorf("policy: snapshot has invalid state %d", hdr[0])
	}
	flags := hdr[1]
	m := &Machine{
		cfg:         cfg,
		hist:        historystore.New(),
		state:       state,
		active:      flags&1 != 0,
		old:         flags&2 != 0,
		prewarmed:   flags&4 != 0,
		pauseStart:  int64(binary.LittleEndian.Uint64(hdr[18:26])),
		predictions: int(int64(binary.LittleEndian.Uint64(hdr[26:34]))),
		next: predictor.Activity{
			Start: int64(binary.LittleEndian.Uint64(hdr[2:10])),
			End:   int64(binary.LittleEndian.Uint64(hdr[10:18])),
		},
	}
	if m.active && m.state != Resumed {
		return nil, fmt.Errorf("policy: snapshot active in state %v", m.state)
	}
	if _, err := m.hist.ReadFrom(br); err != nil {
		return nil, err
	}
	m.timer = m.RestoredTimer()
	return m, nil
}

// RestoredTimer recomputes the wake-up a restored logically paused machine
// needs (the snapshot does not carry timers; they belong to the host's
// timer service). Returns 0 when no timer is needed. The caller should
// schedule OnTimer at max(returned, now).
func (m *Machine) RestoredTimer() int64 {
	if m.state != LogicallyPaused || m.active {
		return 0
	}
	return m.wakeTime(m.pauseStart)
}
