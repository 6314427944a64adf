package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Export/Import stand in for the long-term telemetry path of the paper:
// online components emit events, the Cosmos big-data platform stores them,
// and the offline training pipeline reads them back months later. The
// format is one record per line — `timestamp,database,kind` — matching the
// schema described in Section 9.1 (timestamp in seconds, database
// identifier, component result).

// WriteTo exports the log. It implements io.WriterTo.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	for _, r := range l.records {
		n, err := fmt.Fprintf(bw, "%d,%d,%s\n", r.Time, r.DB, r.Kind)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// kindByName maps the exported names back to kinds.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, NumKinds)
	for k := Kind(0); k < NumKinds; k++ {
		m[k.String()] = k
	}
	return m
}()

// ReadLog imports a log exported by WriteTo. Records must be in
// non-decreasing time order (Append enforces it).
func ReadLog(r io.Reader) (*Log, error) {
	l := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("telemetry: line %d: %d fields, want 3", line, len(parts))
		}
		ts, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: bad timestamp: %w", line, err)
		}
		db, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: bad database id: %w", line, err)
		}
		kind, ok := kindByName[parts[2]]
		if !ok {
			return nil, fmt.Errorf("telemetry: line %d: unknown kind %q", line, parts[2])
		}
		if ts < l.lastT {
			return nil, fmt.Errorf("telemetry: line %d: timestamp %d out of order", line, ts)
		}
		l.Append(Record{Time: ts, DB: db, Kind: kind})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}
