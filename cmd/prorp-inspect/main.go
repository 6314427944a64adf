// Command prorp-inspect evaluates the KPI metrics of Section 8 offline,
// from an exported telemetry log — the Cosmos-side analysis path of the
// paper. Logs are produced by `prorp-sim -telemetry <file>` or by
// prorp.SimulateWithTelemetry (and in a real deployment, by the online
// components themselves).
//
// It also carries the journal debugging surface: `prorp-inspect wal`
// dumps and CRC-verifies the segments of an event-journal directory,
// reporting each segment's header, frame count, and torn tail — the tool
// to reach for when a replica won't converge or a boot replay logs
// truncation.
//
// `prorp-inspect shardmap` is the partitioned-control-plane counterpart:
// it CRC-verifies a shard-map file and prints the map version, the group
// table, and the slot ranges each group owns — the tool to reach for when
// two groups disagree about a slot or a node boots with a stale map.
//
// `prorp-inspect frame` names any file the stack persists or ships (a
// snapshot, a fleet archive, a database image, a shard map, a slot
// transfer, a WAL segment): its kind, version, body length and whether its
// CRC holds.
//
// Usage:
//
//	prorp-sim -telemetry run.csv -policy proactive -days 4
//	prorp-inspect -in run.csv -from-day 15 -days 4
//	prorp-inspect wal -dir /var/lib/prorp/wal
//	prorp-inspect wal -dir /var/lib/prorp/wal -records 5
//	prorp-inspect shardmap /var/lib/prorp/shard.map
//	prorp-inspect frame /var/lib/prorp/fleet.snap
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"prorp"
	"prorp/internal/frame"
	"prorp/internal/shardmap"
	"prorp/internal/wal"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "wal" {
		inspectWAL(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "shardmap" {
		inspectShardmap(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "frame" {
		// Name any file the stack writes; exit status 1 means damage.
		path, data := readArg("frame", os.Args[2:])
		if _, err := printFrame(path, data); err != nil {
			fatalf("frame: %s: %v", path, err)
		}
		return
	}

	var (
		in      = flag.String("in", "-", "telemetry log file ('-' = stdin)")
		fromDay = flag.Int("from-day", 0, "evaluation window start, in days since the log epoch")
		days    = flag.Int("days", 365, "evaluation window length in days")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		r = f
	}

	evalFrom := time.Unix(int64(*fromDay)*86400, 0)
	evalTo := evalFrom.Add(time.Duration(*days) * 24 * time.Hour)
	rep, err := prorp.EvaluateTelemetry(r, evalFrom, evalTo)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Print(rep)
}

// inspectWAL is the `wal` subcommand: walk a journal directory and report
// every segment's framing health. Exit status 1 means damage was found
// (torn tails, bad headers) — scriptable as a health probe.
func inspectWAL(args []string) {
	fs := flag.NewFlagSet("prorp-inspect wal", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "event journal directory (required)")
		records = fs.Int("records", 3, "sample records to print per segment (0 = none)")
	)
	fs.Parse(args)
	if *dir == "" {
		fatalf("wal: -dir is required")
	}

	reports, err := wal.InspectDir(nil, *dir, *records)
	if err != nil {
		fatalf("wal: %v", err)
	}
	if len(reports) == 0 {
		fmt.Printf("%s: no journal segments\n", *dir)
		return
	}

	damaged := 0
	totalRecords := 0
	for _, rep := range reports {
		fmt.Printf("%s  %d bytes\n", rep.Path, rep.SizeBytes)
		if !rep.HeaderOK {
			damaged++
			fmt.Printf("  header: BAD (not a segment frame, or sequence mismatch)\n")
			continue
		}
		fmt.Printf("  header: ok (seq %d)\n", rep.Seq)
		fmt.Printf("  records: %d (CRC-32C verified)\n", rep.Records)
		totalRecords += rep.Records
		if rep.Torn {
			damaged++
			fmt.Printf("  torn tail: %d bytes past offset %d fail framing/CRC\n", rep.Truncated, rep.TornAt)
		}
		for _, rec := range rep.Sample {
			fmt.Printf("    %s id=%d at %s\n",
				rec.Type, rec.ID, time.Unix(rec.Unix, 0).UTC().Format(time.RFC3339))
		}
	}
	fmt.Printf("%d segments, %d records", len(reports), totalRecords)
	if damaged > 0 {
		fmt.Printf(", %d DAMAGED\n", damaged)
		os.Exit(1)
	}
	fmt.Println(", all clean")
}

// inspectShardmap is the `shardmap` subcommand: CRC-verify a shard-map
// file and print its version, groups, and slot ownership. Exit status 1
// means the file is missing or damaged — scriptable as a health probe.
func inspectShardmap(args []string) {
	path, data := readArg("shardmap", args)
	_, err := printFrame(path, data)
	var m *shardmap.Map
	if err == nil {
		m, err = shardmap.Decode(data)
	}
	if err != nil {
		fatalf("shardmap: %s: %v", path, err)
	}
	fmt.Printf("  version: %d\n", m.Version())
	fmt.Printf("  groups: %d\n", len(m.Groups()))
	for _, g := range m.Groups() {
		fmt.Printf("    %-12s %d slots\n", g, len(m.OwnedSlots(g)))
	}
	fmt.Printf("  slot ranges (%d slots):\n", shardmap.NumSlots)
	for _, r := range m.Ranges() {
		fmt.Printf("    [%2d..%2d] -> %s\n", r.Start, r.End, r.Group)
	}
}

// readArg reads the file named by the subcommand's one argument.
func readArg(cmd string, args []string) (string, []byte) {
	if len(args) != 1 {
		fatalf("%s: usage: prorp-inspect %s <path>", cmd, cmd)
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fatalf("%s: %v", cmd, err)
	}
	return args[0], data
}

// printFrame prints the frame at the front of data — kind, version, body
// length, CRC status — and returns its verified body. Bytes past the body
// (a WAL segment's records) are counted, not decoded.
func printFrame(path string, data []byte) ([]byte, error) {
	fmt.Printf("%s  %d bytes\n", path, len(data))
	h, err := frame.Parse(data)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  kind: %v, version %d\n", h.Kind, h.Version)
	fmt.Printf("  body: %d bytes\n", h.Len)
	end := len(data)
	if h.Len < uint64(len(data)-frame.HeaderSize) {
		end = frame.HeaderSize + int(h.Len)
		fmt.Printf("  followed by %d bytes outside the frame\n", len(data)-end)
	}
	body, err := frame.Decode(h.Kind, data[:end])
	if err != nil {
		return nil, err
	}
	fmt.Printf("  crc: ok\n")
	return body, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "prorp-inspect: "+format+"\n", args...)
	os.Exit(1)
}
