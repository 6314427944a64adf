package prorp

import (
	"prorp/internal/frame"
	"prorp/internal/shardedfleet"
)

// The typed sentinel errors of the public API. ShardedFleet returns errors
// that wrap these, so hosts classify failures with errors.Is:
//
//	ErrUnknownDatabase    the id does not exist (HTTP 404)
//	ErrDuplicateDatabase  create/restore of an existing id (HTTP 409)
//	ErrCorruptArchive     snapshot/archive cannot be decoded (truncated,
//	                      bit-flipped, wrong kind or version) — restore
//	                      from an older snapshot; never a panic
//
// The values are shared with the internal runtimes, so an error born
// inside internal/shardedfleet or internal/frame matches directly.
var (
	ErrUnknownDatabase   = shardedfleet.ErrUnknownDatabase
	ErrDuplicateDatabase = shardedfleet.ErrDuplicateDatabase
	ErrCorruptArchive    = frame.ErrCorrupt
)
