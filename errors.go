package prorp

import (
	"prorp/internal/shardedfleet"
)

// The typed sentinel errors of the public API. ShardedFleet returns errors
// that wrap these, so hosts classify failures with errors.Is:
//
//	ErrUnknownDatabase    the id does not exist (HTTP 404)
//	ErrDuplicateDatabase  create/restore of an existing id (HTTP 409)
//	ErrCorruptArchive     snapshot/archive cannot be decoded (truncated,
//	                      bit-flipped, wrong format) — restore from an
//	                      older snapshot; never a panic
//
// The values are shared with the internal runtimes, so an error born
// inside internal/shardedfleet matches the root sentinel directly.
var (
	ErrUnknownDatabase   = shardedfleet.ErrUnknownDatabase
	ErrDuplicateDatabase = shardedfleet.ErrDuplicateDatabase
	ErrCorruptArchive    = shardedfleet.ErrCorruptArchive
)
