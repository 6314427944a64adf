package prorp

import (
	"prorp/internal/controlplane"
	"prorp/internal/frame"
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
// inside internal/controlplane or internal/frame matches directly.
var (
	ErrUnknownDatabase   = controlplane.ErrUnknownDatabase
	ErrDuplicateDatabase = controlplane.ErrDuplicateDatabase
	ErrCorruptArchive    = frame.ErrCorrupt
)
