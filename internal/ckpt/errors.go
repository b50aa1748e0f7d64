package ckpt

import "errors"

// Sentinel errors, matched with errors.Is. Chunk reads wrap them under
// the store policy shared with swap-in (vm.StorePolicy), which keeps
// the same split as ErrSwapIO/ErrSwapCorrupt: I/O failures are
// potentially transient and retried with backoff; corruption is a
// verdict — the bytes on disk do not match their recorded CRC and must
// never be handed to a restored process.
var (
	// ErrCorrupt means a structural or checksum mismatch anywhere in a
	// checkpoint file: missing commit record, bad footer CRC, torn
	// chunk, or a chain whose parent identity does not match.
	ErrCorrupt = errors.New("ckpt: checkpoint corrupt")
	// ErrIO means an I/O failure that persisted through the store
	// policy's retries (reads) or aborted a write.
	ErrIO = errors.New("ckpt: checkpoint I/O failure")
	// ErrCrashed is returned by a Writer whose CrashOnInject option is
	// set when a failpoint fires: the writer simulated its own death
	// mid-write, leaving the temp file in whatever torn state the
	// crash point implies. Only the chaos harness sees this error.
	ErrCrashed = errors.New("ckpt: writer crashed at failpoint")
)
