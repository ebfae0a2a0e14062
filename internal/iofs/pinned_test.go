package iofs

import (
	"hash/fnv"
	"path/filepath"
	"testing"
)

// TestPinnedDiskSchedule pins the disk plane's fault schedule bit for
// bit: 200 write-then-read rounds on one file under seed 42 at rate 3,
// the outcome of every operation (fault kind, sequence number and op,
// or the bytes read) folded into one FNV-64a digest, plus the applied
// counts and the decision count. A change to the seeded stream, the
// per-operation pools, the torn-write or partial-read length draws or
// the fault accounting changes the digest.
func TestPinnedDiskSchedule(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS{}, Config{Seed: 42, Rate: 3})
	h := fnv.New64a()
	name := filepath.Join(dir, "f.bin")
	for i := 0; i < 200; i++ {
		werr := fsys.WriteFile(name, []byte("payload payload payload"), 0o644)
		data, rerr := fsys.ReadFile(name)
		for _, s := range []string{errString(werr), errString(rerr), string(data)} {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	if got, want := h.Sum64(), uint64(0x50b33ab79c328d8); got != want {
		t.Errorf("outcome digest = %#x, pinned %#x", got, want)
	}
	const wantCounts = "enospc=19 eio=67 torn_write=17 partial_read=34"
	if got := fsys.Counts().String(); got != wantCounts {
		t.Errorf("Counts = %q, pinned %q", got, wantCounts)
	}
	if got := fsys.Decisions(); got != 400 {
		t.Errorf("Decisions = %d, want 400", got)
	}
}
