package iofs

import (
	"fmt"
	"io/fs"
	"sync"

	"github.com/ildp/accdbt/internal/faultinject"
)

// Kind is one injectable I/O fault class.
type Kind uint8

const (
	// KindNone is the no-fault decision.
	KindNone Kind = iota
	// KindNoSpace refuses a write with ENOSPC before any byte is
	// written; the destination file is untouched.
	KindNoSpace
	// KindEIO fails a read or write with an I/O error. A failed write
	// leaves the destination truncated to zero bytes (the open with
	// O_TRUNC succeeded, the write did not).
	KindEIO
	// KindTornWrite writes a strict prefix of the data and then errors —
	// the model of a crash mid-write. A reader that later opens the file
	// sees the torn prefix, which is exactly what the atomic-write
	// protocol and the CRC-guarded codecs must defend against.
	KindTornWrite
	// KindPartialRead returns a truncated prefix of the file with a nil
	// error — silent short data, catchable only by a content checksum.
	KindPartialRead
	// KindRenameFail fails a rename, leaving both paths as they were.
	KindRenameFail
)

// Kinds names the disk plane's fault kinds.
var Kinds = faultinject.NewTable[Kind]("iofs",
	"none", "enospc", "eio", "torn_write", "partial_read", "rename_fail")

// String returns the lower-case kind name.
func (k Kind) String() string { return Kinds.Name(k) }

// writeKinds and readKinds partition the kinds by the operation they can
// fire at; renames have their own single-kind pool.
var (
	writeKinds  = []Kind{KindNoSpace, KindEIO, KindTornWrite}
	readKinds   = []Kind{KindEIO, KindPartialRead}
	renameKinds = []Kind{KindRenameFail}
)

// Counts is the number of faults applied, by kind.
type Counts = faultinject.Counts[Kind]

// Fault is the typed error attached to injected I/O failures. It wraps
// the kind's sentinel (ErrNoSpace, ErrIO, ErrTorn, ErrRename), so both
// errors.As(*Fault) and errors.Is(sentinel) classify it.
type Fault struct {
	Op   string // "read", "write", "rename"
	Path string
	Kind Kind
	Seq  uint64 // fault sequence number within the schedule
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("iofs: injected %s fault #%d: %s %s", f.Kind, f.Seq, f.Op, f.Path)
}

// Unwrap returns the sentinel for the fault's kind.
func (f *Fault) Unwrap() error {
	switch f.Kind {
	case KindNoSpace:
		return ErrNoSpace
	case KindEIO:
		return ErrIO
	case KindTornWrite:
		return ErrTorn
	case KindRenameFail:
		return ErrRename
	default:
		return nil
	}
}

// Config parameterises a fault schedule.
type Config struct {
	// Seed selects the schedule; equal seeds produce equal schedules.
	Seed uint64
	// Rate is the mean operations between faults (fire with probability
	// 1/Rate per eligible operation). Default 8.
	Rate int
	// Kinds restricts the schedule to the listed kinds (nil = all).
	Kinds []Kind
	// MaxFaults caps the number of faults applied (0 = unlimited).
	MaxFaults int
}

// Faulty wraps an FS with a deterministic fault schedule drawn from
// faultinject's shared Schedule. It is safe for concurrent use: an
// internal mutex serialises operations, so the fault stream stays a
// pure function of the seed and the operation order (concurrent
// callers — e.g. serve workers — interleave nondeterministically, but
// each single-threaded harness replays exactly). A nil *Faulty is not
// valid; use Default/OS for "no faults".
type Faulty struct {
	inner FS
	rate  int

	mu sync.Mutex
	s  faultinject.Schedule[Kind]
}

// NewFaulty wraps inner (nil = OS) with the given fault schedule.
func NewFaulty(inner FS, cfg Config) *Faulty {
	if cfg.Rate <= 0 {
		cfg.Rate = 8
	}
	return &Faulty{inner: Default(inner), rate: cfg.Rate,
		s: faultinject.NewSchedule(Kinds, cfg.Seed, cfg.Kinds, cfg.MaxFaults)}
}

// fault records an applied fault and returns its typed error.
func (f *Faulty) fault(op, path string, k Kind) *Fault {
	return &Fault{Op: op, Path: path, Kind: k, Seq: f.s.Applied(k)}
}

// Counts returns the faults applied so far, by kind.
func (f *Faulty) Counts() Counts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.s.Counts()
}

// Decisions returns the number of decision points consulted.
func (f *Faulty) Decisions() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.s.Decisions()
}

// ReadFile implements FS; it may fail with EIO or silently return a
// truncated prefix (partial read).
func (f *Faulty) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch k := f.s.Decide(f.rate, readKinds); k {
	case KindEIO:
		return nil, f.fault("read", name, k)
	case KindPartialRead:
		data, err := f.inner.ReadFile(name)
		if err != nil {
			return data, err
		}
		f.fault("read", name, k)
		// Return a strict prefix: at least zero, at most len-1 bytes.
		if len(data) > 0 {
			data = data[:f.s.Next()%uint64(len(data))]
		}
		return data, nil
	}
	return f.inner.ReadFile(name)
}

// WriteFile implements FS; it may fail with ENOSPC (destination
// untouched), EIO (destination truncated), or a torn write (a strict
// prefix of data reaches the destination before the error).
func (f *Faulty) WriteFile(name string, data []byte, perm fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch k := f.s.Decide(f.rate, writeKinds); k {
	case KindNoSpace:
		return f.fault("write", name, k)
	case KindEIO:
		f.inner.WriteFile(name, nil, perm)
		return f.fault("write", name, k)
	case KindTornWrite:
		n := 0
		if len(data) > 0 {
			n = int(f.s.Next() % uint64(len(data)))
		}
		f.inner.WriteFile(name, data[:n], perm)
		return f.fault("write", name, k)
	}
	return f.inner.WriteFile(name, data, perm)
}

// Rename implements FS; it may fail leaving both paths untouched.
func (f *Faulty) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k := f.s.Decide(f.rate, renameKinds); k == KindRenameFail {
		return f.fault("rename", oldpath, k)
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS (never faulted: removing is how error paths clean
// up, and faulting cleanup would only mask the primary fault).
func (f *Faulty) Remove(name string) error { return f.inner.Remove(name) }

// MkdirAll implements FS (never faulted).
func (f *Faulty) MkdirAll(path string, perm fs.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

// Glob implements FS (never faulted).
func (f *Faulty) Glob(pattern string) ([]string, error) { return f.inner.Glob(pattern) }
