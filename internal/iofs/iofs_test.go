package iofs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestAtomicWriteFileReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "data.bin")
	if err := AtomicWriteFile(OS{}, name, []byte("old contents"), 0o644); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := AtomicWriteFile(OS{}, name, []byte("new"), 0o644); err != nil {
		t.Fatalf("second write: %v", err)
	}
	got, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("contents = %q, want %q", got, "new")
	}
	if _, err := os.Stat(name + TempSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: stat err = %v", err)
	}
}

// TestAtomicWriteFilePreservesOldOnFault drives AtomicWriteFile with a
// schedule that faults every write, and checks the destination keeps its
// previous good contents for every fault kind — the anti-clobber
// guarantee the cachefile and spill paths rely on.
func TestAtomicWriteFilePreservesOldOnFault(t *testing.T) {
	for _, kind := range []Kind{KindNoSpace, KindEIO, KindTornWrite, KindRenameFail} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			name := filepath.Join(dir, "data.bin")
			old := []byte("good old contents that must survive")
			if err := AtomicWriteFile(OS{}, name, old, 0o644); err != nil {
				t.Fatal(err)
			}
			fsys := NewFaulty(OS{}, Config{Seed: 1, Rate: 1, Kinds: []Kind{kind}})
			err := AtomicWriteFile(fsys, name, []byte("replacement"), 0o644)
			if err == nil {
				t.Fatal("want injected fault, got nil")
			}
			var fault *Fault
			if !errors.As(err, &fault) {
				t.Fatalf("error %v is not a *Fault", err)
			}
			if fault.Kind != kind {
				t.Fatalf("fault kind = %v, want %v", fault.Kind, kind)
			}
			got, rerr := os.ReadFile(name)
			if rerr != nil {
				t.Fatalf("destination unreadable after fault: %v", rerr)
			}
			if !bytes.Equal(got, old) {
				t.Fatalf("destination clobbered: %q", got)
			}
			if _, serr := os.Stat(name + TempSuffix); !errors.Is(serr, os.ErrNotExist) {
				t.Fatalf("temp file left behind: stat err = %v", serr)
			}
		})
	}
}

func TestFaultSentinels(t *testing.T) {
	cases := []struct {
		kind Kind
		want error
	}{
		{KindNoSpace, ErrNoSpace},
		{KindEIO, ErrIO},
		{KindTornWrite, ErrTorn},
		{KindRenameFail, ErrRename},
	}
	for _, c := range cases {
		f := &Fault{Op: "write", Path: "x", Kind: c.kind, Seq: 1}
		if !errors.Is(f, c.want) {
			t.Errorf("fault %v does not unwrap to %v", c.kind, c.want)
		}
	}
}

// errString renders an outcome independent of the temp-dir path.
func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	var fault *Fault
	if errors.As(err, &fault) {
		return fmt.Sprintf("%s#%d:%s", fault.Kind, fault.Seq, fault.Op)
	}
	return err.Error()
}

// TestTornWriteIsStrictPrefix checks the torn-write model: the bytes on
// disk after the fault are a strict prefix of the intended data.
func TestTornWriteIsStrictPrefix(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "torn.bin")
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 512)
	fsys := NewFaulty(OS{}, Config{Seed: 7, Rate: 1, Kinds: []Kind{KindTornWrite}})
	err := fsys.WriteFile(name, payload, 0o644)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("want torn write, got %v", err)
	}
	got, rerr := os.ReadFile(name)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(got) >= len(payload) {
		t.Fatalf("torn write wrote %d bytes, want < %d", len(got), len(payload))
	}
	if !bytes.Equal(got, payload[:len(got)]) {
		t.Fatal("torn bytes are not a prefix of the payload")
	}
}

// TestPartialReadSilent checks the partial-read model: truncated data,
// nil error.
func TestPartialReadSilent(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "p.bin")
	payload := bytes.Repeat([]byte{0x5A}, 1024)
	if err := os.WriteFile(name, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := NewFaulty(OS{}, Config{Seed: 9, Rate: 1, Kinds: []Kind{KindPartialRead}})
	got, err := fsys.ReadFile(name)
	if err != nil {
		t.Fatalf("partial read must be silent, got %v", err)
	}
	if len(got) >= len(payload) {
		t.Fatalf("partial read returned %d bytes, want < %d", len(got), len(payload))
	}
}

// TestFaultyConcurrent drives one Faulty from several goroutines, as
// serve workers do: every decision is counted once, and the applied
// faults carry distinct sequence numbers 1..N with N = Counts().Total().
func TestFaultyConcurrent(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS{}, Config{Seed: 5, Rate: 2})
	const workers, ops = 4, 50
	seqs := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := filepath.Join(dir, fmt.Sprintf("w%d", w))
			for i := 0; i < ops; i++ {
				var fault *Fault
				if err := fsys.WriteFile(name, []byte("data"), 0o644); errors.As(err, &fault) {
					seqs[w] = append(seqs[w], fault.Seq)
				} else if err != nil {
					t.Errorf("worker %d: unexpected error %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := fsys.Decisions(); got != workers*ops {
		t.Errorf("Decisions = %d, want %d", got, workers*ops)
	}
	seen := map[uint64]bool{}
	for _, s := range seqs {
		for _, q := range s {
			seen[q] = true
		}
	}
	total := fsys.Counts().Total()
	if total == 0 || uint64(len(seen)) != total {
		t.Fatalf("%d distinct fault sequence numbers, %d faults applied", len(seen), total)
	}
	for q := uint64(1); q <= total; q++ {
		if !seen[q] {
			t.Fatalf("fault sequence number %d missing of 1..%d", q, total)
		}
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds.All() {
		got, err := Kinds.ByName(k.String())
		if err != nil {
			t.Fatalf("Kinds.ByName(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("Kinds.ByName(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := Kinds.ByName("bogus"); err == nil {
		t.Fatal("Kinds.ByName(bogus) succeeded")
	}
	kinds, err := Kinds.Parse("enospc, torn_write")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != KindNoSpace || kinds[1] != KindTornWrite {
		t.Fatalf("Kinds.Parse = %v", kinds)
	}
	if kinds, err := Kinds.Parse(""); err != nil || kinds != nil {
		t.Fatalf("Kinds.Parse(\"\") = %v, %v", kinds, err)
	}
}

func TestFaultyDeterministic(t *testing.T) {
	walk := func(seed uint64) ([]string, Counts) {
		dir := t.TempDir()
		fsys := NewFaulty(OS{}, Config{Seed: seed, Rate: 3})
		var outcomes []string
		for i := 0; i < 200; i++ {
			name := filepath.Join(dir, "f.bin")
			werr := fsys.WriteFile(name, []byte("payload payload payload"), 0o644)
			data, rerr := fsys.ReadFile(name)
			outcomes = append(outcomes,
				errString(werr), errString(rerr), string(data))
		}
		return outcomes, fsys.Counts()
	}
	a, ca := walk(42)
	b, cb := walk(42)
	if ca != cb {
		t.Fatalf("counts diverge: %v vs %v", ca, cb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d diverges: %q vs %q", i, a[i], b[i])
		}
	}
	c, _ := walk(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
	if ca.Total() == 0 {
		t.Fatal("rate-3 schedule applied no faults in 400 decisions")
	}
}

func TestMaxFaults(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS{}, Config{Seed: 3, Rate: 1, MaxFaults: 2})
	for i := 0; i < 50; i++ {
		fsys.WriteFile(filepath.Join(dir, "f"), []byte("x"), 0o644)
	}
	if got := fsys.Counts().Total(); got != 2 {
		t.Fatalf("applied %d faults, want 2", got)
	}
}
